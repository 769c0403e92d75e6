// Test helper: a probe handler that runs test code from typed engine
// events. Each action is a kCoreStep whose token indexes the probe's action
// list, so an action may schedule more actions and nested schedules keep
// the engine's own (time, seq) order. Events of the other kinds go to
// `other`, when given.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/engine.hpp"

namespace sbq::sim {

class ActionProbe {
 public:
  explicit ActionProbe(Engine& e, Engine::HandlerFn other = nullptr,
                       void* other_ctx = nullptr)
      : e_(e), other_(other), other_ctx_(other_ctx) {
    e_.set_handler(&ActionProbe::on_event, this);
  }

  // Run `fn` `delay` cycles from now.
  void at(Time delay, std::function<void()> fn) {
    actions_.push_back(std::move(fn));
    e_.schedule_step(delay, -1, {.token = actions_.size() - 1});
  }

 private:
  static void on_event(void* ctx, const Event& ev) {
    auto& p = *static_cast<ActionProbe*>(ctx);
    if (ev.kind != EventKind::kCoreStep) {
      p.other_(p.other_ctx_, ev);
      return;
    }
    // A deque: running an action may append more without moving it.
    p.actions_[ev.step.token]();
  }

  Engine& e_;
  Engine::HandlerFn other_;
  void* other_ctx_;
  std::deque<std::function<void()>> actions_;
};

}  // namespace sbq::sim
