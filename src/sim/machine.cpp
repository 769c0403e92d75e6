#include "sim/machine.hpp"

#include <cassert>
#include <iostream>
#include <stdexcept>

#include "sim/invariants.hpp"

namespace sbq::sim {

namespace {

MachineConfig normalized(MachineConfig cfg) {
  if (cfg.cores < 1) cfg.cores = 1;
  if (cfg.sockets < 1) cfg.sockets = 1;
  return cfg;
}

}  // namespace

Machine::Machine(MachineConfig cfg)
    : cfg_(normalized(cfg)),
      trace_(cfg_.record_trace, cfg_.trace_capacity),
      stats_(cfg_.cores),
      net_(std::make_unique<Interconnect>(engine_, cfg_, &trace_,
                                          &debug_ring_)),
      dir_(engine_, *net_, lines_, cfg_, &trace_) {
  engine_.set_handler(&Machine::on_event, this);
  cores_.reserve(static_cast<std::size_t>(cfg_.cores));
  for (int i = 0; i < cfg_.cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, engine_, *net_, lines_, cfg_,
                                            &trace_, stats_));
  }
}

Machine::Machine(const MachineSnapshot& snap) : Machine(snap.cfg) {
  engine_.restore_checkpoint(snap.engine);
  net_->restore_state(snap.net);
  lines_ = snap.lines;
  dir_.restore_state(snap.directory);
  assert(snap.cores.size() == cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->restore_state(snap.cores[i]);
  }
  trace_ = snap.trace;
  stats_ = snap.stats;
  next_addr_ = snap.next_addr;
  spawned_ = snap.spawned;
  finished_ = snap.finished;
  started_ = snap.started;
}

MachineSnapshot Machine::snapshot() const {
  if (!engine_.idle()) {
    throw std::runtime_error(
        "Machine::snapshot: event queue not drained (call between run() "
        "phases, not mid-simulation)");
  }
  if (!roots_.empty() || spawned_ != finished()) {
    throw std::runtime_error(
        "Machine::snapshot: spawned tasks have not finished");
  }
  for (const auto& c : cores_) {
    if (!c->quiescent()) {
      throw std::runtime_error(
          "Machine::snapshot: a core holds in-flight protocol or "
          "transaction state");
    }
  }
  MachineSnapshot snap;
  snap.cfg = cfg_;
  snap.engine = engine_.save_checkpoint();
  snap.net = net_->save_state();
  snap.lines = lines_;
  snap.directory = dir_.save_state();
  snap.cores.reserve(cores_.size());
  for (const auto& c : cores_) snap.cores.push_back(c->save_state());
  snap.trace = trace_;
  snap.stats = stats_;
  snap.next_addr = next_addr_;
  snap.spawned = spawned_;
  snap.finished = finished();
  snap.started = started_;
  return snap;
}

MetricsSnapshot Machine::metrics() const {
  MetricsSnapshot snap;
  snap.fault_injection = cfg_.fault_plan.enabled;
  snap.protocol = stats_.protocol();
  snap.htm = stats_.htm();
  snap.basket = stats_.basket();
  snap.policy = stats_.policy();
  snap.messages = net_->messages_sent();
  snap.link_messages = net_->link_messages();
  snap.link_wait_cycles = net_->link_wait_cycles();
  snap.events = engine_.events_processed();
  snap.final_time = engine_.now();
  if (snap.fault_injection) {
    // Only injection produces these abort causes (sim/stats.hpp).
    const auto aborts = [&](AbortCause c) {
      return snap.htm.aborts[static_cast<std::size_t>(c)];
    };
    snap.faults.injected_capacity = aborts(AbortCause::kCapacity);
    snap.faults.injected_interrupt = aborts(AbortCause::kInterrupt);
    snap.faults.injected_spurious = aborts(AbortCause::kSpurious);
    snap.faults.jittered_messages = net_->jittered_messages();
    snap.faults.jitter_cycles = net_->jitter_cycles();
  }
  return snap;
}

Machine::~Machine() {
  for (auto h : roots_) {
    if (h) h.destroy();
  }
}

Addr Machine::alloc(std::uint64_t words) {
  const Addr base = next_addr_;
  next_addr_ += words;
  return base;
}

void Machine::on_event(void* ctx, const Event& ev) {
  Machine& m = *static_cast<Machine*>(ctx);
  // A chain of compares, not a switch: over five kinds GCC builds a jump
  // table, and its indirect branch cost the simulated benchmark workloads
  // about 3% host throughput. The three protocol kinds are 99.7% of events
  // and go first.
  if (ev.kind == EventKind::kDirProcess) {
    m.dir_.process(ev.msg);
  } else if (ev.kind == EventKind::kAccessDone) {
    m.cores_[static_cast<std::size_t>(ev.target)]->complete_access();
  } else if (ev.kind == EventKind::kDeliver) {
    if (ev.target < m.cfg_.cores) {
      m.cores_[static_cast<std::size_t>(ev.target)]->handle(ev.msg);
    } else {
      m.dir_.handle(ev.msg);
    }
    if (m.cfg_.check_invariants) m.check_invariants_now();
  } else if (ev.kind == EventKind::kResume) {
    std::coroutine_handle<>::from_address(ev.frame).resume();
  } else {
    m.cores_[static_cast<std::size_t>(ev.target)]->run_step(ev.step);
  }
}

void Machine::spawn(Task<void> task) {
  assert(task.valid());
  auto h = task.release();
  h.promise().finished = &finished_;
  roots_.push_back(h);
  ++spawned_;
  if (started_) engine_.schedule_resume(0, h);
}

void Machine::start() {
  started_ = true;
  for (auto h : roots_) engine_.schedule_resume(0, h);
}

Time Machine::run() {
  if (!started_) start();
  const Time t = engine_.run();
  if (finished_ != spawned_) {
    // Quiescence watchdog: the event queue drained but simulated threads
    // are still blocked — a deadlock in the simulated program (or a
    // protocol bug that dropped a wakeup). Dump what we know and throw
    // instead of asserting (the default build compiles with NDEBUG) or
    // silently returning a half-finished run.
    dump_debug_state("event queue drained with unfinished tasks");
    throw std::runtime_error(
        "Machine::run: simulated program deadlocked (" +
        std::to_string(finished_) + " of " + std::to_string(spawned_) +
        " tasks finished; debug ring dumped to stderr)");
  }
  // Every root is parked at its final suspend point now: destroy the frames
  // so the frame pool can recycle them for the next batch of spawns (keeps
  // repeated run() phases allocation-free; see bench/sim_microbench.cpp).
  for (auto h : roots_) {
    if (h) h.destroy();
  }
  roots_.clear();
  return t;
}

bool Machine::run_until(Time limit) {
  if (!started_) start();
  return engine_.run_until(limit);
}

void Machine::check_invariants_now() {
  std::string violation = check_swmr_invariants(lines_, cores_);
  if (violation.empty()) return;
  dump_debug_state(violation.c_str());
  throw std::logic_error("coherence invariant violated: " + violation);
}

void Machine::dump_debug_state(const char* why) {
  std::cerr << "=== sim debug dump (t=" << now() << "): " << why << " ===\n";
  debug_ring_.dump(std::cerr);
  for (const auto& c : cores_) {
    if (c->poll_parked()) {
      std::cerr << "core " << c->id() << " parked in poll_until on addr "
                << c->poll_addr() << ", next poll at t=" << c->poll_next()
                << "\n";
    }
  }
  if (trace_.enabled()) {
    std::cerr << "--- trace tail ---\n";
    trace_.print(std::cerr);
  }
  std::cerr.flush();
}

}  // namespace sbq::sim
