#include "sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/invariants.hpp"

namespace sbq::sim {

namespace {

// Per-core allocation arenas carve the 40-bit packed-pointer address space
// (see SimSbq's pack_link) into 2^30-word regions: region 0 is the shared
// setup cursor, regions 1..cores belong to the cores, and regions beyond
// are handed out by alloc_region().
constexpr int kArenaBits = 30;
constexpr Addr kMaxRegions = Addr{1} << 10;  // 2^40 / 2^30

constexpr Time kNever = std::numeric_limits<Time>::max();

MachineConfig normalized(MachineConfig cfg) {
  if (cfg.cores < 1) cfg.cores = 1;
  if (cfg.sockets < 1) cfg.sockets = 1;
  if (cfg.dir_slices < 1) cfg.dir_slices = 1;
  if (cfg.dir_slices > cfg.cores) cfg.dir_slices = cfg.cores;
  if (cfg.machine_threads < 1) cfg.machine_threads = 1;
  // A single slice has nothing to run in parallel; normalize before any
  // component copies the config so Core::sharded() agrees machine-wide.
  if (cfg.dir_slices <= 1) cfg.machine_threads = 1;
  if (cfg.machine_threads > cfg.dir_slices) {
    cfg.machine_threads = cfg.dir_slices;
  }
  return cfg;
}

void add_counters(ProtocolCounters& a, const ProtocolCounters& b) {
  a.gets += b.gets;
  a.getm += b.getm;
  a.fwd_gets += b.fwd_gets;
  a.fwd_getm += b.fwd_getm;
  a.inv += b.inv;
  a.inv_ack += b.inv_ack;
  a.wb_data += b.wb_data;
}

void add_counters(HtmCounters& a, const HtmCounters& b) {
  a.calls += b.calls;
  a.attempts += b.attempts;
  a.commits += b.commits;
  a.fallbacks += b.fallbacks;
  a.fallback_cas += b.fallback_cas;
  a.uarch_fix_stalls += b.uarch_fix_stalls;
  for (std::size_t i = 0; i < a.aborts.size(); ++i) a.aborts[i] += b.aborts[i];
  for (std::size_t i = 0; i < a.retry_histogram.size(); ++i) {
    a.retry_histogram[i] += b.retry_histogram[i];
  }
}

void add_counters(PolicyCounters& a, const PolicyCounters& b) {
  a.txn_steps += b.txn_steps;
  a.budget_fallbacks += b.budget_fallbacks;
  a.degraded_fallbacks += b.degraded_fallbacks;
  a.intra_delay_cycles += b.intra_delay_cycles;
  a.post_delay_cycles += b.post_delay_cycles;
}

void add_counters(BasketCounters& a, const BasketCounters& b) {
  a.appends_won += b.appends_won;
  a.appends_lost += b.appends_lost;
  a.stale_tails += b.stale_tails;
  a.closes += b.closes;
  a.occupancy_sum += b.occupancy_sum;
  if (b.occupancy_min < a.occupancy_min) a.occupancy_min = b.occupancy_min;
  if (b.occupancy_max > a.occupancy_max) a.occupancy_max = b.occupancy_max;
  a.extracted += b.extracted;
  a.empty_swaps += b.empty_swaps;
  a.node_reuses += b.node_reuses;
  a.fresh_allocs += b.fresh_allocs;
}

}  // namespace

// Persistent worker pool for the sharded event loop. Windows are short
// (one conservative-lookahead band, tens of microseconds of host work), so
// the handshake is spin-first: run_window() publishes a horizon and bumps
// an atomic epoch; workers spin (with a park-on-cv fallback after a long
// idle stretch, so an idle Machine burns no CPU between run() phases) and
// then run their slice stride. The calling thread participates as the last
// worker — with P participants only P-1 threads are pooled — and then
// spin-waits for the workers' done-counter. Exceptions thrown inside a
// slice (protocol asserts, simulated deadlock detection) are captured and
// rethrown on the coordinating thread.
struct Machine::Pool {
  Pool(Machine* m, int participants) : machine(m) {
    // Never oversubscribe the host: parallel slice execution is a wall-
    // clock optimization, not a semantic one (the merge barrier fixes the
    // event order regardless of who runs which slice), so on a host with
    // fewer CPUs than machine_threads we run fewer — or zero — workers
    // and keep byte-identical results. With 0 workers the caller runs
    // every slice inline and the handshake disappears entirely.
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) hw = 1;
    nworkers = std::min(participants, hw) - 1;
    threads.reserve(static_cast<std::size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w) {
      threads.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop.store(true, std::memory_order_relaxed);
    }
    cv_start.notify_all();
    for (auto& t : threads) t.join();
  }

  void run_window(Time h) {
    horizon.store(h, std::memory_order_relaxed);
    pending.store(nworkers, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    if (sleepers.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(mu);
      cv_start.notify_all();
    }
    // The caller is participant `nworkers`.
    run_stride(nworkers, h);
    while (pending.load(std::memory_order_acquire) != 0) {
      cpu_pause();
    }
    if (error) {
      std::exception_ptr e = error;
      error = nullptr;
      std::rethrow_exception(e);
    }
  }

  void run_stride(int w, Time h) {
    try {
      auto& slices = machine->slices_;
      const std::size_t stride = static_cast<std::size_t>(nworkers) + 1;
      for (std::size_t s = static_cast<std::size_t>(w); s < slices.size();
           s += stride) {
        slices[s].run_until(h);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  }

  void worker_loop(int w) {
    std::uint64_t seen = 0;
    for (;;) {
      // Spin briefly — back-to-back windows arrive within microseconds —
      // then park so an idle machine releases its cores.
      int spins = 0;
      while (epoch.load(std::memory_order_acquire) == seen &&
             !stop.load(std::memory_order_relaxed)) {
        if (++spins < kSpinLimit) {
          cpu_pause();
        } else {
          std::unique_lock<std::mutex> lock(mu);
          sleepers.fetch_add(1, std::memory_order_relaxed);
          cv_start.wait(lock, [&] {
            return stop.load(std::memory_order_relaxed) ||
                   epoch.load(std::memory_order_relaxed) != seen;
          });
          sleepers.fetch_sub(1, std::memory_order_relaxed);
          break;
        }
      }
      if (stop.load(std::memory_order_relaxed)) return;
      seen = epoch.load(std::memory_order_acquire);
      run_stride(w, horizon.load(std::memory_order_relaxed));
      pending.fetch_sub(1, std::memory_order_release);
    }
  }

  static void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  static constexpr int kSpinLimit = 1 << 14;

  Machine* machine;
  int nworkers;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> pending{0};
  std::atomic<Time> horizon{0};
  std::atomic<bool> stop{false};
  std::atomic<int> sleepers{0};
  std::mutex mu;
  std::condition_variable cv_start;
  std::exception_ptr error;
};

Machine::Machine(MachineConfig cfg)
    : cfg_(normalized(cfg)), trace_(cfg_.record_trace, cfg_.trace_capacity) {
  if (cfg_.prewarm_frames > 0) {
    detail::FramePool::prewarm(cfg_.prewarm_frames);
  }
  if (cfg_.prewarm_event_nodes > 0 && cfg_.machine_threads == 1) {
    engine_.prewarm_nodes(cfg_.prewarm_event_nodes);
  }
  if (cfg_.check_invariants && cfg_.machine_threads > 1) {
    throw std::runtime_error(
        "Machine: check_invariants is serial-only (slice-local state is "
        "legitimately incoherent mid-window); run with machine_threads=1");
  }
  if (cfg_.alloc_arenas && cfg_.cores > 1000) {
    throw std::runtime_error(
        "Machine: alloc_arenas needs a 2^30-word region per core and the "
        "packed-pointer format caps the machine at 2^40 words (~1000 cores)");
  }
  if (cfg_.machine_threads > 1) {
    if (cfg_.record_trace) {
      throw std::runtime_error(
          "Machine: record_trace is serial-only (the trace ring is a single "
          "globally ordered log); run with machine_threads=1");
    }
    if (cfg_.fault_plan.enabled && cfg_.fault_plan.jitter_active()) {
      throw std::runtime_error(
          "Machine: fault jitter draws from a shared RNG keyed by delivery "
          "order and is serial-only; run with machine_threads=1");
    }
    if (!cfg_.alloc_arenas) {
      throw std::runtime_error(
          "Machine: machine_threads > 1 requires alloc_arenas (mid-run "
          "allocations must be per-core deterministic)");
    }
    if (cfg_.interconnect_model == InterconnectModel::kLink &&
        cfg_.dir_slices != cfg_.sockets) {
      throw std::runtime_error(
          "Machine: the kLink model shards only at dir_slices == sockets "
          "(each slice must own its link-queue rows)");
    }
  }
  if (cfg_.collect_stats && cfg_.machine_threads == 1) {
    stats_ = std::make_unique<Stats>(cfg_.cores, cfg_.track_lines);
  }
  if (cfg_.alloc_arenas) {
    arena_next_.resize(static_cast<std::size_t>(cfg_.cores));
    for (int i = 0; i < cfg_.cores; ++i) {
      arena_next_[static_cast<std::size_t>(i)] = (Addr{1} + static_cast<Addr>(i))
                                                 << kArenaBits;
    }
  }
  const int ds = cfg_.dir_slices;
  cores_per_slice_ = (cfg_.cores + ds - 1) / ds;
  net_ = std::make_unique<Interconnect>(engine_, cfg_, &trace_, &debug_ring_);
  if (cfg_.machine_threads == 1) {
    dirs_.reserve(static_cast<std::size_t>(ds));
    for (int s = 0; s < ds; ++s) {
      const CoreId node = static_cast<CoreId>(cfg_.cores + s);
      dirs_.push_back(
          std::make_unique<Directory>(engine_, *net_, cfg_, &trace_, node));
      Directory* d = dirs_.back().get();
      if (cfg_.check_invariants) {
        net_->set_handler(node, [this, d](const Message& m) {
          d->handle(m);
          check_invariants_now();
        });
      } else {
        net_->set_handler(node, [d](const Message& m) { d->handle(m); });
      }
    }
    cores_.reserve(static_cast<std::size_t>(cfg_.cores));
    for (int i = 0; i < cfg_.cores; ++i) {
      cores_.push_back(std::make_unique<Core>(i, engine_, *net_, cfg_, &trace_,
                                              stats_.get()));
      Core* c = cores_.back().get();
      if (cfg_.check_invariants) {
        net_->set_handler(i, [this, c](const Message& m) {
          c->handle(m);
          check_invariants_now();
        });
      } else {
        net_->set_handler(i, [c](const Message& m) { c->handle(m); });
      }
    }
  } else {
    // Sharded: node -> slice ownership table first (the per-slice
    // interconnects keep a pointer into it, so it must never reallocate).
    node_slice_.resize(static_cast<std::size_t>(cfg_.cores + ds));
    for (int i = 0; i < cfg_.cores; ++i) {
      node_slice_[static_cast<std::size_t>(i)] = i / cores_per_slice_;
    }
    for (int s = 0; s < ds; ++s) {
      node_slice_[static_cast<std::size_t>(cfg_.cores + s)] = s;
    }
    slices_.reserve(static_cast<std::size_t>(ds));
    for (int s = 0; s < ds; ++s) {
      Slice sl;
      sl.engine = std::make_unique<Engine>();
      sl.engine->enable_window_logging();
      sl.ring = std::make_unique<DebugRing>();
      sl.net = std::make_unique<Interconnect>(*sl.engine, cfg_, &trace_,
                                              sl.ring.get());
      sl.net->enable_sharding(s, node_slice_.data());
      if (cfg_.collect_stats) {
        sl.stats = std::make_unique<Stats>(cfg_.cores, cfg_.track_lines);
      }
      sl.frames = std::make_unique<detail::FramePool::Pools>();
      if (cfg_.prewarm_frames > 0) {
        detail::FramePool::Use use(*sl.frames);
        detail::FramePool::prewarm(cfg_.prewarm_frames);
      }
      slices_.push_back(std::move(sl));
    }
    dirs_.reserve(static_cast<std::size_t>(ds));
    for (int s = 0; s < ds; ++s) {
      const CoreId node = static_cast<CoreId>(cfg_.cores + s);
      Slice& sl = slices_[static_cast<std::size_t>(s)];
      dirs_.push_back(
          std::make_unique<Directory>(*sl.engine, *sl.net, cfg_, &trace_, node));
      Directory* d = dirs_.back().get();
      sl.net->set_handler(node, [d](const Message& m) { d->handle(m); });
    }
    cores_.reserve(static_cast<std::size_t>(cfg_.cores));
    for (int i = 0; i < cfg_.cores; ++i) {
      Slice& sl = slices_[static_cast<std::size_t>(slice_of_core(i))];
      cores_.push_back(std::make_unique<Core>(i, *sl.engine, *sl.net, cfg_,
                                              &trace_, sl.stats.get()));
      Core* c = cores_.back().get();
      sl.net->set_handler(i, [c](const Message& m) { c->handle(m); });
    }
    // Conservative lookahead: the minimum latency any cross-slice message
    // can have. With several slices per socket the minimum hop is
    // intra-socket; with slice == socket it is the cross-socket latency.
    const int per_socket = (cfg_.cores + cfg_.sockets - 1) / cfg_.sockets;
    const auto slice_socket = [&](int s) {
      int first = s * cores_per_slice_;
      if (first > cfg_.cores - 1) first = cfg_.cores - 1;
      return first / per_socket;
    };
    bool shared_socket = false;
    for (int s = 1; s < ds; ++s) {
      if (slice_socket(s) == slice_socket(s - 1)) shared_socket = true;
    }
    lookahead_ = shared_socket ? cfg_.intra_latency : cfg_.inter_latency;
    if (lookahead_ == 0) lookahead_ = 1;
    resolved_.resize(static_cast<std::size_t>(ds));
    cursor_.resize(static_cast<std::size_t>(ds), 0);
    // Floors for the merge scratch, matching the engines' window-log
    // reserves: a steady phase must never grow these (the sharded
    // sim_microbench gate counts every heap allocation).
    for (auto& r : resolved_) r.reserve(std::size_t{1} << 13);
    deliveries_.reserve(std::size_t{1} << 12);
    pool_ = std::make_unique<Pool>(this, cfg_.machine_threads);
  }
  if (cfg_.fault_plan.enabled) {
    one_shots_pending_.store(cfg_.fault_plan.one_shots.size(),
                             std::memory_order_relaxed);
  }
}

Machine::Machine(const MachineSnapshot& snap) : Machine(snap.cfg) {
  engine_.restore_checkpoint(snap.engine);
  net_->restore_state(snap.net);
  assert(snap.directories.size() == dirs_.size());
  for (std::size_t i = 0; i < dirs_.size(); ++i) {
    dirs_[i]->restore_state(snap.directories[i]);
  }
  assert(snap.cores.size() == cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->restore_state(snap.cores[i]);
  }
  trace_ = snap.trace;
  if (stats_ && snap.stats) *stats_ = *snap.stats;
  next_addr_ = snap.next_addr;
  arena_next_ = snap.arena_next;
  region_next_ = snap.region_next;
  spawned_ = snap.spawned;
  finished_.store(snap.finished, std::memory_order_relaxed);
  started_ = snap.started;
  // A started snapshot already fired (or discarded) its one-shots in the
  // machine it was taken from; a fork must not re-fire them.
  if (started_) one_shots_pending_.store(0, std::memory_order_relaxed);
}

MachineSnapshot Machine::snapshot() const {
  if (sharded()) {
    throw std::runtime_error(
        "Machine::snapshot: sharded machines do not snapshot (per-slice "
        "engine state is not captured); warm the serial twin "
        "(machine_threads=1, same dir_slices) and fork from that");
  }
  if (!engine_.idle()) {
    throw std::runtime_error(
        "Machine::snapshot: event queue not drained (call between run() "
        "phases, not mid-simulation)");
  }
  if (!roots_.empty() || spawned_ != finished()) {
    throw std::runtime_error(
        "Machine::snapshot: spawned tasks have not finished");
  }
  if (one_shots_pending_.load(std::memory_order_relaxed) != 0) {
    throw std::runtime_error(
        "Machine::snapshot: scheduled fault one-shots are pending or in "
        "flight; run the machine past them (or drop them from the "
        "FaultPlan) before snapshotting");
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
  snap.directories.reserve(dirs_.size());
  for (const auto& d : dirs_) snap.directories.push_back(d->save_state());
  snap.cores.reserve(cores_.size());
  for (const auto& c : cores_) snap.cores.push_back(c->save_state());
  snap.trace = trace_;
  if (stats_) snap.stats.emplace(*stats_);
  snap.next_addr = next_addr_;
  snap.arena_next = arena_next_;
  snap.region_next = region_next_;
  snap.spawned = spawned_;
  snap.finished = finished();
  snap.started = started_;
  return snap;
}

MetricsSnapshot Machine::metrics() const {
  MetricsSnapshot snap;
  snap.machine_threads = cfg_.machine_threads;
  snap.fault_injection = cfg_.fault_plan.enabled;
  snap.cas_policy_kind = static_cast<int>(cfg_.cas_policy.kind);
  if (slices_.empty()) {
    if (stats_) {
      snap.protocol = stats_->protocol();
      snap.htm = stats_->htm();
      snap.basket = stats_->basket();
      snap.policy = stats_->policy();
    }
    snap.messages = net_->messages_sent();
    snap.link_messages = net_->link_messages();
    snap.link_wait_cycles = net_->link_wait_cycles();
    snap.events = engine_.events_processed();
    snap.final_time = engine_.now();
    if (snap.fault_injection) {
      snap.faults.jittered_messages = net_->jittered_messages();
      snap.faults.jitter_cycles = net_->jitter_cycles();
    }
  } else {
    snap.per_slice_events.reserve(slices_.size());
    for (const Slice& sl : slices_) {
      if (sl.stats) {
        add_counters(snap.protocol, sl.stats->protocol());
        add_counters(snap.htm, sl.stats->htm());
        add_counters(snap.basket, sl.stats->basket());
        add_counters(snap.policy, sl.stats->policy());
      }
      snap.messages += sl.net->messages_sent();
      snap.link_messages += sl.net->link_messages();
      snap.link_wait_cycles += sl.net->link_wait_cycles();
      snap.events += sl.engine->events_processed();
      snap.per_slice_events.push_back(sl.engine->events_processed());
    }
    snap.final_time = now();
  }
  if (snap.fault_injection) {
    for (const auto& c : cores_) {
      const CoreStats& cs = c->stats();
      snap.faults.injected_capacity += cs.injected_capacity;
      snap.faults.injected_interrupt += cs.injected_interrupt;
      snap.faults.injected_spurious += cs.injected_spurious;
    }
    snap.faults.one_shots_fired =
        one_shots_fired_.load(std::memory_order_relaxed);
  }
  return snap;
}

Machine::~Machine() {
  pool_.reset();  // join workers before the slices they reference go away
  for (auto h : roots_) {
    if (h) h.destroy();
  }
}

Time Machine::now() const noexcept {
  if (slices_.empty()) return engine_.now();
  Time t = 0;
  for (const Slice& sl : slices_) {
    if (sl.engine->now() > t) t = sl.engine->now();
  }
  return t;
}

Addr Machine::alloc(std::uint64_t words) {
  const Addr base = next_addr_;
  next_addr_ += words;
  if (cfg_.alloc_arenas && next_addr_ > (Addr{1} << kArenaBits)) {
    throw std::runtime_error(
        "Machine::alloc: shared setup region exhausted (2^30 words); use "
        "the per-core overload for data-path allocations");
  }
  return base;
}

Addr Machine::alloc(std::uint64_t words, CoreId core) {
  if (!cfg_.alloc_arenas) return alloc(words);
  Addr& cur = arena_next_.at(static_cast<std::size_t>(core));
  const Addr base = cur;
  cur += words;
  if (cur > (static_cast<Addr>(core) + 2) << kArenaBits) {
    throw std::runtime_error("Machine::alloc: per-core arena exhausted");
  }
  return base;
}

Addr Machine::alloc_region() {
  if (!cfg_.alloc_arenas) {
    throw std::runtime_error(
        "Machine::alloc_region: requires MachineConfig::alloc_arenas");
  }
  const Addr idx = static_cast<Addr>(cfg_.cores) + 1 + region_next_;
  if (idx >= kMaxRegions) {
    throw std::runtime_error(
        "Machine::alloc_region: 40-bit address budget exhausted");
  }
  ++region_next_;
  return idx << kArenaBits;
}

void Machine::spawn(Task<void> task) {
  if (sharded()) {
    throw std::logic_error(
        "Machine::spawn: a sharded machine needs every root pinned to a "
        "core (use spawn(task, core))");
  }
  assert(task.valid());
  auto h = task.release();
  h.promise().on_done = [this] {
    finished_.fetch_add(1, std::memory_order_relaxed);
  };
  roots_.push_back(h);
  root_pins_.push_back(-1);
  ++spawned_;
  if (started_) {
    engine_.schedule(0, [h] { h.resume(); });
  }
}

void Machine::spawn(Task<void> task, CoreId core) {
  assert(task.valid());
  if (core < 0 || core >= cfg_.cores) {
    throw std::logic_error("Machine::spawn: pin core out of range");
  }
  auto h = task.release();
  h.promise().on_done = [this] {
    finished_.fetch_add(1, std::memory_order_relaxed);
  };
  roots_.push_back(h);
  root_pins_.push_back(core);
  ++spawned_;
  if (started_) {
    if (sharded()) {
      Engine& e = *slices_[static_cast<std::size_t>(slice_of_core(core))].engine;
      e.insert_external(now(), global_seq_++, [h] { h.resume(); });
    } else {
      engine_.schedule(0, [h] { h.resume(); });
    }
  }
}

void Machine::start() {
  started_ = true;
  if (!sharded()) {
    for (auto h : roots_) {
      engine_.schedule(0, [h] { h.resume(); });
    }
    // Schedule the fault plan's one-shots now (not in the constructor): a
    // forked machine arrives here with started_ already true, so a warm
    // snapshot's one-shots — fired before the snapshot — never re-fire.
    if (one_shots_pending_.load(std::memory_order_relaxed) != 0) {
      const Time now = engine_.now();
      for (const FaultOneShot& shot : cfg_.fault_plan.one_shots) {
        const Time delay = shot.time > now ? shot.time - now : 0;
        const CoreId target = shot.core;
        const FaultKind kind = shot.kind;
        engine_.schedule(delay, [this, target, kind] {
          one_shots_pending_.fetch_sub(1, std::memory_order_relaxed);
          one_shots_fired_.fetch_add(1, std::memory_order_relaxed);
          if (target >= 0 && target < cfg_.cores) {
            cores_[static_cast<std::size_t>(target)]->inject_fault(kind);
          }
        });
      }
    }
    return;
  }
  // Sharded: materialize the roots into their pinned slices with globally
  // ordered sequence numbers, in spawn order — the same order the serial
  // engine would assign — then the fault one-shots.
  const Time t0 = now();
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    auto h = roots_[i];
    const int s = slice_of_core(root_pins_[i]);
    slices_[static_cast<std::size_t>(s)].engine->insert_external(
        t0, global_seq_++, [h] { h.resume(); });
  }
  if (one_shots_pending_.load(std::memory_order_relaxed) != 0) {
    for (const FaultOneShot& shot : cfg_.fault_plan.one_shots) {
      const Time at = shot.time > t0 ? shot.time : t0;
      const CoreId target = shot.core;
      const FaultKind kind = shot.kind;
      const int s = (target >= 0 && target < cfg_.cores)
                        ? slice_of_core(target)
                        : 0;
      slices_[static_cast<std::size_t>(s)].engine->insert_external(
          at, global_seq_++, [this, target, kind] {
            one_shots_pending_.fetch_sub(1, std::memory_order_relaxed);
            one_shots_fired_.fetch_add(1, std::memory_order_relaxed);
            if (target >= 0 && target < cfg_.cores) {
              cores_[static_cast<std::size_t>(target)]->inject_fault(kind);
            }
          });
    }
  }
}

bool Machine::advance_windows(Time limit) {
  static const bool timing = std::getenv("SBQ_WINDOW_TIMING") != nullptr;
  std::uint64_t n_windows = 0, n_solo = 0, n_records = 0;
  std::uint64_t ns_run = 0, ns_merge = 0;
  auto t_enter = std::chrono::steady_clock::now();
  bool drained = false;
  for (;;) {
    Time t_min = kNever;
    std::size_t active = 0, active_slice = 0;
    for (std::size_t s = 0; s < slices_.size(); ++s) {
      Time t;
      if (slices_[s].engine->peek_next_time(&t) && t < t_min) t_min = t;
    }
    if (t_min == kNever) { drained = true; break; }
    if (t_min > limit) break;
    Time horizon = t_min + (lookahead_ - 1);
    if (horizon < t_min) horizon = kNever;  // overflow guard
    if (horizon > limit) horizon = limit;
    // Slices whose next event lies inside the window. When only one slice
    // is active (convoy phases, warm-up tails) the window runs inline on
    // the coordinating thread — no handshake.
    for (std::size_t s = 0; s < slices_.size(); ++s) {
      Time t;
      if (slices_[s].engine->peek_next_time(&t) && t <= horizon) {
        ++active;
        active_slice = s;
      }
    }
    ++n_windows;
    if (timing) {
      auto t0 = std::chrono::steady_clock::now();
      if (active == 1) {
        ++n_solo;
        slices_[active_slice].run_until(horizon);
      } else {
        pool_->run_window(horizon);
      }
      auto t1 = std::chrono::steady_clock::now();
      for (const Slice& sl : slices_) {
        n_records += sl.engine->window_dispatches().size();
      }
      merge_window();
      auto t2 = std::chrono::steady_clock::now();
      ns_run +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
      ns_merge +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count();
    } else {
      if (active == 1) {
        slices_[active_slice].run_until(horizon);
      } else {
        pool_->run_window(horizon);
      }
      merge_window();
    }
  }
  if (timing && n_windows > 0) {
    auto total = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - t_enter).count();
    std::cerr << "[window-timing] windows=" << n_windows
              << " solo=" << n_solo << " records=" << n_records
              << " run_ms=" << ns_run / 1000000
              << " merge_ms=" << ns_merge / 1000000
              << " total_ms=" << total / 1000000 << "\n";
  }
  return drained;
}

void Machine::merge_window() {
  const std::size_t n_slices = slices_.size();
  constexpr std::uint64_t kBase = Engine::kProvisionalSeqBase;
  constexpr std::uint64_t kUnresolved =
      std::numeric_limits<std::uint64_t>::max();
  deliveries_.clear();
  std::size_t contributors = 0, contributor = 0;
  for (std::size_t s = 0; s < n_slices; ++s) {
    cursor_[s] = 0;
    resolved_[s].assign(slices_[s].engine->window_births(), kUnresolved);
    if (!slices_[s].engine->window_dispatches().empty()) {
      ++contributors;
      contributor = s;
    }
  }
  // Replay one dispatch record: assign definitive seqs to the events it
  // birthed, collect its cross-slice sends, run its ordered host effects.
  auto replay = [&](std::size_t s, const Engine::DispatchRecord& r) {
    Engine& e = *slices_[s].engine;
    for (std::uint32_t i = 0; i < r.ncalls; ++i) {
      const Engine::CallRecord c = e.window_calls()[r.first_call + i];
      switch (c.kind) {
        case Engine::CallKind::kBirth: {
          const std::uint64_t g = global_seq_++;
          resolved_[s][c.payload] = g;
          e.patch_birth(c.payload, g);
          break;
        }
        case Engine::CallKind::kChannel: {
          const Interconnect::ChannelEntry& ch =
              slices_[s].net->channel()[c.payload];
          deliveries_.push_back({ch.dst, ch.msg, ch.arrival, global_seq_++});
          break;
        }
        case Engine::CallKind::kEffect: {
          const Engine::EffectRecord& ef = e.window_effect(c.payload);
          if (effect_handler_) effect_handler_(ef.a, ef.b);
          break;
        }
      }
    }
  };
  if (contributors == 1) {
    // Single-contributor window: the merged order IS the slice's own
    // execution order — replay linearly, no k-way scan.
    for (const Engine::DispatchRecord& r :
         slices_[contributor].engine->window_dispatches()) {
      replay(contributor, r);
    }
  } else if (contributors > 1) {
    // K-way merge of the per-slice dispatch logs by (time, resolved seq) —
    // the global order the serial engine would have processed these events
    // in. Per-slice log order is execution order, so a provisional key's
    // birth record always merges before any dispatch that carries the key.
    for (;;) {
      std::size_t best = n_slices;
      Time best_time = 0;
      std::uint64_t best_key = 0;
      for (std::size_t s = 0; s < n_slices; ++s) {
        const auto& log = slices_[s].engine->window_dispatches();
        if (cursor_[s] >= log.size()) continue;
        const Engine::DispatchRecord& r = log[cursor_[s]];
        std::uint64_t key = r.key;
        if (key >= kBase) {
          key = resolved_[s][key - kBase];
          assert(key != kUnresolved && "dispatch key unresolved at merge");
        }
        if (best == n_slices || r.time < best_time ||
            (r.time == best_time && key < best_key)) {
          best = s;
          best_time = r.time;
          best_key = key;
        }
      }
      if (best == n_slices) break;
      replay(best, slices_[best].engine->window_dispatches()[cursor_[best]]);
      ++cursor_[best];
    }
  }
  // Materialize cross-slice messages into their destination slices. Every
  // arrival lies beyond the window horizon (arrival >= send + lookahead >
  // T + lookahead - 1), so no already-run slice missed one.
  for (const PendingDelivery& d : deliveries_) {
    const int s = node_slice_[static_cast<std::size_t>(d.dst)];
    MessageHandlerFn* h = slices_[static_cast<std::size_t>(s)].net->handler(d.dst);
    const Message msg = d.msg;
    slices_[static_cast<std::size_t>(s)].engine->insert_external(
        d.arrival, d.seq, [h, msg] { (*h)(msg); });
  }
  for (Slice& sl : slices_) {
    sl.engine->clear_window_log();
    sl.net->channel().clear();
  }
}

Time Machine::run() {
  if (!started_) start();
  Time t;
  if (!sharded()) {
    t = engine_.run();
  } else {
    advance_windows(kNever);
    t = now();
  }
  if (finished() != spawned_) {
    // Quiescence watchdog: the event queue drained but simulated threads
    // are still blocked — a deadlock in the simulated program (or a
    // protocol bug that dropped a wakeup). Dump what we know and throw
    // instead of asserting (the default build compiles with NDEBUG) or
    // silently returning a half-finished run.
    dump_debug_state("event queue drained with unfinished tasks");
    throw std::runtime_error(
        "Machine::run: simulated program deadlocked (" +
        std::to_string(finished()) + " of " + std::to_string(spawned_) +
        " tasks finished; debug ring dumped to stderr)");
  }
  // Every root is parked at its final suspend point now: destroy the frames
  // so the frame pool can recycle them for the next batch of spawns (keeps
  // repeated run() phases allocation-free; see bench/sim_microbench.cpp).
  for (auto h : roots_) {
    if (h) h.destroy();
  }
  roots_.clear();
  root_pins_.clear();
  return t;
}

bool Machine::run_until(Time limit) {
  if (!started_) start();
  if (!sharded()) return engine_.run_until(limit);
  return advance_windows(limit);
}

void Machine::check_invariants_now() {
  std::string violation = check_swmr_invariants(dirs_, cores_);
  if (violation.empty()) return;
  dump_debug_state(violation.c_str());
  throw std::logic_error("coherence invariant violated: " + violation);
}

void Machine::dump_debug_state(const char* why) {
  std::cerr << "=== sim debug dump (t=" << now() << "): " << why << " ===\n";
  if (slices_.empty()) {
    debug_ring_.dump(std::cerr);
  } else {
    for (std::size_t s = 0; s < slices_.size(); ++s) {
      std::cerr << "--- slice " << s << " ring ---\n";
      slices_[s].ring->dump(std::cerr);
    }
  }
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
