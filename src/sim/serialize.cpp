#include "sim/serialize.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace sbq::sim {

namespace {

// Blob layout constants. The magic doubles as an endianness probe: the
// encoder is explicitly little-endian, so a big-endian reader sees a
// mismatched magic and falls back to a cold warm-up instead of misreading.
constexpr std::uint32_t kMagic = 0x31514253;  // "SBQ1"

enum Tag : std::uint8_t {
  kTagConfig = 1,
  kTagEngine = 2,
  kTagNet = 3,
  kTagLines = 4,  // the line table, then the directory's own state
  kTagCores = 5,
  kTagStats = 6,
  kTagCursors = 7,
  kTagHostWords = 8,
  kTagEnd = 0xFF,
};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

struct Writer {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
};

// Bounds-checked little-endian reader: every accessor returns false instead
// of reading past the end, so truncated blobs fail cleanly.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;

  bool u8(std::uint8_t& v) {
    if (pos + 1 > n) return false;
    v = p[pos++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos + 4 > n) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[pos++]} << (8 * i);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos + 8 > n) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[pos++]} << (8 * i);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool b(bool& v) {
    std::uint8_t byte;
    if (!u8(byte)) return false;
    if (byte > 1) return false;
    v = byte != 0;
    return true;
  }
  bool i(int& v) {
    std::uint64_t raw;
    if (!u64(raw)) return false;
    if (raw > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      return false;
    }
    v = static_cast<int>(raw);
    return true;
  }
  bool tag(Tag expected) {
    std::uint8_t t;
    return u8(t) && t == expected;
  }
};

// Count limits: a blob that claims more entries than could possibly fit in
// the remaining bytes is corrupt — reject before allocating for it.
bool plausible(const Reader& r, std::uint64_t count, std::size_t min_entry) {
  return count <= (r.n - r.pos) / (min_entry == 0 ? 1 : min_entry);
}

}  // namespace

// Serialization backdoor: the one friend FlatMap / LineTable / SharerSet /
// CoreStates / Stats grant, so the encoder can persist their exact slot
// layout (FlatMap iteration order is not schedule-visible, but slot
// indices feed probe chains — an "equivalent" reinsertion could place keys
// differently and change nothing observable *today* while silently
// diverging from the in-memory fork's capacity profile; exact restore
// keeps the two paths bit-for-bit equal, including the zero-alloc behavior
// the perf_smoke gates measure).
struct SnapshotSerde {
  // A line table is its capacity, then one byte per slot (0 empty, 1
  // full), each full slot followed by its key and value.
  template <typename V, typename EncodeV>
  static void encode_flat_map(Writer& w, const FlatMap<V>& m, EncodeV enc) {
    w.u64(m.slots_.size());
    for (const auto& [key, value] : m.slots_) {
      w.b(key != kNullAddr);
      if (key != kNullAddr) {
        w.u64(key);
        enc(w, value);
      }
    }
  }

  template <typename V, typename DecodeV>
  static bool decode_flat_map(Reader& r, FlatMap<V>& m, DecodeV dec) {
    std::uint64_t cap;
    if (!r.u64(cap)) return false;
    // Capacity is 0 (never grown) or a power of two >= kMinCapacity;
    // anything else cannot have come from a real FlatMap.
    if (cap != 0 &&
        (cap < FlatMap<V>::kMinCapacity || (cap & (cap - 1)) != 0)) {
      return false;
    }
    if (!plausible(r, cap, 1)) return false;
    m.slots_ = std::vector<typename FlatMap<V>::Slot>(cap);
    m.shift_ = 64 - std::countr_zero(cap);
    m.size_ = 0;
    for (auto& [key, value] : m.slots_) {
      bool full;
      if (!r.b(full)) return false;  // refuses state bytes above 1
      if (!full) continue;
      if (!r.u64(key) || key == kNullAddr) return false;
      if (!dec(r, value)) return false;
      ++m.size_;
    }
    // A real table keeps an empty slot (load <= 7/8), which is what ends
    // every probe of an absent key.
    return m.size_ * 8 <= cap * 7;
  }

  // A bit-set word array (a SharerSet's or a CoreStates'): its length,
  // then the words. Decode refuses more words than `max_words`, the most
  // a machine of the config's core count can store.
  template <std::size_t N>
  static void encode_words(Writer& w,
                           const detail::SmallBuf<std::uint64_t, N>& b) {
    w.u64(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) w.u64(b[i]);
  }

  template <std::size_t N>
  static bool decode_words(Reader& r, detail::SmallBuf<std::uint64_t, N>& b,
                           std::uint64_t max_words) {
    std::uint64_t n;
    if (!r.u64(n) || n > max_words) return false;
    b.assign(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!r.u64(b[i])) return false;
    }
    return true;
  }

  // A line record: the cached value first, then the cores' states, then
  // the directory's fields.
  static void encode_lines(Writer& w, const LineTable& t) {
    encode_flat_map(w, t.map_, [](Writer& ww, const LineRecord& line) {
      ww.u64(line.value);
      encode_words(ww, line.cores.words_);
      ww.u8(static_cast<std::uint8_t>(line.state));
      ww.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(line.owner)));
      encode_words(ww, line.sharers.words_);
      ww.u64(line.llc);
    });
  }

  static bool decode_lines(Reader& r, LineTable& t, int cores) {
    const auto n = static_cast<std::uint64_t>(cores);
    return decode_flat_map(r, t.map_, [n](Reader& rr, LineRecord& line) {
      std::uint8_t state;
      std::uint64_t owner;
      if (!(rr.u64(line.value) &&
            decode_words(rr, line.cores.words_, (n + 31) / 32) &&
            rr.u8(state) && rr.u64(owner))) {
        return false;
      }
      if (state > static_cast<std::uint8_t>(LineState::kOwned)) return false;
      line.state = static_cast<LineState>(state);
      line.owner = static_cast<CoreId>(static_cast<std::int64_t>(owner));
      return decode_words(rr, line.sharers.words_, (n + 63) / 64) &&
             rr.u64(line.llc);
    });
  }

  static void encode_protocol(Writer& w, const ProtocolCounters& c) {
    w.u64(c.gets);
    w.u64(c.getm);
    w.u64(c.fwd_gets);
    w.u64(c.fwd_getm);
    w.u64(c.inv);
    w.u64(c.inv_ack);
    w.u64(c.wb_data);
  }
  static bool decode_protocol(Reader& r, ProtocolCounters& c) {
    return r.u64(c.gets) && r.u64(c.getm) && r.u64(c.fwd_gets) &&
           r.u64(c.fwd_getm) && r.u64(c.inv) && r.u64(c.inv_ack) &&
           r.u64(c.wb_data);
  }

  static void encode_htm(Writer& w, const HtmCounters& c) {
    w.u64(c.calls);
    w.u64(c.attempts);
    w.u64(c.commits);
    w.u64(c.fallbacks);
    w.u64(c.fallback_cas);
    w.u64(c.uarch_fix_stalls);
    for (std::uint64_t a : c.aborts) w.u64(a);
    for (std::uint64_t b : c.retry_histogram) w.u64(b);
  }
  static bool decode_htm(Reader& r, HtmCounters& c) {
    if (!(r.u64(c.calls) && r.u64(c.attempts) && r.u64(c.commits) &&
          r.u64(c.fallbacks) && r.u64(c.fallback_cas) &&
          r.u64(c.uarch_fix_stalls))) {
      return false;
    }
    for (std::uint64_t& a : c.aborts) {
      if (!r.u64(a)) return false;
    }
    for (std::uint64_t& b : c.retry_histogram) {
      if (!r.u64(b)) return false;
    }
    return true;
  }

  static void encode_basket(Writer& w, const BasketCounters& c) {
    w.u64(c.appends_won);
    w.u64(c.appends_lost);
    w.u64(c.stale_tails);
    w.u64(c.closes);
    w.u64(c.occupancy_sum);
    w.u64(c.occupancy_min);
    w.u64(c.occupancy_max);
    w.u64(c.extracted);
    w.u64(c.empty_swaps);
    w.u64(c.node_reuses);
    w.u64(c.fresh_allocs);
  }
  static bool decode_basket(Reader& r, BasketCounters& c) {
    return r.u64(c.appends_won) && r.u64(c.appends_lost) &&
           r.u64(c.stale_tails) && r.u64(c.closes) && r.u64(c.occupancy_sum) &&
           r.u64(c.occupancy_min) && r.u64(c.occupancy_max) &&
           r.u64(c.extracted) && r.u64(c.empty_swaps) && r.u64(c.node_reuses) &&
           r.u64(c.fresh_allocs);
  }

  static void encode_policy(Writer& w, const PolicyCounters& c) {
    w.u64(c.txn_steps);
    w.u64(c.budget_fallbacks);
    w.u64(c.degraded_fallbacks);
    w.u64(c.intra_delay_cycles);
    w.u64(c.post_delay_cycles);
  }
  static bool decode_policy(Reader& r, PolicyCounters& c) {
    return r.u64(c.txn_steps) && r.u64(c.budget_fallbacks) &&
           r.u64(c.degraded_fallbacks) && r.u64(c.intra_delay_cycles) &&
           r.u64(c.post_delay_cycles);
  }

  static void encode_stats(Writer& w, const Stats& s) {
    encode_protocol(w, s.protocol_);
    encode_htm(w, s.htm_);
    encode_basket(w, s.basket_);
    encode_policy(w, s.policy_);
    w.u64(s.per_core_protocol_.size());
    for (const auto& c : s.per_core_protocol_) encode_protocol(w, c);
    for (const auto& c : s.per_core_htm_) encode_htm(w, c);
  }

  // `stats` was emplaced from the config's core count, so the per-core
  // tables are already sized; the blob's count must agree with the config.
  static bool decode_stats(Reader& r, Stats& s, int cores) {
    if (!decode_protocol(r, s.protocol_)) return false;
    if (!decode_htm(r, s.htm_)) return false;
    if (!decode_basket(r, s.basket_)) return false;
    if (!decode_policy(r, s.policy_)) return false;
    std::uint64_t n;
    if (!r.u64(n)) return false;
    if (n != static_cast<std::uint64_t>(cores)) return false;
    for (auto& c : s.per_core_protocol_) {
      if (!decode_protocol(r, c)) return false;
    }
    for (auto& c : s.per_core_htm_) {
      if (!decode_htm(r, c)) return false;
    }
    return true;
  }
};

namespace {

void encode_config(Writer& w, const MachineConfig& cfg) {
  w.u64(static_cast<std::uint64_t>(cfg.cores));
  w.u64(static_cast<std::uint64_t>(cfg.sockets));
  w.u64(cfg.intra_latency);
  w.u64(cfg.inter_latency);
  w.u8(static_cast<std::uint8_t>(cfg.interconnect_model));
  w.u64(cfg.link_occupancy);
  w.u64(cfg.dir_occupancy);
  w.u64(cfg.hit_latency);
  w.u64(cfg.rmw_latency);
  w.b(cfg.uarch_fix);
  w.b(cfg.record_trace);
  w.u64(cfg.trace_capacity);
  w.b(cfg.collect_stats);
  w.b(cfg.fault_plan.enabled);
  w.u64(cfg.fault_plan.seed);
  w.f64(cfg.fault_plan.capacity_rate);
  w.f64(cfg.fault_plan.interrupt_rate);
  w.f64(cfg.fault_plan.spurious_rate);
  w.f64(cfg.fault_plan.message_jitter_rate);
  w.u64(cfg.fault_plan.max_message_jitter);
  w.u64(cfg.fault_plan.one_shots.size());
  for (const FaultOneShot& shot : cfg.fault_plan.one_shots) {
    w.u64(shot.time);
    w.u64(static_cast<std::uint64_t>(shot.core));
    w.u8(static_cast<std::uint8_t>(shot.kind));
  }
  w.b(cfg.check_invariants);
  // Contention policy: part of the canonical config bytes, so the policy
  // kind and every tuning knob key machine_config_digest automatically.
  w.u8(static_cast<std::uint8_t>(cfg.cas_policy.kind));
  w.u64(cfg.cas_policy.seed);
  w.u64(cfg.cas_policy.backoff_floor_shift);
  w.u64(cfg.cas_policy.backoff_ceil_mult);
}

bool decode_config(Reader& r, MachineConfig& cfg) {
  std::uint8_t model;
  if (!(r.i(cfg.cores) && r.i(cfg.sockets) && r.u64(cfg.intra_latency) &&
        r.u64(cfg.inter_latency) && r.u8(model))) {
    return false;
  }
  if (model > static_cast<std::uint8_t>(InterconnectModel::kLink)) return false;
  cfg.interconnect_model = static_cast<InterconnectModel>(model);
  if (!(r.u64(cfg.link_occupancy) && r.u64(cfg.dir_occupancy) &&
        r.u64(cfg.hit_latency) && r.u64(cfg.rmw_latency) &&
        r.b(cfg.uarch_fix) && r.b(cfg.record_trace))) {
    return false;
  }
  std::uint64_t cap;
  if (!r.u64(cap)) return false;
  cfg.trace_capacity = static_cast<std::size_t>(cap);
  if (!r.b(cfg.collect_stats)) return false;
  if (!(r.b(cfg.fault_plan.enabled) && r.u64(cfg.fault_plan.seed) &&
        r.f64(cfg.fault_plan.capacity_rate) &&
        r.f64(cfg.fault_plan.interrupt_rate) &&
        r.f64(cfg.fault_plan.spurious_rate) &&
        r.f64(cfg.fault_plan.message_jitter_rate) &&
        r.u64(cfg.fault_plan.max_message_jitter))) {
    return false;
  }
  std::uint64_t nshots;
  if (!r.u64(nshots) || !plausible(r, nshots, 17)) return false;
  cfg.fault_plan.one_shots.resize(static_cast<std::size_t>(nshots));
  for (FaultOneShot& shot : cfg.fault_plan.one_shots) {
    std::uint8_t kind;
    if (!(r.u64(shot.time) && r.i(shot.core) && r.u8(kind))) return false;
    if (kind >= kFaultKindCount) return false;
    shot.kind = static_cast<FaultKind>(kind);
  }
  if (!r.b(cfg.check_invariants)) return false;
  std::uint8_t policy_kind;
  if (!r.u8(policy_kind)) return false;
  // Unknown policy kinds are rejected, not misread: a blob from a future
  // schema cannot silently decode into the wrong retry behavior.
  if (policy_kind >= kContentionPolicyKindCount) return false;
  cfg.cas_policy.kind = static_cast<ContentionPolicyKind>(policy_kind);
  std::uint64_t floor_shift, ceil_mult;
  if (!(r.u64(cfg.cas_policy.seed) && r.u64(floor_shift) &&
        r.u64(ceil_mult))) {
    return false;
  }
  cfg.cas_policy.backoff_floor_shift = static_cast<std::uint32_t>(floor_shift);
  cfg.cas_policy.backoff_ceil_mult = static_cast<std::uint32_t>(ceil_mult);
  return true;
}

void encode_directory(Writer& w, const Directory::State& d) {
  w.u64(d.busy_until);
  w.u64(d.stats.gets);
  w.u64(d.stats.getm);
  w.u64(d.stats.invalidations);
  w.u64(d.stats.fwd_gets);
  w.u64(d.stats.fwd_getm);
  w.u64(d.stats.wb_accepted);
  w.u64(d.stats.wb_dropped);
}

bool decode_directory(Reader& r, Directory::State& d) {
  return r.u64(d.busy_until) && r.u64(d.stats.gets) &&
         r.u64(d.stats.getm) && r.u64(d.stats.invalidations) &&
         r.u64(d.stats.fwd_gets) && r.u64(d.stats.fwd_getm) &&
         r.u64(d.stats.wb_accepted) && r.u64(d.stats.wb_dropped);
}

void encode_core_stats(Writer& w, const CoreStats& s) {
  w.u64(s.loads);
  w.u64(s.stores);
  w.u64(s.rmws);
  w.u64(s.txcas_calls);
  w.u64(s.txcas_success);
  w.u64(s.txcas_fail);
  w.u64(s.txcas_attempts);
  w.u64(s.nested_aborts);
  w.u64(s.tripped_aborts);
  w.u64(s.uarch_fix_stalls);
  w.u64(s.self_aborts);
  w.u64(s.fallbacks);
  w.u64(s.injected_capacity);
  w.u64(s.injected_interrupt);
  w.u64(s.injected_spurious);
  w.u64(s.fallback_cas);
}

bool decode_core_stats(Reader& r, CoreStats& s) {
  return r.u64(s.loads) && r.u64(s.stores) && r.u64(s.rmws) &&
         r.u64(s.txcas_calls) && r.u64(s.txcas_success) &&
         r.u64(s.txcas_fail) && r.u64(s.txcas_attempts) &&
         r.u64(s.nested_aborts) && r.u64(s.tripped_aborts) &&
         r.u64(s.uarch_fix_stalls) && r.u64(s.self_aborts) &&
         r.u64(s.fallbacks) && r.u64(s.injected_capacity) &&
         r.u64(s.injected_interrupt) && r.u64(s.injected_spurious) &&
         r.u64(s.fallback_cas);
}

void encode_core(Writer& w, const Core::State& c) {
  encode_core_stats(w, c.stats);
  w.u64(c.delay_jitter_state);
  w.u64(c.fault_rng_state);
  w.u64(c.policy_state.rng);
  w.u64(c.policy_state.failure_level);
}

bool decode_core(Reader& r, Core::State& c) {
  if (!(decode_core_stats(r, c.stats) && r.u64(c.delay_jitter_state) &&
        r.u64(c.fault_rng_state) && r.u64(c.policy_state.rng))) {
    return false;
  }
  std::uint64_t level;
  if (!r.u64(level)) return false;
  c.policy_state.failure_level = static_cast<std::uint32_t>(level);
  return true;
}

void encode_net(Writer& w, const Interconnect::State& s) {
  w.u64(s.sent);
  w.u64(s.link_msgs);
  w.u64(s.link_wait_cycles);
  w.u64(s.link_busy_until.size());
  for (Time t : s.link_busy_until) w.u64(t);
  w.u64(s.jitter_rng_state);
  w.u64(s.jittered_msgs);
  w.u64(s.jitter_cycles);
  w.u64(s.last_arrival.size());
  for (Time t : s.last_arrival) w.u64(t);
}

bool decode_net(Reader& r, Interconnect::State& s) {
  if (!(r.u64(s.sent) && r.u64(s.link_msgs) && r.u64(s.link_wait_cycles))) {
    return false;
  }
  std::uint64_t n;
  if (!r.u64(n) || !plausible(r, n, 8)) return false;
  s.link_busy_until.resize(static_cast<std::size_t>(n));
  for (Time& t : s.link_busy_until) {
    if (!r.u64(t)) return false;
  }
  if (!(r.u64(s.jitter_rng_state) && r.u64(s.jittered_msgs) &&
        r.u64(s.jitter_cycles))) {
    return false;
  }
  if (!r.u64(n) || !plausible(r, n, 8)) return false;
  s.last_arrival.resize(static_cast<std::size_t>(n));
  for (Time& t : s.last_arrival) {
    if (!r.u64(t)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t machine_config_digest(const MachineConfig& cfg) {
  Writer w;
  encode_config(w, cfg);
  return fnv1a(w.buf.data(), w.buf.size());
}

std::vector<std::uint8_t> encode_snapshot_blob(
    const MachineSnapshot& snap, const std::vector<std::uint64_t>& host_words,
    std::uint64_t key) {
  if (snap.cfg.record_trace || snap.trace.enabled() || snap.trace.size() != 0) {
    return {};
  }

  Writer w;
  w.buf.reserve(1 << 16);
  w.u32(kMagic);
  w.u32(kSnapshotSchemaVersion);
  w.u64(key);

  w.u8(kTagConfig);
  encode_config(w, snap.cfg);

  w.u8(kTagEngine);
  w.u64(snap.engine.now);
  w.u64(snap.engine.next_seq);
  w.u64(snap.engine.processed);
  w.u64(snap.engine.alloc.scheduled);
  w.u64(snap.engine.alloc.slab_refills);
  w.u64(snap.engine.alloc.overflow_events);

  w.u8(kTagNet);
  encode_net(w, snap.net);

  w.u8(kTagLines);
  SnapshotSerde::encode_lines(w, snap.lines);
  encode_directory(w, snap.directory);

  w.u8(kTagCores);
  w.u64(snap.cores.size());
  for (const Core::State& c : snap.cores) encode_core(w, c);

  w.u8(kTagStats);
  w.b(snap.stats.has_value());
  if (snap.stats.has_value()) SnapshotSerde::encode_stats(w, *snap.stats);

  w.u8(kTagCursors);
  w.u64(snap.next_addr);
  w.u64(snap.spawned);
  w.u64(snap.finished);
  w.b(snap.started);

  w.u8(kTagHostWords);
  w.u64(host_words.size());
  for (std::uint64_t v : host_words) w.u64(v);

  w.u8(kTagEnd);
  w.u64(fnv1a(w.buf.data(), w.buf.size()));
  return w.buf;
}

bool decode_snapshot_blob(const std::vector<std::uint8_t>& blob,
                          std::uint64_t key, MachineSnapshot& snap,
                          std::vector<std::uint64_t>& host_words) {
  if (blob.size() < 4 + 4 + 8 + 8) return false;
  const std::size_t body = blob.size() - 8;
  std::uint64_t stored_sum = 0;
  for (int i = 0; i < 8; ++i) {
    stored_sum |= std::uint64_t{blob[body + static_cast<std::size_t>(i)]}
                  << (8 * i);
  }
  if (fnv1a(blob.data(), body) != stored_sum) return false;

  Reader r{blob.data(), body};
  std::uint32_t magic, version;
  std::uint64_t stored_key;
  if (!(r.u32(magic) && r.u32(version) && r.u64(stored_key))) return false;
  if (magic != kMagic) return false;
  if (version != kSnapshotSchemaVersion) return false;
  if (stored_key != key) return false;

  if (!r.tag(kTagConfig) || !decode_config(r, snap.cfg)) return false;
  if (snap.cfg.cores < 1) return false;

  if (!r.tag(kTagEngine)) return false;
  if (!(r.u64(snap.engine.now) && r.u64(snap.engine.next_seq) &&
        r.u64(snap.engine.processed) && r.u64(snap.engine.alloc.scheduled) &&
        r.u64(snap.engine.alloc.slab_refills) &&
        r.u64(snap.engine.alloc.overflow_events))) {
    return false;
  }

  if (!r.tag(kTagNet) || !decode_net(r, snap.net)) return false;

  if (!r.tag(kTagLines) ||
      !SnapshotSerde::decode_lines(r, snap.lines, snap.cfg.cores) ||
      !decode_directory(r, snap.directory)) {
    return false;
  }

  std::uint64_t n;
  if (!r.tag(kTagCores) || !r.u64(n)) return false;
  if (n != static_cast<std::uint64_t>(snap.cfg.cores)) return false;
  snap.cores.clear();
  snap.cores.resize(static_cast<std::size_t>(n));
  for (Core::State& c : snap.cores) {
    if (!decode_core(r, c)) return false;
  }

  bool have_stats;
  if (!r.tag(kTagStats) || !r.b(have_stats)) return false;
  snap.stats.reset();
  if (have_stats) {
    snap.stats.emplace(snap.cfg.cores);
    if (!SnapshotSerde::decode_stats(r, *snap.stats, snap.cfg.cores)) {
      return false;
    }
  }

  if (!r.tag(kTagCursors)) return false;
  std::uint64_t spawned, finished;
  if (!(r.u64(snap.next_addr) && r.u64(spawned) && r.u64(finished) &&
        r.b(snap.started))) {
    return false;
  }
  snap.spawned = static_cast<std::size_t>(spawned);
  snap.finished = static_cast<std::size_t>(finished);

  if (!r.tag(kTagHostWords) || !r.u64(n) || !plausible(r, n, 8)) return false;
  host_words.resize(static_cast<std::size_t>(n));
  for (std::uint64_t& v : host_words) {
    if (!r.u64(v)) return false;
  }

  if (!r.tag(kTagEnd)) return false;
  if (r.pos != body) return false;  // trailing garbage
  // The trace is debug state, deliberately not persisted: rebuild the
  // disabled ring a fresh machine of this config would carry.
  snap.trace = Trace(false, snap.cfg.trace_capacity);
  return true;
}

}  // namespace sbq::sim
