#include "sim/serialize.hpp"

#include <array>
#include <bit>
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
  kTagQueueWords = 8,
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

// A struct with a field list (sim/types.hpp "Field lists").
template <class T, class V>
concept HasFields = requires(T& t, V& v) { t.fields(v); };

// Little-endian encoder: the raw primitives the blob frame uses, plus one
// field-list visitor overload per field type. An int goes out as its u64
// two's complement, a u32 widens to u64, an enum is one byte.
struct Writer {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void operator()(const char*, std::uint64_t v) { u64(v); }
  void operator()(const char*, std::uint32_t v) { u64(v); }
  void operator()(const char*, int v) { u64(static_cast<std::uint64_t>(v)); }
  void operator()(const char*, bool v) { u8(v ? 1 : 0); }
  void operator()(const char*, double v) {
    u64(std::bit_cast<std::uint64_t>(v));
  }
  template <class E>
  void operator()(const char*, E v, int /*count*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <class T, std::size_t N>
  void operator()(const char* name, const std::array<T, N>& a) {
    for (const T& x : a) (*this)(name, x);
  }
  // A vector is its length, then its elements.
  template <class T>
  void operator()(const char* name, const std::vector<T>& v) {
    u64(v.size());
    for (const T& x : v) (*this)(name, x);
  }
  template <class T>
    requires HasFields<T, Writer>
  void operator()(const char*, const T& s) {
    visit_fields(s, *this);
  }
};

// The fewest bytes a T encodes to (a default T: its vectors empty), the
// per-entry bound a decoded vector length is checked against.
template <class T>
std::size_t min_encoded_size() {
  static const std::size_t n = [] {
    Writer w;
    w(nullptr, T{});
    return w.buf.size();
  }();
  return n;
}

// Bounds-checked little-endian decoder. The primitives return false
// instead of reading past the end, so truncated blobs fail cleanly. The
// field-list overloads mirror Writer's and clear `ok` on the first field
// that is truncated or that no encoder could have written: a bool byte
// above 1, an int or u32 out of range, an enum value at or above its
// count, or a vector longer than the remaining bytes can hold. tag()
// fails once `ok` is clear, so each section's tag checks the one before.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;
  bool ok = true;

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
  bool tag(Tag expected) {
    std::uint8_t t = 0;
    return ok && u8(t) && t == expected;
  }
  // Count limits: a blob that claims more entries than could possibly fit
  // in the remaining bytes is corrupt — reject before allocating for it.
  bool plausible(std::uint64_t count, std::size_t min_entry) const {
    return count <= (n - pos) / (min_entry == 0 ? 1 : min_entry);
  }

  void operator()(const char*, std::uint64_t& v) { ok = ok && u64(v); }
  void operator()(const char*, std::uint32_t& v) {
    std::uint64_t raw = 0;
    ok = ok && u64(raw) && raw <= std::numeric_limits<std::uint32_t>::max();
    v = static_cast<std::uint32_t>(raw);
  }
  void operator()(const char*, int& v) {
    std::uint64_t raw = 0;
    ok = ok && u64(raw) &&
         raw <= static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    v = static_cast<int>(raw);
  }
  void operator()(const char*, bool& v) {
    std::uint8_t byte = 0;
    ok = ok && u8(byte) && byte <= 1;
    v = byte != 0;
  }
  void operator()(const char*, double& v) {
    std::uint64_t bits = 0;
    ok = ok && u64(bits);
    v = std::bit_cast<double>(bits);
  }
  template <class E>
  void operator()(const char*, E& v, int count) {
    std::uint8_t raw = 0;
    ok = ok && u8(raw) && raw < count;
    v = static_cast<E>(raw);
  }
  template <class T, std::size_t N>
  void operator()(const char* name, std::array<T, N>& a) {
    for (T& x : a) (*this)(name, x);
  }
  template <class T>
  void operator()(const char* name, std::vector<T>& v) {
    std::uint64_t count = 0;
    ok = ok && u64(count) && plausible(count, min_encoded_size<T>());
    if (!ok) return;
    v.assign(static_cast<std::size_t>(count), T{});
    for (T& x : v) (*this)(name, x);
  }
  template <class T>
    requires HasFields<T, Reader>
  void operator()(const char*, T& s) {
    s.fields(*this);
  }
};

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
      w(nullptr, key != kNullAddr);
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
    if (!r.plausible(cap, 1)) return false;
    m.slots_ = std::vector<typename FlatMap<V>::Slot>(cap);
    m.shift_ = 64 - std::countr_zero(cap);
    m.size_ = 0;
    m.hints_ = {};  // host-only: not in the blob
    for (auto& [key, value] : m.slots_) {
      bool full = false;
      r(nullptr, full);  // refuses state bytes above 1
      if (!r.ok) return false;
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
  // then the words. Decode refuses a word, or a set bit, at or past
  // `bits`, the most bits a machine of the config's core count uses.
  template <std::size_t N>
  static void encode_words(Writer& w,
                           const detail::SmallBuf<std::uint64_t, N>& b) {
    w.u64(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) w.u64(b[i]);
  }

  template <std::size_t N>
  static bool decode_words(Reader& r, detail::SmallBuf<std::uint64_t, N>& b,
                           std::uint64_t bits) {
    const std::uint64_t max_words = (bits + 63) / 64;
    std::uint64_t n = 0;
    if (!r.u64(n) || n > max_words) return false;
    b.assign(static_cast<std::size_t>(n), 0);
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!r.u64(b[i])) return false;
    }
    return n < max_words || bits % 64 == 0 || b[n - 1] >> (bits % 64) == 0;
  }

  // A line record: the cached value first, then the cores' states (two
  // bits per core), then the directory's fields. Decode refuses an owner
  // outside [-1, cores) and any state or sharer bit of a core id at or
  // above `cores`: a forked machine would index its per-core tables with
  // them.
  static void encode_lines(Writer& w, const LineTable& t) {
    encode_flat_map(w, t.map_, [](Writer& ww, const LineRecord& line) {
      ww.u64(line.value);
      encode_words(ww, line.cores.words_);
      ww.u8(static_cast<std::uint8_t>(line.state));
      ww(nullptr, line.owner);
      encode_words(ww, line.sharers.words_);
      ww.u64(line.llc);
    });
  }

  static bool decode_lines(Reader& r, LineTable& t, int cores) {
    const auto n = static_cast<std::uint64_t>(cores);
    return decode_flat_map(r, t.map_, [n, cores](Reader& rr, LineRecord& line) {
      std::uint8_t state = 0;
      std::uint64_t owner = 0;
      if (!(rr.u64(line.value) && decode_words(rr, line.cores.words_, 2 * n) &&
            rr.u8(state) && rr.u64(owner))) {
        return false;
      }
      if (state > static_cast<std::uint8_t>(LineState::kOwned)) return false;
      line.state = static_cast<LineState>(state);
      const auto signed_owner = static_cast<std::int64_t>(owner);
      if (signed_owner < -1 || signed_owner >= cores) return false;
      line.owner = static_cast<CoreId>(signed_owner);
      return decode_words(rr, line.sharers.words_, n) && rr.u64(line.llc);
    });
  }

  // The machine-wide counters, then one count for both per-core tables,
  // then each table's entries.
  static void encode_stats(Writer& w, const Stats& s) {
    w("protocol", s.protocol_);
    w("htm", s.htm_);
    w("basket", s.basket_);
    w("policy", s.policy_);
    w.u64(s.per_core_protocol_.size());
    for (const auto& c : s.per_core_protocol_) w("protocol", c);
    for (const auto& c : s.per_core_htm_) w("htm", c);
  }

  // `stats` was emplaced from the config's core count, so the per-core
  // tables are already sized; the blob's count must agree with the config.
  static bool decode_stats(Reader& r, Stats& s, int cores) {
    r("protocol", s.protocol_);
    r("htm", s.htm_);
    r("basket", s.basket_);
    r("policy", s.policy_);
    std::uint64_t n = 0;
    if (!r.ok || !r.u64(n) || n != static_cast<std::uint64_t>(cores)) {
      return false;
    }
    for (auto& c : s.per_core_protocol_) r("protocol", c);
    for (auto& c : s.per_core_htm_) r("htm", c);
    return r.ok;
  }
};

std::uint64_t machine_config_digest(const MachineConfig& cfg) {
  Writer w;
  w("config", cfg);
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
  w("config", snap.cfg);

  w.u8(kTagEngine);
  w("engine", snap.engine);

  w.u8(kTagNet);
  w("net", snap.net);

  w.u8(kTagLines);
  SnapshotSerde::encode_lines(w, snap.lines);
  w("directory", snap.directory);

  w.u8(kTagCores);
  w("cores", snap.cores);

  w.u8(kTagStats);
  w("has_stats", snap.stats.has_value());
  if (snap.stats.has_value()) SnapshotSerde::encode_stats(w, *snap.stats);

  w.u8(kTagCursors);
  w("next_addr", snap.next_addr);
  w("spawned", snap.spawned);
  w("finished", snap.finished);
  w("started", snap.started);

  w.u8(kTagQueueWords);
  w("host_words", host_words);

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

  if (!r.tag(kTagConfig)) return false;
  r("config", snap.cfg);
  if (!r.ok || snap.cfg.cores < 1) return false;
  const int cores = snap.cfg.cores;

  if (!r.tag(kTagEngine)) return false;
  r("engine", snap.engine);

  if (!r.tag(kTagNet)) return false;
  r("net", snap.net);

  if (!r.tag(kTagLines) || !SnapshotSerde::decode_lines(r, snap.lines, cores)) {
    return false;
  }
  r("directory", snap.directory);

  if (!r.tag(kTagCores)) return false;
  r("cores", snap.cores);
  if (!r.ok || snap.cores.size() != static_cast<std::size_t>(cores)) {
    return false;
  }

  bool have_stats = false;
  if (!r.tag(kTagStats)) return false;
  r("has_stats", have_stats);
  snap.stats.reset();
  if (have_stats) {
    snap.stats.emplace(cores);
    if (!SnapshotSerde::decode_stats(r, *snap.stats, cores)) return false;
  }

  if (!r.tag(kTagCursors)) return false;
  r("next_addr", snap.next_addr);
  r("spawned", snap.spawned);
  r("finished", snap.finished);
  r("started", snap.started);

  if (!r.tag(kTagQueueWords)) return false;
  r("host_words", host_words);

  if (!r.tag(kTagEnd)) return false;
  if (r.pos != body) return false;  // trailing garbage
  // The trace is debug state, deliberately not persisted: rebuild the
  // disabled ring a fresh machine of this config would carry.
  snap.trace = Trace(false, snap.cfg.trace_capacity);
  return true;
}

}  // namespace sbq::sim
