// Stable binary serialization of MachineSnapshot.
//
// A snapshot captured by Machine::snapshot() is a plain value; this module
// turns it into a versioned little-endian blob and back. A forked machine
// built from a decoded snapshot, running a copy of the warmed queue rebound
// to it, replays byte-identically to one forked from the in-memory snapshot
// (gated by tests/snapshot_serde_test.cpp and the
// perf_sim_alloc_gate_snapshot leg of sim_microbench). The queue's host
// words ride along in the blob and must decode to the saved list; nothing
// rebuilds a queue from them. Nothing persists the blobs: sweeps fork
// repeats from the in-memory snapshot, and the codec's cost is timed by the
// benchmark harness (docs/performance.md "Why there is no on-disk snapshot
// cache").
//
// Format: magic + schema version + caller key, then u8-tagged sections
// (config, engine checkpoint, interconnect, line table + directory, cores,
// stats, allocator cursor, queue host words), then an FNV-1a checksum over
// every preceding byte. A section's fields, and their order, are its
// structs' field lists (sim/types.hpp "Field lists"). Explicit section tags plus the version stamp mean a
// schema bump *rejects* old blobs instead of misreading them; decode never
// throws — any structural problem (truncation, corruption, stale version,
// foreign key) returns false.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace sbq::sim {

// Bump on ANY change to the encoding or to the schedule-visible state it
// captures (new MachineConfig fields, State-struct layout changes, …).
// Stale-version blobs are rejected at decode.
inline constexpr std::uint32_t kSnapshotSchemaVersion = 10;

// FNV-1a64 digest of `cfg`'s canonical encoding: a config identity for
// artifacts and blob keys. Because it hashes the exact bytes the blob's
// config section carries, any config field that affects the encoding
// automatically affects the digest; there is no second field list to drift.
std::uint64_t machine_config_digest(const MachineConfig& cfg);

// Encode `snap` (plus the owning queue's host-side words, from its
// save_host_state) into a self-checking blob stamped with `key`. Returns an
// empty vector when the snapshot holds unserializable state (a trace ring).
std::vector<std::uint8_t> encode_snapshot_blob(
    const MachineSnapshot& snap, const std::vector<std::uint64_t>& host_words,
    std::uint64_t key);

// Decode a blob produced by encode_snapshot_blob under the same schema
// version and `key`. On success fills `snap` + `host_words` and returns
// true; on any mismatch (magic, version, key, checksum, truncation, section
// shape) returns false, and the outputs' contents must not be trusted.
bool decode_snapshot_blob(const std::vector<std::uint8_t>& blob,
                          std::uint64_t key, MachineSnapshot& snap,
                          std::vector<std::uint64_t>& host_words);

}  // namespace sbq::sim
