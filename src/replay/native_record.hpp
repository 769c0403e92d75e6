// Real-thread op recording over the native (host) queues (docs/replay.md).
//
// Runs the pairwise workload from bench/native_queues on T host threads —
// each thread alternates enqueue/dequeue — while stamping every operation
// with invocation and response tickets drawn from one global sequentially-
// consistent counter. The resulting intervals strictly contain each op's
// real execution, so any precedence the tickets prove (resp < inv) held in
// real time too: the HSV linearizability checker stays sound on these
// histories. A single-threaded drain after the threads join completes the
// history (every enqueued value dequeued), which VOrd/VWit need.
//
// Queues are named by queue_kind_name (queues/queue_kind.hpp), the
// simulator's vocabulary too, so a native trace replays directly as a sim
// workload (WF-Queue maps to the native FAA queue, its host twin). Each is
// built by with_native_queue (queues/native_lineup.hpp) for spec.threads.
#pragma once

#include <cstdint>
#include <string>

#include "replay/op_trace.hpp"

namespace sbq::replay {

struct NativeRecordSpec {
  int threads = 4;
  std::uint64_t pairs_per_thread = 256;  // enqueue+dequeue pairs per thread
  std::uint64_t seed = 1;                // recorded in the header (replay rng)
};

// Runs the recording workload on the queue queue_name names (one of
// queue_names()) and fills `out` (header + records, drained history).
// Returns false for an unknown queue name or an out-of-range spec.
bool record_native_queue(const std::string& queue_name,
                         const NativeRecordSpec& spec, OpTrace& out);

}  // namespace sbq::replay
