// The three workloads. One call is one repetition: it builds its starting
// state (timed as setup_s), measures a window of `window_s` seconds,
// checks the program's outputs and returns what it measured; `rep`
// numbers the repetition within a pass of `reps`. With a tracer it also
// records spans around every call it makes into a layer.

#ifndef PROVBENCH_WORKLOADS_H_
#define PROVBENCH_WORKLOADS_H_

#include "bench.h"

namespace provbench {

/// Closed-loop single-node durable ingest (IngestPipeline + ChainLog).
PassResult RunIotIngest(const Args& args, double window_s, size_t rep,
                        size_t reps, Tracer* tracer);
/// Open-loop writer plus two open-loop snapshot readers and the auditor.
PassResult RunQueryUnderIngest(const Args& args, double window_s, size_t rep,
                               size_t reps, Tracer* tracer);
/// Closed-loop commits on a 4-node raft cluster plus lineage proofs.
PassResult RunReplicatedCommit(const Args& args, double window_s, size_t rep,
                               size_t reps, Tracer* tracer);

}  // namespace provbench

#endif  // PROVBENCH_WORKLOADS_H_
