// Sharded, pipelined provenance ingest — the concurrency leg of the
// capture path. Run inline (Anchor/AnchorBatch), the store's write path
// makes every producer wait out validation, serialization, two SHA-256
// passes, Merkle-tree construction, and graph indexing per record; under
// capture rates like SciChain's scientific workflows or Sigwart-style IoT
// sensor fleets, that one thread is the whole system's ceiling.
//
// The pipeline splits the work by cost class:
//
//   producers ──▶ shard queues ──▶ shard workers ──▶ commit queue ──▶ committer
//   (any thread)  (bounded,        (validate,         (bounded,        (one thread:
//                  partitioned by   anonymize,         batches)         block build from
//                  interned         serialize,                          cached digests,
//                  subject id)      hash: the                           graph + index
//                                   per-record                          append, epoch
//                                   heavy lifting)                      publication)
//
// Records are partitioned across shard queues by their *interned subject
// id*, so all records of one subject flow through one shard in submission
// order — per-subject history stays in order without any cross-shard
// coordination, and the graph's time-sorted postings lists stay sorted on
// the cheap append path. Producers block only on queue backpressure, never
// on Merkle computation, fsync, or indexing. The committer is the sole
// thread touching the store/chain/graph, so those stay single-threaded
// internally (their documented contract) while the expensive per-record
// work runs concurrently on the shard workers.
//
// Readers never wait on any of this: the committer periodically publishes
// immutable graph epochs (prov/snapshot.h) that queries run against.

#ifndef PROVLEDGER_PROV_INGEST_PIPELINE_H_
#define PROVLEDGER_PROV_INGEST_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "prov/intern.h"
#include "prov/store.h"

namespace provledger {
namespace prov {

/// \brief Pipeline configuration.
struct IngestPipelineOptions {
  /// Shard queues / preparation workers. 1 still pipelines (producers
  /// overlap with preparation and commit); more shards add preparation
  /// parallelism up to the core count.
  size_t shards = 4;
  /// Records per committed block. Larger batches amortize per-block cost
  /// (header hash, Merkle tree levels, block-sink write) at the price of
  /// commit latency.
  size_t batch_size = 256;
  /// Per-shard queue capacity in records; Submit blocks (backpressure)
  /// when the target shard is full.
  size_t shard_queue_capacity = 4096;
  /// Prepared batches allowed to queue ahead of the committer.
  size_t commit_queue_capacity = 8;
  /// Publish a graph snapshot epoch after every N committed batches
  /// (0 = only on Flush/Close when publish_on_flush is set). Publication
  /// costs O(graph), so keep N coarse under heavy write load.
  size_t snapshot_every_batches = 0;
  /// Publish a fresh epoch at the end of every successful Flush()/Close().
  bool publish_on_flush = false;
  /// Sign every anchoring transaction with this key (user-direct capture);
  /// nullptr = system transactions. The key must outlive the pipeline.
  const crypto::PrivateKey* signer = nullptr;
  /// Metric registry for the stage timers, queue-depth gauges, and record
  /// outcome counters (nullptr = obs::Registry::Default()).
  obs::Registry* registry = nullptr;
};

/// \brief Multi-producer sharded ingest front-end for a ProvenanceStore.
///
/// Thread safety: Submit() is safe from any number of producer threads
/// concurrently (that is the point). Flush(), Close(), and the stats
/// accessors are also safe from any thread. The pipeline assumes it is
/// the *only* writer to the store for its lifetime: do not call the
/// store's own mutating methods (Anchor/AnchorBatch/Invalidate/...) while a
/// pipeline is attached, and do not run live store queries concurrently —
/// read through snapshots (ProvenanceStore::AcquireSnapshot) instead.
/// The store's clock must be thread-safe (SystemClock is; a test clock
/// must not be advanced mid-ingest without external coordination).
class IngestPipeline {
 public:
  /// Starts `shards` preparation workers plus one committer thread.
  /// `store` must outlive the pipeline.
  explicit IngestPipeline(ProvenanceStore* store,
                          IngestPipelineOptions options =
                              IngestPipelineOptions());
  /// Closes the pipeline (drains and joins) if Close() was not called.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Hand a record to the pipeline. Returns quickly: the record is queued
  /// on its subject's shard and prepared/committed asynchronously —
  /// per-record failures surface through failed()/first_error(), not
  /// here. Blocks only when the shard queue is full (backpressure).
  /// FailedPrecondition after Close(). Safe from any thread.
  Status Submit(ProvenanceRecord record) PROV_EXCLUDES(partition_mu_);

  /// Bulk Submit: partitions `records` across shards and takes each shard
  /// lock once per group instead of once per record — the cheap way to
  /// feed a high-rate producer. Same per-record semantics and ordering
  /// guarantees as calling Submit in order, with one exception: if the
  /// call races Close(), records enqueued before the pipeline began
  /// stopping are accepted — they drain during Close, committing unless
  /// per-record validation/dedup drops them (surfaced via failed() /
  /// first_error(), as for any Submit) — while the
  /// rest are refused and dropped. The FailedPrecondition message reports
  /// the accepted/total split, but because records are regrouped by shard
  /// before enqueueing, the accepted subset is NOT a prefix (or any
  /// caller-determinable subset) of the input — to recover, resubmit the
  /// whole batch to a new pipeline and rely on the store's per-record-id
  /// dedup to refuse the already-committed ones. Safe from any thread.
  Status SubmitBatch(std::vector<ProvenanceRecord> records)
      PROV_EXCLUDES(partition_mu_);

  /// Wait until everything submitted before this call is either committed
  /// or counted failed, forcing partial batches through. Returns
  /// first_error() as of completion (OK when every record landed). Safe
  /// from any thread; concurrent Flush() calls serialize, and a Flush
  /// after (or racing) Close() returns Close()'s result instead of
  /// waiting on stopped workers.
  Status Flush() PROV_EXCLUDES(flush_mu_);

  /// Flush, stop every worker, and join. Idempotent; Submit() fails
  /// afterwards. Returns the final first_error(). Safe from any thread
  /// (first caller wins; the rest see the same result).
  Status Close() PROV_EXCLUDES(close_mu_, flush_mu_);

  /// \name Statistics (atomic reads; safe from any thread, monotonic).
  /// @{
  /// Records accepted by Submit().
  uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
  /// Records anchored on-chain and indexed.
  uint64_t committed() const { return committed_.load(std::memory_order_relaxed); }
  /// Records dropped (validation/preparation failure, duplicate id,
  /// chain refusal that survived the retry, or indexing failure after an
  /// on-chain commit).
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  /// Blocks appended (== prepared batches committed).
  uint64_t batches_committed() const {
    return batches_committed_.load(std::memory_order_relaxed);
  }
  /// Epoch publications performed by this pipeline (PublishSnapshot
  /// cannot currently fail; should a future publish path report an
  /// error, the attempt still counts here — Flush's publish handshake
  /// keys off this counter — and the error lands in first_error()).
  uint64_t snapshots_published() const {
    return snapshots_published_.load(std::memory_order_relaxed);
  }
  /// @}

  /// First error any stage hit since construction (OK if none). Later
  /// errors are counted in failed() but not retained. Safe from any
  /// thread.
  Status first_error() const PROV_EXCLUDES(error_mu_);

 private:
  /// A bounded MPSC record queue owned by one shard worker.
  struct Shard {
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<ProvenanceRecord> queue PROV_GUARDED_BY(mu);
    std::thread worker;
  };

  /// Shard index for `subject`: interned id modulo shard count, so a
  /// subject's shard is stable for the pipeline's lifetime. Interning
  /// (vs a stateless string hash) costs one short mutex hold per
  /// Submit — SubmitBatch amortizes it — and one retained copy of each
  /// distinct subject string, and buys skew-free shard balance: dense
  /// first-seen ids deal subjects round-robin however the subject
  /// namespace clusters.
  size_t ShardFor(const std::string& subject);
  void ShardLoop(size_t shard_index);
  /// Flush with flush_mu_ already held (shared by Flush and Close).
  Status FlushLocked() PROV_REQUIRES(flush_mu_);
  void CommitterLoop();
  /// Push a prepared batch to the committer (blocks on backpressure).
  void EnqueueBatch(PreparedBatch&& batch);
  /// Record a stage failure: count `n` records failed and keep the first
  /// error status.
  void NoteFailure(size_t n, Status status);
  /// Mark `n` records fully processed and wake Flush waiters.
  void NoteProcessed(size_t n);

  ProvenanceStore* store_;
  IngestPipelineOptions options_;

  // Subject partitioning: interned subject id -> shard. Guarded; touched
  // once per Submit.
  std::mutex partition_mu_;
  InternTable subjects_ PROV_GUARDED_BY(partition_mu_);

  std::vector<std::unique_ptr<Shard>> shards_;

  // Commit queue: prepared batches in hand-off order.
  std::mutex commit_mu_;
  std::condition_variable commit_not_empty_;
  std::condition_variable commit_not_full_;
  std::deque<PreparedBatch> commit_queue_ PROV_GUARDED_BY(commit_mu_);
  std::thread committer_;

  // Lifecycle. closed_: no new Submits; stopping_: workers exit once
  // their queues drain. active_shards_ keeps the committer alive until
  // every shard worker has pushed its final partial batch.
  std::atomic<bool> closed_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> active_shards_{0};
  std::atomic<uint64_t> flush_gen_{1};
  // Lock order: close_mu_ before flush_mu_. Close() holds both across
  // the whole shutdown; joined_/close_status_ are written under both, so
  // holding either suffices to read them. (The capability annotation can
  // name only one lock — close_mu_, the outer one; Flush()'s read under
  // flush_mu_ alone is the documented exception.)
  std::mutex flush_mu_;   // serializes Flush()
  std::mutex close_mu_;   // serializes Close()
  bool joined_ PROV_GUARDED_BY(close_mu_) = false;
  Status close_status_ PROV_GUARDED_BY(close_mu_);

  // Drain accounting: processed_ == submitted_ means nothing is in
  // flight. cv guarded by drain_mu_.
  std::mutex drain_mu_;
  std::condition_variable drained_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> processed_{0};

  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> batches_committed_{0};
  std::atomic<uint64_t> snapshots_published_{0};
  std::atomic<uint64_t> nonce_;

  mutable std::mutex error_mu_;
  Status first_error_ PROV_GUARDED_BY(error_mu_);

  // Cached registry cells (resolved once in the constructor; the gauges
  // are per shard, parallel to shards_).
  obs::Histogram* prepare_seconds_;
  obs::Histogram* commit_seconds_;
  obs::Counter* committed_total_;
  obs::Counter* failed_total_;
  std::vector<obs::Gauge*> queue_depth_gauges_;
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_INGEST_PIPELINE_H_
