#include "prov/ingest_pipeline.h"

#include <algorithm>

#include "crypto/merkle.h"

namespace provledger {
namespace prov {

namespace {
// Per-shard queue capacity in records; Submit blocks (backpressure) when
// the target shard is full.
constexpr size_t kShardQueueCapacity = 4096;
// Prepared batches allowed to queue ahead of the committer.
constexpr size_t kCommitQueueCapacity = 8;
}  // namespace

IngestPipeline::IngestPipeline(ProvenanceStore* store,
                               IngestPipelineOptions options)
    : store_(store),
      options_(std::move(options)),
      nonce_(store->nonce()) {
  options_.shards = std::max<size_t>(1, options_.shards);
  options_.batch_size = std::max<size_t>(1, options_.batch_size);

  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  prepare_seconds_ = registry->GetHistogram(
      "ingest_stage_seconds", "Pipeline stage latency per drained batch",
      obs::LatencyBuckets(), {{"stage", "prepare"}});
  commit_seconds_ = registry->GetHistogram(
      "ingest_stage_seconds", "Pipeline stage latency per drained batch",
      obs::LatencyBuckets(), {{"stage", "commit"}});
  committed_total_ =
      registry->GetCounter("ingest_records_total", "Records by final outcome",
                           {{"result", "committed"}});
  failed_total_ =
      registry->GetCounter("ingest_records_total", "Records by final outcome",
                           {{"result", "failed"}});

  shards_.reserve(options_.shards);
  queue_depth_gauges_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    queue_depth_gauges_.push_back(registry->GetGauge(
        "ingest_shard_queue_depth", "Records waiting in each shard queue",
        {{"shard", std::to_string(i)}}));
  }
  active_shards_.store(options_.shards, std::memory_order_release);
  // Workers only start once every shard exists: a worker never touches a
  // sibling shard, but Submit may hash to any of them immediately.
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { ShardLoop(i); });
  }
  committer_ = std::thread([this] { CommitterLoop(); });
}

IngestPipeline::~IngestPipeline() {
  // A destructor cannot report a failed final flush — call Close()
  // yourself (the header's drain contract) to observe it; records it
  // could not commit stay refusable/dedupable in the store either way.
  (void)Close();
}

size_t IngestPipeline::ShardFor(const std::string& subject) {
  std::lock_guard<std::mutex> lock(partition_mu_);
  return subjects_.Intern(subject) % shards_.size();
}

Status IngestPipeline::Submit(ProvenanceRecord record) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ingest pipeline is closed");
  }
  const size_t shard_index = ShardFor(record.subject);
  Shard& shard = *shards_[shard_index];
  bool was_empty;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.not_full.wait(lock, [&] {
      return shard.queue.size() < kShardQueueCapacity ||
             stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("ingest pipeline is closed");
    }
    was_empty = shard.queue.empty();
    shard.queue.push_back(std::move(record));
    queue_depth_gauges_[shard_index]->Set(
        static_cast<int64_t>(shard.queue.size()));
  }
  // Incremented only after the record is safely enqueued, so a Flush that
  // observes this count is guaranteed to drain the record.
  submitted_.fetch_add(1, std::memory_order_release);
  // A worker never sleeps on a non-empty queue (its wait predicate), so
  // only the empty -> non-empty transition needs a wakeup.
  if (was_empty) shard.not_empty.notify_one();
  return Status::OK();
}

Status IngestPipeline::SubmitBatch(std::vector<ProvenanceRecord> records) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ingest pipeline is closed");
  }
  // Partition first (one pass over the intern table), then take each
  // shard's lock once for its whole group.
  const size_t total = records.size();
  std::vector<std::vector<ProvenanceRecord>> groups(shards_.size());
  {
    std::lock_guard<std::mutex> lock(partition_mu_);
    for (auto& record : records) {
      size_t idx = subjects_.Intern(record.subject) % shards_.size();
      groups[idx].push_back(std::move(record));
    }
  }
  size_t accepted = 0;
  for (size_t idx = 0; idx < groups.size(); ++idx) {
    auto& group = groups[idx];
    if (group.empty()) continue;
    Shard& shard = *shards_[idx];
    size_t pushed = 0;
    bool notify = false;
    while (pushed < group.size()) {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.not_full.wait(lock, [&] {
        return shard.queue.size() < kShardQueueCapacity ||
               stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) {
        // Records already enqueued (this group's `pushed` plus every
        // earlier group) were accepted and will still drain during Close;
        // only the remainder is refused. Report the split so the caller
        // can account for the partial acceptance.
        return Status::FailedPrecondition(
            "ingest pipeline is closed; accepted " +
            std::to_string(accepted + pushed) + "/" +
            std::to_string(total) +
            " records before shutdown (they will still be drained; commit "
            "subject to per-record validation/dedup)");
      }
      if (shard.queue.empty()) notify = true;
      while (pushed < group.size() &&
             shard.queue.size() < kShardQueueCapacity) {
        shard.queue.push_back(std::move(group[pushed]));
        ++pushed;
        submitted_.fetch_add(1, std::memory_order_release);
      }
      queue_depth_gauges_[idx]->Set(static_cast<int64_t>(shard.queue.size()));
      lock.unlock();
      if (notify) {
        shard.not_empty.notify_one();
        notify = false;
      }
    }
    accepted += pushed;
  }
  return Status::OK();
}

void IngestPipeline::ShardLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<ProvenanceRecord> popped;
  std::vector<PreparedRecord> batch;
  batch.reserve(options_.batch_size);
  // Worker-local scratch buffers, reused across every record/batch this
  // shard ever prepares: the transaction-encoding scratch and the Merkle
  // leaf vector stop allocating once their steady-state capacity is hit.
  Encoder scratch;
  std::vector<crypto::Digest> leaves;
  leaves.reserve(options_.batch_size);
  // The flush baseline is the construction-time generation (1), NOT a
  // fresh load: this worker thread may first run long after construction,
  // by which time a Flush may already have bumped the generation — a
  // fresh load would swallow that flush and strand its records in the
  // partial batch while Flush waits forever.
  uint64_t seen_flush_gen = 1;

  for (;;) {
    bool push_partial = false;
    bool exiting = false;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.not_empty.wait(lock, [&] {
        return !shard.queue.empty() ||
               stopping_.load(std::memory_order_acquire) ||
               flush_gen_.load(std::memory_order_acquire) != seen_flush_gen;
      });
      const size_t want = options_.batch_size - batch.size();
      while (!shard.queue.empty() && popped.size() < want) {
        popped.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      queue_depth_gauges_[shard_index]->Set(
          static_cast<int64_t>(shard.queue.size()));
      // Only acknowledge a flush (or exit) once the queue is fully
      // drained — the partial batch pushed below must carry everything
      // submitted before the flush.
      if (shard.queue.empty()) {
        const uint64_t gen = flush_gen_.load(std::memory_order_acquire);
        if (gen != seen_flush_gen) {
          seen_flush_gen = gen;
          push_partial = true;
        }
        if (stopping_.load(std::memory_order_acquire)) {
          push_partial = true;
          exiting = true;
        }
      }
    }
    shard.not_full.notify_all();

    // The heavy lifting — validation, anonymization, serialization, both
    // SHA-256 digests — happens here, outside every lock, concurrently
    // across shards.
    if (!popped.empty()) {
      obs::ScopedTimer prepare_timer(prepare_seconds_);
      for (auto& record : popped) {
        const uint64_t nonce =
            nonce_.fetch_add(1, std::memory_order_relaxed) + 1;
        auto prepared = store_->PrepareRecord(std::move(record), nonce,
                                              options_.signer, &scratch);
        if (!prepared.ok()) {
          NoteFailure(1, prepared.status());
          NoteProcessed(1);
          continue;
        }
        batch.push_back(std::move(prepared).value());
      }
      popped.clear();
    }

    if (batch.size() >= options_.batch_size ||
        (push_partial && !batch.empty())) {
      // Even the digest-level Merkle tree is built here, off the
      // committer thread; the committer only sequences.
      PreparedBatch prepared;
      leaves.clear();
      for (const auto& record : batch) leaves.push_back(record.leaf);
      prepared.merkle_root = crypto::MerkleTree::BuildFromDigests(leaves).root();
      prepared.records = std::move(batch);
      EnqueueBatch(std::move(prepared));
      batch.clear();
      batch.reserve(options_.batch_size);
    }
    if (exiting) break;
  }

  // Last worker out tells the committer no more batches can arrive.
  if (active_shards_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(commit_mu_);
    commit_not_empty_.notify_all();
  }
}

void IngestPipeline::EnqueueBatch(PreparedBatch&& batch) {
  {
    std::unique_lock<std::mutex> lock(commit_mu_);
    commit_not_full_.wait(lock, [&] {
      return commit_queue_.size() < kCommitQueueCapacity ||
             stopping_.load(std::memory_order_acquire);
    });
    // On shutdown the batch is enqueued regardless: the committer drains
    // the queue completely before exiting, so nothing is lost.
    commit_queue_.push_back(std::move(batch));
  }
  commit_not_empty_.notify_one();
}

void IngestPipeline::CommitterLoop() {
  for (;;) {
    PreparedBatch batch;
    bool have_batch = false;
    {
      std::unique_lock<std::mutex> lock(commit_mu_);
      commit_not_empty_.wait(lock, [&] {
        return !commit_queue_.empty() ||
               (stopping_.load(std::memory_order_acquire) &&
                active_shards_.load(std::memory_order_acquire) == 0);
      });
      if (!commit_queue_.empty()) {
        batch = std::move(commit_queue_.front());
        commit_queue_.pop_front();
        have_batch = true;
      }
    }
    if (!have_batch) return;  // stopping, shards done, queue drained
    commit_not_full_.notify_all();

    if (batch.records.empty()) {
      // Publish marker (Flush with publish_on_flush): snapshot the graph
      // between commits, where its state is a batch boundary.
      Status published = store_->PublishSnapshot();
      if (!published.ok()) NoteFailure(0, std::move(published));
      snapshots_published_.fetch_add(1, std::memory_order_acq_rel);
      std::lock_guard<std::mutex> lock(drain_mu_);
      drained_.notify_all();
      continue;
    }

    const size_t batch_records = batch.records.size();
    size_t committed_records = 0;
    Status committed;
    {
      obs::ScopedTimer commit_timer(commit_seconds_);
      committed = store_->AnchorPrepared(&batch, &committed_records);
      if (!committed.ok() && !batch.records.empty()) {
        // The chain refused the block and handed the batch back (e.g. a
        // transient durability-sink error). One immediate retry covers
        // blips; a persistent fault fails the records loudly rather than
        // looping forever.
        committed = store_->AnchorPrepared(&batch, &committed_records);
      }
    }
    committed_.fetch_add(committed_records, std::memory_order_acq_rel);
    committed_total_->Increment(committed_records);
    if (!committed.ok()) {
      NoteFailure(batch_records - committed_records, std::move(committed));
    } else if (committed_records < batch_records) {
      // Rare corner: first attempt dropped duplicates AND hit a chain
      // refusal, then the retry landed — the dup error was superseded,
      // but the dropped records must still count as failed.
      NoteFailure(batch_records - committed_records,
                  Status::AlreadyExists(
                      "duplicate records dropped during retried commit"));
    }
    const uint64_t batches =
        batches_committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (options_.snapshot_every_batches > 0 &&
        batches % options_.snapshot_every_batches == 0) {
      Status published = store_->PublishSnapshot();
      if (!published.ok()) NoteFailure(0, std::move(published));
      snapshots_published_.fetch_add(1, std::memory_order_acq_rel);
    }
    NoteProcessed(batch_records);
  }
}

void IngestPipeline::NoteFailure(size_t n, Status status) {
  failed_.fetch_add(n, std::memory_order_acq_rel);
  failed_total_->Increment(n);
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = std::move(status);
}

void IngestPipeline::NoteProcessed(size_t n) {
  processed_.fetch_add(n, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(drain_mu_);
  drained_.notify_all();
}

Status IngestPipeline::first_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

Status IngestPipeline::Flush() {
  std::lock_guard<std::mutex> serialize(flush_mu_);
  return FlushLocked();
}

Status IngestPipeline::FlushLocked() {
  // Close() holds flush_mu_ across its entire shutdown (flush, stop,
  // join), so observing joined_ here means the committer is gone and
  // everything already drained — enqueueing a publish marker now would
  // wait on a consumer that no longer exists.
  if (joined_) return close_status_;
  const uint64_t target = submitted_.load(std::memory_order_acquire);
  flush_gen_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->not_empty.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drained_.wait(lock, [&] {
      return processed_.load(std::memory_order_acquire) >= target;
    });
  }
  if (options_.publish_on_flush) {
    const uint64_t before =
        snapshots_published_.load(std::memory_order_acquire);
    EnqueueBatch({});
    std::unique_lock<std::mutex> lock(drain_mu_);
    drained_.wait(lock, [&] {
      return snapshots_published_.load(std::memory_order_acquire) > before;
    });
  }
  return first_error();
}

Status IngestPipeline::Close() {
  std::lock_guard<std::mutex> serialize(close_mu_);
  if (joined_) return close_status_;
  closed_.store(true, std::memory_order_release);
  // flush_mu_ is held through stop-and-join so a concurrent Flush()
  // either completes fully before shutdown begins or starts after
  // joined_ is set and returns immediately.
  std::lock_guard<std::mutex> flush_serialize(flush_mu_);
  // Drain everything submitted before (or racing) the close.
  Status flushed = FlushLocked();

  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->not_empty.notify_all();
      shard->not_full.notify_all();
    }
  }
  for (auto& shard : shards_) shard->worker.join();
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    commit_not_empty_.notify_all();
    commit_not_full_.notify_all();
  }
  committer_.join();

  joined_ = true;
  close_status_ = flushed.ok() ? first_error() : flushed;
  return close_status_;
}

}  // namespace prov
}  // namespace provledger
