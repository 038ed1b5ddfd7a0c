// ProvenanceStore: binds provenance records to the blockchain and maintains
// the query indexes + in-memory PROV graph. This is the "unified solution
// that can thoroughly capture, extract, and query provenance" whose absence
// §3.1 of the paper identifies.
//
//   * Anchor()/AnchorBatch() — anchor records, one block per call
//   * PrepareRecord() + AnchorPrepared() — the same write path in two
//                       phases, so the ingest pipeline can prepare off the
//                       commit thread
//   * GetRecord()     — point lookup through the graph's record ids
//   * Execute()       — composable index-planned queries (prov/query.h)
//   * SubjectHistory()/ByAgent()/Lineage() — fixed-shape wrappers
//   * ProveRecord()   — Merkle inclusion proof (auditor / light client),
//                       from a txid column indexed by the graph's dense
//                       record id
//   * RebuildFromChain() — recover all state purely from the ledger
//   * hash_agent_ids  — ProvChain's privacy mode: agents appear on-chain
//                       only as keyed hashes, preventing user correlation

#ifndef PROVLEDGER_PROV_STORE_H_
#define PROVLEDGER_PROV_STORE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_set>

#include "ledger/chain.h"
#include "obs/metrics.h"
#include "prov/graph.h"
#include "prov/snapshot.h"

namespace provledger {
namespace prov {

/// \brief Store configuration.
struct ProvenanceStoreOptions {
  /// Ledger channel records are anchored on.
  std::string channel = "prov";
  /// ProvChain privacy mode: replace `agent` with HMAC(anon_key, agent) at
  /// anchor time so on-chain entries cannot be correlated to users.
  bool hash_agent_ids = false;
  /// Key for agent-id hashing (only used when hash_agent_ids).
  Bytes anonymization_key = {0x42};
  /// Block proposer identity used for anchored blocks.
  std::string proposer = "prov-store";
  /// Metric registry for query/anchor instrumentation (nullptr = the
  /// process-wide obs::Registry::Default()). Inject a private instance to
  /// scrape one store in isolation (per-node registries in replication
  /// tests do exactly this).
  obs::Registry* registry = nullptr;
};

/// \brief A record whose expensive anchoring work — validation,
/// anonymization, serialization, transaction digests — already happened,
/// off the commit path. PrepareRecord builds these on ingest-pipeline
/// shard threads; AnchorPrepared commits them without re-hashing a byte.
struct PreparedRecord {
  /// Validated record, agent already rewritten to its on-chain id.
  ProvenanceRecord record;
  /// The anchoring transaction (payload = encoded record, nonce assigned).
  ledger::Transaction tx;
  /// Cached Transaction::Id() of `tx`.
  crypto::Digest txid;
  /// Cached Merkle leaf digest of `tx`'s canonical encoding.
  crypto::Digest leaf;
};

/// \brief A commit-ready group of prepared records, optionally carrying
/// the Merkle root over their leaf digests (in order) so even the
/// digest-level tree build happens off the committer thread. The root is
/// only usable when the batch commits exactly as prepared — dropping a
/// duplicate falls back to rebuilding from the surviving leaves.
/// AnchorPrepared consumes both fields: after it returns, the root is
/// present only on a chain-refusal hand-back where the handed-back
/// records still match it exactly, so a PreparedBatch can be reused
/// (refilled) without a stale root leaking into a later block.
struct PreparedBatch {
  std::vector<PreparedRecord> records;
  std::optional<crypto::Digest> merkle_root;
};

/// \brief Ledger-backed provenance store.
///
/// Thread safety: NOT internally synchronized — one thread (or external
/// locking) must own every mutating and live-querying call; the ingest
/// pipeline satisfies this by funnelling all of them through its single
/// committer thread. Three members are the deliberate exceptions, safe
/// from any thread with no lock:
///   * PrepareRecord()    — pure function of its inputs + immutable options
///   * AcquireSnapshot()  — one atomic shared_ptr load
///   * snapshot_epoch()   — one atomic read
class ProvenanceStore {
 public:
  ProvenanceStore(ledger::Blockchain* chain, Clock* clock,
                  ProvenanceStoreOptions options = ProvenanceStoreOptions());

  /// Anchor one record in its own block: AnchorBatch of one. Pass a
  /// signer to produce a signed transaction (user-direct capture path).
  Status Anchor(const ProvenanceRecord& record,
                const crypto::PrivateKey* signer = nullptr);
  /// Validate, (optionally) anonymize and anchor `records` in one block,
  /// all or nothing up to the block: an invalid record, an id already
  /// anchored, or an id repeated within the batch fails the call before
  /// any nonce is used, and a chain refusal anchors nothing. Once the
  /// block is on the chain, *every* record is indexed even if some fail —
  /// an on-chain record must never be invisible to queries — and the
  /// per-record failures come back aggregated as one Internal status.
  /// Runs the pipeline's write path inline: PrepareRecord per record, then
  /// AnchorPrepared.
  Status AnchorBatch(const std::vector<ProvenanceRecord>& records,
                     const crypto::PrivateKey* signer = nullptr);

  /// \name Prepared (pipelined) ingest.
  /// The two phases of the one write path, split for prov::IngestPipeline
  /// (AnchorBatch runs both inline): preparation is the per-record heavy
  /// lifting and runs concurrently on shard threads; committing is cheap
  /// sequencing and runs on one committer thread.
  /// @{
  /// Validate, (optionally) anonymize, serialize, and hash `record` into
  /// a PreparedRecord carrying its anchoring transaction. Thread-safe
  /// const: touches only immutable options and the clock — never graph or
  /// index state, so duplicate detection waits until AnchorPrepared.
  /// `nonce` must be unique per transaction (the pipeline issues them
  /// from one atomic counter seeded past the store's own).
  /// `scratch` (optional) is a caller-owned reusable encoder the
  /// transaction encoding is built in — on the IoT hot path of tiny
  /// records, a worker-thread-local scratch kills the per-record heap
  /// allocation of that temporary (its capacity stabilizes after a few
  /// records). Contents are clobbered; the caller must not read them.
  Result<PreparedRecord> PrepareRecord(ProvenanceRecord&& record,
                                       uint64_t nonce,
                                       const crypto::PrivateKey* signer =
                                           nullptr,
                                       Encoder* scratch = nullptr) const;
  /// Anchor a prepared batch as one block, reusing every cached digest
  /// (no re-encode, no re-hash; see Blockchain::AppendPrepared) and the
  /// batch's precomputed Merkle root when it is intact.
  /// Committer/writer thread only. Records already anchored or duplicated
  /// within the batch are dropped *before* the block forms and reported
  /// via the returned status; the rest commit. As in AnchorBatch, once the
  /// block is on the chain every surviving record is indexed even past
  /// per-record indexing failures (aggregated Internal). `committed`
  /// (optional) receives the number of records that fully landed —
  /// on-chain AND indexed.
  /// `*batch` is consumed on commit; if the *chain refuses the block*
  /// (validation, durability-sink error) it is handed back intact (minus
  /// dropped duplicates) so the caller can retry without losing a record.
  Status AnchorPrepared(PreparedBatch* batch, size_t* committed = nullptr);
  /// Convenience overload without a precomputed root; the batch is
  /// consumed even on chain refusal (no retry hand-back).
  Status AnchorPrepared(std::vector<PreparedRecord> records,
                        size_t* committed = nullptr) {
    PreparedBatch batch;
    batch.records = std::move(records);
    return AnchorPrepared(&batch, committed);
  }
  /// @}

  /// \name Snapshot-isolated reads (epoch publication).
  /// The writer publishes immutable epochs; readers acquire them lock-free
  /// and query away while writes continue. See prov/snapshot.h for the
  /// full model.
  /// @{
  /// Publish the current graph as a new immutable epoch. Writer/committer
  /// thread only (it reads live graph state); the publication itself is an
  /// atomic pointer swap, so readers never see a half-built snapshot. Cost
  /// is O(rows committed since the last publication + one row group): the
  /// new rows are encoded into the open row group, sealed groups are
  /// shared with earlier epochs and only the open group is copied (see
  /// prov/snapshot.h). Each call records `snapshot_publish_seconds` and
  /// `snapshot_publish_bytes` (bytes encoded or copied) in the registry.
  Status PublishSnapshot();
  /// Latest published epoch, or nullptr before the first publication.
  /// Wait-free; safe from any thread. The returned snapshot stays valid
  /// (and unchanged) for as long as the pointer is held.
  std::shared_ptr<const GraphSnapshot> AcquireSnapshot() const;
  /// Epoch number of the latest publication (0 = none yet). Safe from any
  /// thread; readers use it to decide whether to re-acquire.
  uint64_t snapshot_epoch() const {
    return snapshot_epoch_.load(std::memory_order_acquire);
  }
  /// @}

  /// Point lookup by record id.
  Result<ProvenanceRecord> GetRecord(const std::string& record_id) const;
  /// True if the record id is anchored.
  bool HasRecord(const std::string& record_id) const;

  /// Execute a composable query over anchored records (planner-backed; see
  /// prov/query.h). In privacy mode, agent filters match on-chain ids —
  /// pass OnChainAgentId(agent).
  QueryResult Execute(const Query& query) const;
  /// Streaming overload: zero-copy visit of each match in order; the
  /// visitor returns false to stop early. Returns records visited. The
  /// visitor must not anchor/flush/invalidate through this store — the
  /// scan holds pointers into the graph's index vectors.
  size_t Execute(const Query& query,
                 const std::function<bool(const ProvenanceRecord&)>& visit)
      const;
  /// EXPLAIN: plan `query` against the live graph and report the planner's
  /// index choice, candidate estimate vs actual rows scanned/matched, and
  /// per-phase timing — without materializing any record (see
  /// QueryExplain). Same threading contract as Execute().
  QueryExplain Explain(const Query& query) const;

  /// Exposition of this store's metric registry (the process-wide default
  /// unless one was injected): every metric every instrumented layer
  /// registered there, in Prometheus text or JSON form. Safe from any
  /// thread.
  std::string MetricsSnapshot(
      obs::ExpositionFormat format =
          obs::ExpositionFormat::kPrometheusText) const;
  /// The registry this store records into.
  obs::Registry* registry() const { return registry_; }

  /// \name Fixed-shape queries (thin wrappers over Execute()).
  /// @{
  /// All records for a subject, in time order.
  std::vector<ProvenanceRecord> SubjectHistory(
      const std::string& subject) const;
  /// All records by an agent (pass the anonymized id in privacy mode).
  std::vector<ProvenanceRecord> ByAgent(const std::string& agent) const;
  /// Records with timestamp in the inclusive [from, to] window.
  std::vector<ProvenanceRecord> InRange(Timestamp from, Timestamp to) const;
  /// Ancestor entities of `entity` (delegates to the PROV graph).
  std::vector<std::string> Lineage(const std::string& entity) const;
  /// @}

  /// The agent id as it appears on-chain (identity unless privacy mode).
  std::string OnChainAgentId(const std::string& agent) const;

  /// Id of the transaction that anchored `record_id` (NotFound when the
  /// record is not anchored). The audit layer's lineage-proof builder uses
  /// this to walk from records back to their on-chain transactions.
  Result<crypto::Digest> RecordTxId(const std::string& record_id) const;

  /// Merkle inclusion proof of the record's anchoring transaction.
  Result<ledger::TxProof> ProveRecord(const std::string& record_id) const;
  /// Verify a record + proof against the chain (auditor path).
  bool VerifyRecordProof(const ProvenanceRecord& record,
                         const ledger::TxProof& proof) const;

  /// Index the prov/record transactions of the main-chain block at
  /// `height` — the follower apply path of the replication layer, where a
  /// block enters via Blockchain::SubmitBlock (full re-validation) rather
  /// than AnchorBatch()/AnchorPrepared(), so the store has not yet seen
  /// its records. RebuildFromChain and snapshot tail replay run the same
  /// step per block.
  /// Call once per height, in order, for blocks the store has not indexed;
  /// a block whose records are already indexed fails as duplicates.
  Status ApplyChainBlock(uint64_t height);

  /// Drop all local state and rebuild indexes + graph from the chain.
  /// A replay failure resets the store again (a partially rebuilt state
  /// is not kept). If an epoch was ever published, a fresh one is
  /// published from the resulting state — rebuilt on success, empty on
  /// failure — so readers cannot keep acquiring pre-rebuild state.
  Status RebuildFromChain();

  /// \name Snapshot persistence (durable restart path).
  /// A snapshot serializes the store's derived state — the graph's row
  /// groups (the same GraphImage an epoch publishes), the txid column
  /// (one raw 32-byte transaction id per graph row, ZeroDigest for a row
  /// the store did not anchor), anchored count and nonce — bound to the
  /// chain position it was taken at (height + block hash). Restart =
  /// LoadSnapshot + replay of the short chain tail past the snapshot
  /// height, instead of a full O(chain) RebuildFromChain. File format
  /// PLSNAP04; PLSNAP02 (whole-graph) and PLSNAP03 (rec/ index) files are
  /// retired formats.
  /// @{
  /// Atomically (temp file + rename) write a snapshot of the current
  /// anchored state.
  Status SaveSnapshot(const std::string& path) const;
  /// Restore from a snapshot, then replay chain blocks past the snapshot
  /// height. FailedPrecondition when the snapshot was taken on a different
  /// chain (block hash mismatch), past this chain's height, or in a
  /// retired file format — callers should fall back to RebuildFromChain
  /// (see Recover). Corruption for an unknown magic, a checksum mismatch,
  /// a row group that fails validation (prov/row_group.h) or a bad txid
  /// column (wrong row count or length). If an epoch was
  /// ever published, a fresh one is published afterwards — from the
  /// restored state on success, or from the reset (empty) state when a
  /// failure struck after the restore began mutating state (tail replay)
  /// — so readers never keep acquiring pre-restore state. Failures
  /// detected before any mutation (bad magic/checksum, wrong chain, bad
  /// height, invalid row groups, bad txid column) leave both the store
  /// and the published epoch untouched.
  Status LoadSnapshot(const std::string& path);
  /// Restart entry point: LoadSnapshot if `snapshot_path` holds a usable
  /// snapshot for this chain, otherwise a full RebuildFromChain. Corrupt
  /// snapshot *contents* still fail loudly rather than falling back.
  Status Recover(const std::string& snapshot_path);
  /// @}

  /// Auditor sweep: re-fetch and Merkle-verify every indexed record.
  /// Returns the number verified, or Corruption on the first mismatch.
  Result<size_t> AuditAll() const;

  const ProvenanceGraph& graph() const { return graph_; }
  /// Mutable graph access for invalidation workflows (SciBlock semantics
  /// operate on the store's shared graph so cross-workflow cascades work).
  ProvenanceGraph* mutable_graph() { return &graph_; }
  ledger::Blockchain* chain() { return chain_; }
  const ledger::Blockchain* chain() const { return chain_; }
  size_t anchored_count() const { return anchored_count_; }
  /// Highest transaction nonce issued or observed so far. The pipeline
  /// seeds its own atomic nonce counter from this at construction.
  uint64_t nonce() const { return nonce_; }

  const ProvenanceStoreOptions& options() const { return options_; }

 private:
  /// Add `record` to the graph and its txid to the column.
  Status IndexRecord(ProvenanceRecord&& record, const crypto::Digest& txid);
  /// Drop graph, txid column and counters.
  void ResetState();
  /// AlreadyExists if `record_id` is anchored or already in `batch_ids`;
  /// otherwise claims it there.
  Status CheckNewId(const std::string& record_id,
                    std::unordered_set<std::string>* batch_ids) const;
  /// Publish the current graph as a new epoch stamped as reflecting the
  /// chain up to `reflected_height` (PublishSnapshot passes the chain
  /// head; restore paths pass the height actually replayed).
  Status PublishSnapshotAt(uint64_t reflected_height);
  /// If an epoch was ever published, publish a fresh one from current
  /// state — restore paths call this so readers never keep acquiring a
  /// snapshot of pre-restore state.
  Status RepublishIfPublished(uint64_t reflected_height);

  ledger::Blockchain* chain_;
  Clock* clock_;
  ProvenanceStoreOptions options_;
  // Resolved registry + cells cached at construction; increments on the
  // query path are single relaxed adds on these.
  obs::Registry* registry_;
  obs::Counter* query_plans_[6] = {};  // indexed by QueryIndex
  obs::Histogram* query_seconds_;
  obs::Histogram* publish_seconds_;
  obs::Histogram* publish_bytes_;
  ProvenanceGraph graph_;
  // Id of the transaction that anchored each graph row, indexed by the
  // graph's dense record id. A row that entered the graph behind the
  // store's back (mutable_graph()) holds ZeroDigest.
  std::vector<crypto::Digest> txids_;
  size_t anchored_count_ = 0;
  uint64_t nonce_ = 0;
  // Latest published epoch; accessed with std::atomic_load/atomic_store so
  // AcquireSnapshot never locks. snapshot_epoch_ trails the pointer (it is
  // published second), so epoch N observed implies snapshot epoch >= N is
  // acquirable. Deliberately NOT PROV_GUARDED_BY anything (annotations.h):
  // there is no lock — publication IS the atomic_store, acquisition the
  // atomic_load; everything behind the pointer is immutable.
  std::shared_ptr<const GraphSnapshot> snapshot_;
  std::atomic<uint64_t> snapshot_epoch_{0};
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_STORE_H_
