#include "prov/store.h"

#include "common/fileio.h"
#include "common/hash64.h"

namespace provledger {
namespace prov {

namespace {
// Snapshot file: magic, then a checksum-framed body (torn or bit-rotted
// snapshots are detected before any state is replaced; Hash64 keeps the
// verification cheap on multi-megabyte bodies).
constexpr char kSnapshotMagic[] = "PLSNAP04";
constexpr size_t kSnapshotMagicBytes = sizeof(kSnapshotMagic) - 1;
// Retired formats: the whole-graph serialization (02) and the row groups
// followed by a rec/ key-value index (03). Such a file is a cache miss
// (rebuild from the chain), not corruption.
bool IsRetiredSnapshotMagic(const std::string& magic) {
  return magic == "PLSNAP02" || magic == "PLSNAP03";
}
}  // namespace

ProvenanceStore::ProvenanceStore(ledger::Blockchain* chain, Clock* clock,
                                 ProvenanceStoreOptions options)
    : chain_(chain), clock_(clock), options_(std::move(options)) {
  registry_ = options_.registry != nullptr ? options_.registry
                                           : obs::Registry::Default();
  for (int i = 0; i < 6; ++i) {
    query_plans_[i] = registry_->GetCounter(
        "query_plans_total", "Executed queries by planner-chosen index",
        {{"index", QueryIndexName(static_cast<QueryIndex>(i))}});
  }
  query_seconds_ = registry_->GetHistogram(
      "query_exec_seconds", "End-to-end Execute() latency",
      obs::LatencyBuckets());
  publish_seconds_ = registry_->GetHistogram(
      "snapshot_publish_seconds", "Epoch publication latency",
      obs::LatencyBuckets());
  publish_bytes_ = registry_->GetHistogram(
      "snapshot_publish_bytes",
      "Bytes one epoch publication encodes or copies", obs::SizeBuckets());
}

std::string ProvenanceStore::OnChainAgentId(const std::string& agent) const {
  if (!options_.hash_agent_ids) return agent;
  crypto::Digest mac =
      crypto::HmacSha256(options_.anonymization_key, ToBytes(agent));
  return "anon-" + HexEncode(mac.data(), 8);
}

Status ProvenanceStore::CheckNewId(
    const std::string& record_id,
    std::unordered_set<std::string>* batch_ids) const {
  if (graph_.HasRecord(record_id)) {
    return Status::AlreadyExists("record already anchored: " + record_id);
  }
  if (!batch_ids->insert(record_id).second) {
    return Status::AlreadyExists("duplicate record in batch: " + record_id);
  }
  return Status::OK();
}

Status ProvenanceStore::Anchor(const ProvenanceRecord& record,
                               const crypto::PrivateKey* signer) {
  return AnchorBatch({record}, signer);
}

Status ProvenanceStore::AnchorBatch(
    const std::vector<ProvenanceRecord>& records,
    const crypto::PrivateKey* signer) {
  // All or nothing: every record is checked before AnchorPrepared sees the
  // batch, because AnchorPrepared drops a duplicate and commits the rest.
  // Nonces are only taken (by AnchorPrepared) once the block lands.
  PreparedBatch batch;
  batch.records.reserve(records.size());
  std::unordered_set<std::string> batch_ids;
  Encoder scratch;
  for (const auto& record : records) {
    PROVLEDGER_ASSIGN_OR_RETURN(
        PreparedRecord prepared,
        PrepareRecord(ProvenanceRecord(record),
                      nonce_ + batch.records.size() + 1, signer, &scratch));
    PROVLEDGER_RETURN_NOT_OK(
        CheckNewId(prepared.record.record_id, &batch_ids));
    batch.records.push_back(std::move(prepared));
  }
  return AnchorPrepared(&batch);
}

Status ProvenanceStore::IndexRecord(ProvenanceRecord&& record,
                                    const crypto::Digest& txid) {
  PROVLEDGER_RETURN_NOT_OK(graph_.AddRecord(std::move(record)));
  // Rows added through mutable_graph() since the last anchor stay zero.
  txids_.resize(graph_.record_count(), crypto::ZeroDigest());
  txids_.back() = txid;
  ++anchored_count_;
  return Status::OK();
}

Result<PreparedRecord> ProvenanceStore::PrepareRecord(
    ProvenanceRecord&& record, uint64_t nonce,
    const crypto::PrivateKey* signer, Encoder* scratch) const {
  record.agent = OnChainAgentId(record.agent);
  PROVLEDGER_RETURN_NOT_OK(record.Validate());
  PreparedRecord prepared;
  Bytes payload = record.Encode();
  prepared.tx =
      signer != nullptr
          ? ledger::Transaction::MakeSigned("prov/record", options_.channel,
                                            std::move(payload), *signer,
                                            clock_->NowMicros(), nonce)
          : ledger::Transaction::MakeSystem("prov/record", options_.channel,
                                            std::move(payload),
                                            clock_->NowMicros(), nonce);
  // One encoding serves both digests the commit path will need — after
  // this, no byte of the transaction is ever hashed again. The encoding is
  // a throwaway, so a caller-provided scratch encoder (ingest shard
  // workers keep one per thread) makes it allocation-free in steady state.
  Encoder local;
  Encoder& enc = scratch != nullptr ? *scratch : local;
  enc.Clear();
  prepared.tx.EncodeTo(&enc);
  prepared.txid = crypto::Sha256::Hash(enc.buffer());
  prepared.leaf = crypto::MerkleTree::LeafHash(enc.buffer());
  prepared.record = std::move(record);
  return prepared;
}

Status ProvenanceStore::AnchorPrepared(PreparedBatch* batch,
                                       size_t* committed) {
  if (committed != nullptr) *committed = 0;
  if (batch->records.empty()) {
    // Contract: the root never outlives the call (an empty batch has no
    // leaves for it to describe, so a refill must not inherit it).
    batch->merkle_root.reset();
    return Status::OK();
  }
  // The precomputed root matches only the batch exactly as prepared, so
  // it is consumed here — never left behind on a batch whose records were
  // taken (a reused PreparedBatch would otherwise anchor a later block
  // under this stale root). It goes back only on the refusal hand-back,
  // and only when the handed-back records still match it exactly.
  std::optional<crypto::Digest> precomputed = std::move(batch->merkle_root);
  batch->merkle_root.reset();

  // Duplicates (already anchored or repeated within the batch) must drop
  // *before* the block forms: an on-chain duplicate would be refused by
  // the graph and become invisible to queries forever.
  std::vector<PreparedRecord> unique;
  unique.reserve(batch->records.size());
  std::unordered_set<std::string> batch_ids;
  Status first_drop;
  size_t dropped = 0;
  for (auto& prepared : batch->records) {
    Status s = CheckNewId(prepared.record.record_id, &batch_ids);
    if (!s.ok()) {
      ++dropped;
      if (first_drop.ok()) first_drop = std::move(s);
      continue;
    }
    unique.push_back(std::move(prepared));
  }
  batch->records.clear();

  if (!unique.empty()) {
    std::vector<ledger::PreparedTx> txs;
    txs.reserve(unique.size());
    uint64_t max_nonce = nonce_;
    for (auto& prepared : unique) {
      if (prepared.tx.nonce > max_nonce) max_nonce = prepared.tx.nonce;
      txs.push_back(ledger::PreparedTx{std::move(prepared.tx), prepared.txid,
                                       prepared.leaf});
    }
    // Any drop changes the leaf set, so the precomputed root only applies
    // to an intact batch; otherwise rebuild from the cached digests.
    const crypto::Digest* root =
        dropped == 0 && precomputed ? &*precomputed : nullptr;
    auto block_hash = chain_->AppendPrepared(&txs, clock_->NowMicros(),
                                            options_.proposer,
                                            /*nonce=*/0, root);
    // Chain refusal leaves no store state mutated, and the chain handed
    // the transactions back — reassemble the batch (minus dropped
    // duplicates) so the caller can retry it wholesale. The root goes
    // back only when nothing was dropped: a batch missing its dropped
    // records no longer matches it, and a retry anchoring under the stale
    // root would corrupt the chain.
    if (!block_hash.ok()) {
      for (size_t i = 0; i < unique.size(); ++i) {
        unique[i].tx = std::move(txs[i].tx);
      }
      if (dropped == 0) batch->merkle_root = std::move(precomputed);
      batch->records = std::move(unique);
      return block_hash.status();
    }
    // Track issued nonces so later AnchorBatch() calls never reuse one.
    nonce_ = max_nonce;

    // The block is on the chain: index everything, aggregate failures.
    // `committed` counts only fully-landed records (on-chain AND indexed)
    // — an indexing casualty is a failure to the caller even though its
    // bytes are on the chain.
    Status first_error;
    size_t failures = 0;
    for (auto& prepared : unique) {
      Status s = IndexRecord(std::move(prepared.record), prepared.txid);
      if (!s.ok()) {
        ++failures;
        if (first_error.ok()) first_error = std::move(s);
      }
    }
    if (committed != nullptr) *committed = unique.size() - failures;
    if (failures > 0) {
      return Status::Internal(
          "prepared anchor indexed " +
          std::to_string(unique.size() - failures) + "/" +
          std::to_string(unique.size()) +
          " on-chain records; first error: " + first_error.ToString());
    }
  }
  if (dropped > 0) {
    return Status::AlreadyExists(
        "dropped " + std::to_string(dropped) +
        " duplicate records from prepared batch; first: " +
        first_drop.ToString());
  }
  return Status::OK();
}

Status ProvenanceStore::PublishSnapshot() {
  return PublishSnapshotAt(chain_->height());
}

Status ProvenanceStore::PublishSnapshotAt(uint64_t reflected_height) {
  obs::ScopedTimer timer(publish_seconds_);
  size_t written = 0;
  GraphImage image = graph_.Image(&written);
  publish_bytes_->Observe(static_cast<double>(written));
  const uint64_t epoch = snapshot_epoch_.load(std::memory_order_relaxed) + 1;
  auto snapshot = std::make_shared<const GraphSnapshot>(
      epoch, reflected_height, std::move(image));
  // Pointer first, counter second: a reader that observes epoch N can
  // always acquire a snapshot at least that fresh.
  std::atomic_store(&snapshot_, std::move(snapshot));
  snapshot_epoch_.store(epoch, std::memory_order_release);
  return Status::OK();
}

std::shared_ptr<const GraphSnapshot> ProvenanceStore::AcquireSnapshot()
    const {
  return std::atomic_load(&snapshot_);
}

Result<ProvenanceRecord> ProvenanceStore::GetRecord(
    const std::string& record_id) const {
  return graph_.GetRecord(record_id);
}

bool ProvenanceStore::HasRecord(const std::string& record_id) const {
  return graph_.HasRecord(record_id);
}

QueryResult ProvenanceStore::Execute(const Query& query) const {
  obs::ScopedTimer timer(query_seconds_);
  QueryResult result = graph_.Run(query);
  query_plans_[static_cast<int>(result.index_used)]->Increment();
  return result;
}

size_t ProvenanceStore::Execute(
    const Query& query,
    const std::function<bool(const ProvenanceRecord&)>& visit) const {
  obs::ScopedTimer timer(query_seconds_);
  return graph_.Run(query, visit);
}

QueryExplain ProvenanceStore::Explain(const Query& query) const {
  return graph_.Explain(query);
}

std::string ProvenanceStore::MetricsSnapshot(
    obs::ExpositionFormat format) const {
  return registry_->Exposition(format);
}

std::vector<ProvenanceRecord> ProvenanceStore::SubjectHistory(
    const std::string& subject) const {
  return Execute(Query().WithSubject(subject)).records;
}

std::vector<ProvenanceRecord> ProvenanceStore::ByAgent(
    const std::string& agent) const {
  return Execute(Query().WithAgent(agent)).records;
}

std::vector<ProvenanceRecord> ProvenanceStore::InRange(Timestamp from,
                                                       Timestamp to) const {
  return Execute(Query().Between(from, to)).records;
}

std::vector<std::string> ProvenanceStore::Lineage(
    const std::string& entity) const {
  return graph_.Lineage(entity);
}

Result<crypto::Digest> ProvenanceStore::RecordTxId(
    const std::string& record_id) const {
  const uint32_t row = graph_.RecordRow(record_id);
  if (row < txids_.size() && txids_[row] != crypto::ZeroDigest()) {
    return txids_[row];
  }
  return Status::NotFound("record not anchored: " + record_id);
}

Result<ledger::TxProof> ProvenanceStore::ProveRecord(
    const std::string& record_id) const {
  PROVLEDGER_ASSIGN_OR_RETURN(crypto::Digest txid, RecordTxId(record_id));
  return chain_->ProveTransaction(txid);
}

bool ProvenanceStore::VerifyRecordProof(const ProvenanceRecord& record,
                                        const ledger::TxProof& proof) const {
  auto txid = RecordTxId(record.record_id);
  if (!txid.ok()) return false;
  auto tx = chain_->GetTransaction(txid.value());
  if (!tx.ok()) return false;
  // The anchored transaction must carry exactly this record's encoding.
  if (tx->payload != record.Encode()) return false;
  return chain_->VerifyTxProof(tx->Encode(), proof);
}

void ProvenanceStore::ResetState() {
  graph_ = ProvenanceGraph();
  txids_.clear();
  anchored_count_ = 0;
  nonce_ = 0;
}

Status ProvenanceStore::ApplyChainBlock(uint64_t h) {
  const ledger::Block* block = chain_->PeekBlock(h);
  if (block == nullptr) {
    return Status::NotFound("no block at height " + std::to_string(h));
  }
  // The ids the chain derived at acceptance: no per-record re-hash.
  const std::vector<crypto::Digest>& txids = *chain_->PeekTxIds(h);
  for (size_t i = 0; i < block->transactions.size(); ++i) {
    const ledger::Transaction& tx = block->transactions[i];
    if (tx.type != "prov/record" || tx.channel != options_.channel) {
      continue;
    }
    PROVLEDGER_ASSIGN_OR_RETURN(ProvenanceRecord record,
                                ProvenanceRecord::Decode(tx.payload));
    PROVLEDGER_RETURN_NOT_OK(IndexRecord(std::move(record), txids[i]));
    // Resume nonce issuance past everything already on the chain, so
    // post-replay transactions never reuse an anchored nonce.
    if (tx.nonce > nonce_) nonce_ = tx.nonce;
  }
  return Status::OK();
}

Status ProvenanceStore::RebuildFromChain() {
  ResetState();
  Status replayed = [&]() -> Status {
    for (uint64_t h = 0; h <= chain_->height(); ++h) {
      PROVLEDGER_RETURN_NOT_OK(ApplyChainBlock(h));
    }
    return Status::OK();
  }();
  // A mid-chain failure can leave a block partially indexed — no state a
  // snapshot could truthfully describe (chain_height promises "nothing
  // after it") and no state worth keeping: reset, as LoadSnapshot does.
  if (!replayed.ok()) ResetState();
  // Same contract as LoadSnapshot: the published epoch must describe what
  // the store now holds (rebuilt on success, empty after a failure reset
  // — genesis carries no records), never the pre-rebuild graph.
  Status republished =
      RepublishIfPublished(replayed.ok() ? chain_->height() : 0);
  return replayed.ok() ? republished : replayed;
}

Status ProvenanceStore::RepublishIfPublished(uint64_t reflected_height) {
  // A previously published epoch describes pre-restore state; left in
  // place, readers would keep acquiring a graph whose records may no
  // longer exist in the restored store (and whose chain_height may exceed
  // the actual chain). Re-publish from current state — the epoch counter
  // keeps climbing, preserving reader monotonicity — stamped with the
  // height the restored state actually reflects, not the chain's head.
  if (std::atomic_load(&snapshot_) == nullptr) return Status::OK();
  return PublishSnapshotAt(reflected_height);
}

Status ProvenanceStore::SaveSnapshot(const std::string& path) const {
  Encoder body;
  body.PutString(options_.channel);
  const uint64_t height = chain_->height();
  body.PutU64(height);
  // Bind the snapshot to the exact chain position (height + block hash) so
  // a restart against a different or reorged chain refuses to load it. The
  // hash comes from the chain's height index, not a header re-hash.
  auto head_hash = chain_->BlockHashAt(height);
  if (!head_hash.ok()) {
    return Status::Internal("chain has no block at its own height");
  }
  body.PutRaw(head_hash->data(), head_hash->size());
  body.PutU64(nonce_);
  body.PutU64(anchored_count_);
  graph_.Image().EncodeTo(&body);
  // The txid column: a row count, then one raw digest per graph row (rows
  // added through mutable_graph() after the last anchor are zero too).
  const size_t rows = graph_.record_count();
  body.PutU32(static_cast<uint32_t>(rows));
  for (size_t row = 0; row < rows; ++row) {
    const crypto::Digest txid =
        row < txids_.size() ? txids_[row] : crypto::ZeroDigest();
    body.PutRaw(txid.data(), txid.size());
  }

  Encoder file;
  file.PutRaw(ToBytes(kSnapshotMagic));
  file.PutU32(static_cast<uint32_t>(body.size()));
  file.PutU64(Hash64(body.buffer()));
  file.PutRaw(body.buffer());
  return WriteFileAtomic(path, file.buffer());
}

Status ProvenanceStore::LoadSnapshot(const std::string& path) {
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes data, ReadFileToBytes(path));
  Decoder file(data);
  Bytes magic_bytes;
  PROVLEDGER_RETURN_NOT_OK(file.GetRaw(kSnapshotMagicBytes, &magic_bytes));
  const std::string magic = BytesToString(magic_bytes);
  if (IsRetiredSnapshotMagic(magic)) {
    return Status::FailedPrecondition(
        "snapshot uses a retired format; rebuild from the chain: " + path);
  }
  if (magic != kSnapshotMagic) {
    return Status::Corruption("not a provenance snapshot: " + path);
  }
  uint32_t body_len = 0;
  uint64_t checksum = 0;
  PROVLEDGER_RETURN_NOT_OK(file.GetU32(&body_len));
  PROVLEDGER_RETURN_NOT_OK(file.GetU64(&checksum));
  // The body is checksummed and decoded in place — no second copy of a
  // multi-megabyte buffer on the restart path.
  if (file.remaining() != body_len) {
    return Status::Corruption("snapshot body length mismatch: " + path);
  }
  if (Hash64(data.data() + (data.size() - body_len), body_len) !=
      checksum) {
    return Status::Corruption("snapshot checksum mismatch: " + path);
  }

  Decoder& dec = file;
  std::string channel;
  PROVLEDGER_RETURN_NOT_OK(dec.GetString(&channel));
  if (channel != options_.channel) {
    return Status::FailedPrecondition("snapshot is for channel '" + channel +
                                      "', store uses '" + options_.channel +
                                      "'");
  }
  uint64_t snapshot_height = 0;
  PROVLEDGER_RETURN_NOT_OK(dec.GetU64(&snapshot_height));
  crypto::Digest snapshot_hash{};
  PROVLEDGER_RETURN_NOT_OK(
      dec.GetRaw(snapshot_hash.size(), snapshot_hash.data()));
  if (snapshot_height > chain_->height()) {
    return Status::FailedPrecondition(
        "snapshot height " + std::to_string(snapshot_height) +
        " is past chain height " + std::to_string(chain_->height()));
  }
  auto at = chain_->BlockHashAt(snapshot_height);
  if (!at.ok() || at.value() != snapshot_hash) {
    return Status::FailedPrecondition(
        "snapshot does not match this chain at height " +
        std::to_string(snapshot_height));
  }

  uint64_t nonce = 0, anchored = 0;
  PROVLEDGER_RETURN_NOT_OK(dec.GetU64(&nonce));
  PROVLEDGER_RETURN_NOT_OK(dec.GetU64(&anchored));
  // Decoding validates every row group, so a corrupt body fails here,
  // before any state is replaced.
  GraphImage image;
  PROVLEDGER_RETURN_NOT_OK(GraphImage::DecodeFrom(&dec, &image));
  // So is the txid column: one digest per image row, and nothing after.
  uint32_t rows = 0;
  if (!dec.GetU32(&rows).ok() || rows != image.record_count() ||
      dec.remaining() != size_t{rows} * crypto::kSha256DigestSize) {
    return Status::Corruption("bad txid column in snapshot: " + path);
  }
  std::vector<crypto::Digest> txids(rows);
  for (crypto::Digest& txid : txids) {
    PROVLEDGER_RETURN_NOT_OK(dec.GetRaw(txid.size(), txid.data()));
  }

  ResetState();
  graph_.Open(image);
  txids_ = std::move(txids);
  nonce_ = nonce;
  anchored_count_ = anchored;
  // Tail replay: everything anchored after the snapshot was taken.
  Status loaded = [&]() -> Status {
    for (uint64_t h = snapshot_height + 1; h <= chain_->height(); ++h) {
      PROVLEDGER_RETURN_NOT_OK(ApplyChainBlock(h));
    }
    return Status::OK();
  }();
  if (!loaded.ok()) ResetState();
  // Whether the restore landed or reset the store, the published epoch
  // must describe what the store now holds, not what it held before: the
  // full chain height on success, height 0 after a failure reset (genesis
  // carries no provenance records, so an empty graph reflects it).
  Status republished =
      RepublishIfPublished(loaded.ok() ? chain_->height() : 0);
  return loaded.ok() ? republished : loaded;
}

Status ProvenanceStore::Recover(const std::string& snapshot_path) {
  if (FileExists(snapshot_path)) {
    Status s = LoadSnapshot(snapshot_path);
    // A snapshot for another chain position is stale, not fatal; corrupt
    // contents keep failing loudly so operators notice.
    if (!s.IsFailedPrecondition()) return s;
  }
  return RebuildFromChain();
}

Result<size_t> ProvenanceStore::AuditAll() const {
  // Rows in anchoring order keep each block's records adjacent, so a block
  // whose proof tree fell out of the chain's cache is rebuilt once, not
  // once per record.
  size_t verified = 0;
  for (const crypto::Digest& txid : txids_) {
    if (txid == crypto::ZeroDigest()) continue;  // not anchored here
    auto tx = chain_->GetTransaction(txid);
    if (!tx.ok()) {
      return Status::Corruption("anchored record's transaction missing "
                                "from chain: " + crypto::DigestHex(txid));
    }
    auto proof = chain_->ProveTransaction(txid);
    if (!proof.ok()) return proof.status();
    if (!chain_->VerifyTxProof(tx->Encode(), proof.value())) {
      return Status::Corruption("merkle verification failed for transaction " +
                                crypto::DigestHex(txid));
    }
    ++verified;
  }
  return verified;
}

}  // namespace prov
}  // namespace provledger
