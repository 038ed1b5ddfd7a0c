#include "prov/store.h"

#include <algorithm>

#include "common/fileio.h"
#include "common/hash64.h"

namespace provledger {
namespace prov {

namespace {
// Snapshot file: magic, then a checksum-framed body (torn or bit-rotted
// snapshots are detected before any state is replaced; Hash64 keeps the
// verification cheap on multi-megabyte bodies).
constexpr char kSnapshotMagic[8] = {'P', 'L', 'S', 'N', 'A', 'P', '0', '3'};
// The whole-graph serialization that row groups replaced. Such a file is a
// cache miss (rebuild from the chain), not corruption.
constexpr char kRetiredSnapshotMagic[8] = {'P', 'L', 'S', 'N',
                                           'A', 'P', '0', '2'};
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

ledger::Transaction ProvenanceStore::MakeTx(Bytes payload,
                                            const crypto::PrivateKey* signer,
                                            uint64_t nonce) const {
  if (signer != nullptr) {
    return ledger::Transaction::MakeSigned("prov/record", options_.channel,
                                           std::move(payload), *signer,
                                           clock_->NowMicros(), nonce);
  }
  return ledger::Transaction::MakeSystem("prov/record", options_.channel,
                                         std::move(payload),
                                         clock_->NowMicros(), nonce);
}

Status ProvenanceStore::CheckNotAnchored(const std::string& record_id) const {
  if (graph_.HasRecord(record_id) || pending_ids_.count(record_id)) {
    return Status::AlreadyExists("record already anchored: " + record_id);
  }
  return Status::OK();
}

Status ProvenanceStore::Buffer(ProvenanceRecord&& record,
                               const crypto::PrivateKey* signer) {
  PROVLEDGER_RETURN_NOT_OK(record.Validate());
  PROVLEDGER_RETURN_NOT_OK(CheckNotAnchored(record.record_id));
  ++nonce_;
  // Encode once; the encoding travels into the transaction payload and the
  // record itself moves into the pending buffer — no further full copies.
  pending_.push_back(MakeTx(record.Encode(), signer, nonce_));
  pending_ids_.insert(record.record_id);
  pending_records_.push_back(std::move(record));
  return Status::OK();
}

Status ProvenanceStore::Anchor(const ProvenanceRecord& record,
                               const crypto::PrivateKey* signer) {
  ProvenanceRecord anchored = record;
  anchored.agent = OnChainAgentId(record.agent);
  PROVLEDGER_RETURN_NOT_OK(Buffer(std::move(anchored), signer));
  if (pending_.size() >= options_.batch_size) {
    return Flush();
  }
  return Status::OK();
}

Status ProvenanceStore::AnchorBatch(
    const std::vector<ProvenanceRecord>& records,
    const crypto::PrivateKey* signer) {
  // All-or-nothing: a failed AnchorBatch must not leave this batch's
  // records buffered, or they would block retries and then ride along on
  // an unrelated later Flush despite the reported error.
  const size_t mark = pending_.size();
  const uint64_t nonce_mark = nonce_;
  auto unbuffer_batch = [&]() {
    for (size_t i = mark; i < pending_records_.size(); ++i) {
      pending_ids_.erase(pending_records_[i].record_id);
    }
    pending_.resize(mark);
    pending_records_.resize(mark);
    nonce_ = nonce_mark;
  };
  for (const auto& record : records) {
    ProvenanceRecord anchored = record;
    anchored.agent = OnChainAgentId(record.agent);
    Status s = Buffer(std::move(anchored), signer);
    if (!s.ok()) {
      unbuffer_batch();
      return s;
    }
  }
  Status flushed = Flush();
  // A still-buffered batch after a failed flush means the chain refused the
  // block: hand the records back to the caller instead of letting them
  // linger (a drained buffer means the block landed and only indexing
  // failed — those records are on-chain and must stay).
  if (!flushed.ok() && pending_.size() > mark) unbuffer_batch();
  return flushed;
}

Status ProvenanceStore::Flush() {
  if (pending_.empty()) return Status::OK();
  // Append before touching the buffers: on failure (block too large,
  // signature policy, ...) everything stays pending so the caller can fix
  // the chain options and retry without losing records.
  auto block_hash =
      chain_->Append(pending_, clock_->NowMicros(), options_.proposer);
  if (!block_hash.ok()) return block_hash.status();
  // Append installed the block on the head; its stored ids spare
  // re-encoding and re-hashing every transaction.
  const std::vector<crypto::Digest>& txids =
      *chain_->PeekTxIds(chain_->height());

  std::vector<ProvenanceRecord> records = std::move(pending_records_);
  pending_.clear();
  pending_records_.clear();
  pending_ids_.clear();
  // The block is on the chain now, so every record of the batch must be
  // indexed — bailing at the first failure would leave on-chain records
  // invisible to queries and audits. Index them all, aggregate the errors.
  Status first_error;
  size_t failures = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    Status s = IndexRecord(std::move(records[i]), txids[i]);
    if (!s.ok()) {
      ++failures;
      if (first_error.ok()) first_error = std::move(s);
    }
  }
  if (failures > 0) {
    return Status::Internal(
        "flush indexed " + std::to_string(records.size() - failures) + "/" +
        std::to_string(records.size()) + " anchored records; first error: " +
        first_error.ToString());
  }
  return Status::OK();
}

Status ProvenanceStore::IndexRecord(ProvenanceRecord&& record,
                                    const crypto::Digest& txid) {
  PROVLEDGER_RETURN_NOT_OK(EnsureIndexLoaded());
  // The id is needed after the record moves into the graph.
  std::string key = "rec/" + record.record_id;
  PROVLEDGER_RETURN_NOT_OK(graph_.AddRecord(std::move(record)));
  PROVLEDGER_RETURN_NOT_OK(index_.Put(std::move(key),
                                      crypto::DigestToBytes(txid)));
  ++anchored_count_;
  return Status::OK();
}

Result<PreparedRecord> ProvenanceStore::PrepareRecord(
    ProvenanceRecord&& record, uint64_t nonce,
    const crypto::PrivateKey* signer, Encoder* scratch) const {
  record.agent = OnChainAgentId(record.agent);
  PROVLEDGER_RETURN_NOT_OK(record.Validate());
  PreparedRecord prepared;
  prepared.tx = MakeTx(record.Encode(), signer, nonce);
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
  PROVLEDGER_RETURN_NOT_OK(EnsureIndexLoaded());

  // The precomputed root matches only the batch exactly as prepared, so
  // it is consumed here — never left behind on a batch whose records were
  // taken (a reused PreparedBatch would otherwise anchor a later block
  // under this stale root). It goes back only on the refusal hand-back,
  // and only when the handed-back records still match it exactly.
  std::optional<crypto::Digest> precomputed = std::move(batch->merkle_root);
  batch->merkle_root.reset();

  // Duplicates (already anchored, pending, or repeated within the batch)
  // must drop *before* the block forms: an on-chain duplicate would be
  // refused by the graph and become invisible to queries forever.
  std::vector<PreparedRecord> unique;
  unique.reserve(batch->records.size());
  std::unordered_set<std::string> batch_ids;
  Status first_drop;
  size_t dropped = 0;
  for (auto& prepared : batch->records) {
    Status s = CheckNotAnchored(prepared.record.record_id);
    if (s.ok() && !batch_ids.insert(prepared.record.record_id).second) {
      s = Status::AlreadyExists("duplicate record in prepared batch: " +
                                prepared.record.record_id);
    }
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
    // duplicates) so the caller can retry it wholesale. Same
    // no-record-loss contract as AnchorBatch's un-buffering. The root
    // goes back only when nothing was dropped: a batch missing its
    // dropped records no longer matches it, and a retry anchoring under
    // the stale root would corrupt the chain.
    if (!block_hash.ok()) {
      for (size_t i = 0; i < unique.size(); ++i) {
        unique[i].tx = std::move(txs[i].tx);
      }
      if (dropped == 0) batch->merkle_root = std::move(precomputed);
      batch->records = std::move(unique);
      return block_hash.status();
    }
    // Track issued nonces so later Anchor()/Flush() calls never reuse one.
    nonce_ = max_nonce;

    // The block is on the chain: index everything, aggregate failures
    // (same contract as Flush). `committed` counts only fully-landed
    // records (on-chain AND indexed) — an indexing casualty is a failure
    // to the caller even though its bytes are on the chain.
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

Status ProvenanceStore::EnsureIndexLoaded() const {
  if (lazy_index_.empty()) return Status::OK();
  LazySlice slice = std::move(lazy_index_);
  lazy_index_.clear();
  Decoder dec(slice.data(), slice.length);
  uint32_t count = 0;
  PROVLEDGER_RETURN_NOT_OK(dec.GetU32(&count));
  std::vector<std::pair<std::string, Bytes>> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string key;
    Bytes value;
    PROVLEDGER_RETURN_NOT_OK(dec.GetString(&key));
    PROVLEDGER_RETURN_NOT_OK(dec.GetBytes(&value));
    entries.emplace_back(std::move(key), std::move(value));
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot index section");
  }
  // Saved via an ordered iterator, loaded in O(n).
  return index_.LoadSorted(std::move(entries));
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
  PROVLEDGER_RETURN_NOT_OK(EnsureIndexLoaded());
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes txid_bytes,
                              index_.Get("rec/" + record_id));
  return crypto::DigestFromBytes(txid_bytes);
}

Result<ledger::TxProof> ProvenanceStore::ProveRecord(
    const std::string& record_id) const {
  PROVLEDGER_ASSIGN_OR_RETURN(crypto::Digest txid, RecordTxId(record_id));
  return chain_->ProveTransaction(txid);
}

bool ProvenanceStore::VerifyRecordProof(const ProvenanceRecord& record,
                                        const ledger::TxProof& proof) const {
  if (!EnsureIndexLoaded().ok()) return false;
  auto txid_bytes = index_.Get("rec/" + record.record_id);
  if (!txid_bytes.ok()) return false;
  auto txid = crypto::DigestFromBytes(txid_bytes.value());
  if (!txid.ok()) return false;
  auto tx = chain_->GetTransaction(txid.value());
  if (!tx.ok()) return false;
  // The anchored transaction must carry exactly this record's encoding.
  if (tx->payload != record.Encode()) return false;
  return chain_->VerifyTxProof(tx->Encode(), proof);
}

void ProvenanceStore::ResetState() {
  graph_ = ProvenanceGraph();
  index_ = storage::MemKvStore();
  lazy_index_.clear();
  anchored_count_ = 0;
  pending_.clear();
  pending_records_.clear();
  pending_ids_.clear();
  nonce_ = 0;
}

Status ProvenanceStore::ReplayBlock(uint64_t h) {
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

Status ProvenanceStore::ApplyChainBlock(uint64_t height) {
  return ReplayBlock(height);
}

Status ProvenanceStore::RebuildFromChain() {
  ResetState();
  Status replayed = [&]() -> Status {
    for (uint64_t h = 0; h <= chain_->height(); ++h) {
      PROVLEDGER_RETURN_NOT_OK(ReplayBlock(h));
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

  // rec/ index as one length-prefixed section. If this store itself was
  // snapshot-restored and never needed the index, its raw section passes
  // straight through (every mutation path hydrates first, so raw implies
  // unchanged).
  if (!lazy_index_.empty()) {
    body.PutU32(static_cast<uint32_t>(lazy_index_.length));
    body.PutRaw(lazy_index_.data(), lazy_index_.length);
  } else {
    Encoder section;
    section.PutU32(static_cast<uint32_t>(index_.ApproximateCount()));
    auto it = index_.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      section.PutString(it->key());
      section.PutBytes(it->value());
    }
    body.PutU32(static_cast<uint32_t>(section.size()));
    body.PutRaw(section.buffer());
  }

  Encoder file;
  file.PutRaw(Bytes(kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic)));
  file.PutU32(static_cast<uint32_t>(body.size()));
  file.PutU64(Hash64(body.buffer()));
  file.PutRaw(body.buffer());
  return WriteFileAtomic(path, file.buffer());
}

Status ProvenanceStore::LoadSnapshot(const std::string& path) {
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes data_owned, ReadFileToBytes(path));
  // The buffer is shared: the rec/ index keeps a zero-copy slice into it,
  // deferring its decoding to first use.
  auto data = std::make_shared<const Bytes>(std::move(data_owned));
  Decoder file(*data);
  Bytes magic;
  PROVLEDGER_RETURN_NOT_OK(file.GetRaw(sizeof(kSnapshotMagic), &magic));
  if (std::equal(magic.begin(), magic.end(), kRetiredSnapshotMagic)) {
    return Status::FailedPrecondition(
        "snapshot uses a retired format; rebuild from the chain: " + path);
  }
  if (!std::equal(magic.begin(), magic.end(), kSnapshotMagic)) {
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
  if (Hash64(data->data() + (data->size() - body_len), body_len) !=
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

  ResetState();
  Status loaded = [&]() -> Status {
    graph_.Open(image);
    PROVLEDGER_RETURN_NOT_OK(GetSlice(&dec, data, &lazy_index_));
    // Sanity before deferring: the section's entry count must match the
    // graph (full parsing waits for the first proof/audit/anchor).
    Decoder peek(lazy_index_.data(), lazy_index_.length);
    uint32_t index_count = 0;
    PROVLEDGER_RETURN_NOT_OK(peek.GetU32(&index_count));
    if (index_count != graph_.record_count()) {
      return Status::Corruption("snapshot index/graph record count mismatch");
    }
    if (!dec.AtEnd()) {
      return Status::Corruption("trailing bytes in snapshot body");
    }
    nonce_ = nonce;
    anchored_count_ = anchored;
    // Tail replay: everything anchored after the snapshot was taken.
    for (uint64_t h = snapshot_height + 1; h <= chain_->height(); ++h) {
      PROVLEDGER_RETURN_NOT_OK(ReplayBlock(h));
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
  PROVLEDGER_RETURN_NOT_OK(EnsureIndexLoaded());
  size_t verified = 0;
  auto it = index_.NewIterator();
  for (it->Seek("rec/"); it->Valid(); it->Next()) {
    if (it->key().compare(0, 4, "rec/") != 0) break;
    auto txid = crypto::DigestFromBytes(it->value());
    if (!txid.ok()) return txid.status();
    auto tx = chain_->GetTransaction(txid.value());
    if (!tx.ok()) {
      return Status::Corruption("anchored record missing from chain: " +
                                it->key());
    }
    auto proof = chain_->ProveTransaction(txid.value());
    if (!proof.ok()) return proof.status();
    if (!chain_->VerifyTxProof(tx->Encode(), proof.value())) {
      return Status::Corruption("merkle verification failed for " +
                                it->key());
    }
    ++verified;
  }
  return verified;
}

}  // namespace prov
}  // namespace provledger
