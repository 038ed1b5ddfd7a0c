#include "ledger/chain.h"

namespace provledger {
namespace ledger {

namespace {
// Leaf digest and id of every transaction, both from one canonical
// encoding per transaction (one scratch buffer for the whole block).
void DigestTransactions(const std::vector<Transaction>& txs,
                        StoredBlock* out) {
  out->leaves.reserve(txs.size());
  out->ids.reserve(txs.size());
  Encoder enc;
  for (const auto& tx : txs) {
    enc.Clear();
    tx.EncodeTo(&enc);
    out->leaves.push_back(crypto::MerkleTree::LeafHash(enc.buffer()));
    out->ids.push_back(crypto::Sha256::Hash(enc.buffer()));
  }
}

// The Merkle tree pairs an odd level's last node with itself, so a block
// that repeats its tail transactions ([a,b,c] sent as [a,b,c,c]) keeps the
// root and the header hash of the honest block (CVE-2012-2459). Rejecting
// any block that carries one transaction twice, as Bitcoin does, leaves a
// header hash exactly one valid body.
Status CheckDistinctIds(const std::vector<crypto::Digest>& ids) {
  std::unordered_set<crypto::Digest, DigestHash> seen;
  seen.reserve(ids.size());
  for (const crypto::Digest& id : ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("block repeats transaction " +
                                     crypto::DigestHex(id));
    }
  }
  return Status::OK();
}
}  // namespace

void ChainView::Push(std::shared_ptr<const StoredBlock> block) {
  open_.push_back(std::move(block));
  if (open_.size() == kChunkBlocks) {
    sealed_.push_back(std::make_shared<const Chunk>(std::move(open_)));
    open_ = Chunk();
  }
}

Blockchain::Blockchain(ChainOptions options) : options_(std::move(options)) {
  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  append_seconds_ = registry->GetHistogram(
      "chain_append_seconds", "Block acceptance latency (validate + install)",
      obs::LatencyBuckets());
  validate_seconds_ = registry->GetHistogram(
      "chain_validate_seconds",
      "Block validation + write-ahead persistence latency",
      obs::LatencyBuckets());
  merkle_builds_total_ = registry->GetCounter(
      "chain_merkle_tree_builds_total",
      "Merkle proof trees built (cache misses on the proof path)");
  height_gauge_ =
      registry->GetGauge("chain_height", "Main-chain head height");
  registry
      ->GetGauge("crypto_sha256_accelerated",
                 "SHA-256 compression in use: 1 = SHA-NI, 0 = portable")
      ->Set(crypto::Sha256::HardwareAccelerated() ? 1 : 0);
  // Genesis: one system transaction binding the chain id.
  Transaction genesis_tx = Transaction::MakeSystem(
      "genesis", "", ToBytes(options_.chain_id), /*timestamp=*/0, /*nonce=*/0);
  StoredBlock genesis;
  genesis.block = Block::Make(0, crypto::ZeroDigest(), {genesis_tx},
                              /*timestamp=*/0, "genesis");
  DigestTransactions(genesis.block.transactions, &genesis);
  genesis.hash = genesis.block.header.Hash();
  InstallBlock(std::move(genesis));
}

uint64_t Blockchain::height() const {
  return static_cast<uint64_t>(main_chain_.size()) - 1;
}

crypto::Digest Blockchain::head_hash() const {
  return main_chain_.back()->hash;
}

const Block& Blockchain::genesis() const { return main_chain_[0]->block; }

BlockHeader Blockchain::HeaderOnHead(const crypto::Digest& merkle_root,
                                     Timestamp timestamp,
                                     const std::string& proposer,
                                     uint64_t nonce) const {
  const StoredBlock& parent = *main_chain_.back();
  BlockHeader header;
  header.height = parent.block.header.height + 1;
  header.prev_hash = parent.hash;
  header.merkle_root = merkle_root;
  header.timestamp = timestamp;
  header.nonce = nonce;
  header.proposer = proposer;
  return header;
}

Status Blockchain::ValidateBlock(const Block& block, const Block& parent,
                                 bool derive, StoredBlock* digests) const {
  // No prev_hash check: the sole caller (ValidateAndPersist) fetched
  // `parent` from blocks_ by block.header.prev_hash, and every stored
  // block is keyed by its own header hash — the link equality is
  // structural, and re-deriving parent.header.Hash() here would cost a
  // redundant SHA-256 per acceptance.
  if (block.header.height != parent.header.height + 1) {
    return Status::InvalidArgument("block height does not extend parent");
  }
  if (block.header.timestamp < parent.header.timestamp) {
    return Status::InvalidArgument("block timestamp precedes parent");
  }
  if (options_.max_block_txs != 0 &&
      block.transactions.size() > options_.max_block_txs) {
    return Status::InvalidArgument("block exceeds max transaction count");
  }
  if (derive) {
    DigestTransactions(block.transactions, digests);
    if (Block::MerkleRootFromLeaves(digests->leaves) !=
        block.header.merkle_root) {
      return Status::Corruption("merkle root does not match transactions");
    }
  }
  PROVLEDGER_RETURN_NOT_OK(CheckDistinctIds(digests->ids));
  for (const auto& tx : block.transactions) {
    if (!tx.IsSigned() && !options_.allow_unsigned) {
      return Status::PermissionDenied("unsigned transactions not allowed");
    }
    PROVLEDGER_RETURN_NOT_OK(tx.VerifySignature());
  }
  return Status::OK();
}

Result<crypto::Digest> Blockchain::Append(std::vector<Transaction> txs,
                                          Timestamp timestamp,
                                          const std::string& proposer,
                                          uint64_t nonce) {
  // Each transaction's leaf and id from one encoding, then the one local
  // block-assembly path.
  StoredBlock digests;
  DigestTransactions(txs, &digests);
  std::vector<PreparedTx> prepared;
  prepared.reserve(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    prepared.push_back(
        PreparedTx{std::move(txs[i]), digests.ids[i], digests.leaves[i]});
  }
  return AppendPrepared(&prepared, timestamp, proposer, nonce);
}

Result<crypto::Digest> Blockchain::AppendPrepared(
    std::vector<PreparedTx>* txs, Timestamp timestamp,
    const std::string& proposer, uint64_t nonce,
    const crypto::Digest* precomputed_root) {
  obs::ScopedTimer timer(append_seconds_);
  // Root straight from the cached leaf digests — the transactions' bytes
  // are never re-encoded or re-hashed on this path.
  StoredBlock stored;
  stored.leaves.reserve(txs->size());
  stored.ids.reserve(txs->size());
  for (const auto& ptx : *txs) {
    stored.leaves.push_back(ptx.leaf);
    stored.ids.push_back(ptx.id);
  }
  Block& block = stored.block;
  block.header = HeaderOnHead(precomputed_root != nullptr
                                  ? *precomputed_root
                                  : Block::MerkleRootFromLeaves(stored.leaves),
                              timestamp, proposer, nonce);
  block.transactions.reserve(txs->size());
  for (auto& ptx : *txs) block.transactions.push_back(std::move(ptx.tx));
  stored.hash = block.header.Hash();
  // Two-stage acceptance keeps the hand-back contract structural: every
  // failure point runs before `stored` is consumed, so on error the
  // transactions are still here and move straight back into the caller's
  // PreparedTx vector for retry.
  Status accepted = ValidateAndPersist(block, /*derive=*/false, &stored);
  if (!accepted.ok()) {
    for (size_t i = 0; i < txs->size(); ++i) {
      (*txs)[i].tx = std::move(block.transactions[i]);
    }
    return accepted;
  }
  const crypto::Digest hash = stored.hash;
  InstallBlock(std::move(stored));
  txs->clear();
  return hash;
}

Status Blockchain::SubmitBlock(const Block& block) {
  obs::ScopedTimer timer(append_seconds_);
  StoredBlock stored;
  stored.hash = block.header.Hash();
  // Validate against the caller's block; the deep copy (every transaction
  // payload) is only paid once the block is actually going in.
  PROVLEDGER_RETURN_NOT_OK(
      ValidateAndPersist(block, /*derive=*/true, &stored));
  stored.block = block;
  InstallBlock(std::move(stored));
  return Status::OK();
}

Status Blockchain::ValidateAndPersist(const Block& block, bool derive,
                                      StoredBlock* digests) {
  obs::ScopedTimer timer(validate_seconds_);
  if (blocks_.count(digests->hash)) {
    return Status::AlreadyExists("block already known");
  }
  auto parent_it = blocks_.find(block.header.prev_hash);
  if (parent_it == blocks_.end()) {
    return Status::NotFound("parent block unknown");
  }
  PROVLEDGER_RETURN_NOT_OK(
      ValidateBlock(block, parent_it->second->block, derive, digests));

  // Write-ahead: the block must be durable before any in-memory state
  // changes, so a crash can never leave the memory view ahead of the log.
  if (block_sink_) PROVLEDGER_RETURN_NOT_OK(block_sink_(block));
  return Status::OK();
}

void Blockchain::InstallBlock(StoredBlock&& stored) {
  auto shared = std::make_shared<const StoredBlock>(std::move(stored));
  blocks_.emplace(shared->hash, shared);

  // Fork choice: extending the head (or installing genesis) is the fast
  // path; a strictly higher side branch triggers a reorg (longest-chain
  // rule).
  if (main_chain_.empty() || shared->block.header.prev_hash == head_hash()) {
    main_chain_.push_back(shared);
    IndexTransactions(*shared);
    view_parts_.Push(std::move(shared));
    RepublishChainView();
    return;
  }
  if (shared->block.header.height <= height()) return;
  // Walk the branch back to the block where it meets the main chain (at
  // worst genesis), then splice it in above that fork point.
  std::vector<std::shared_ptr<const StoredBlock>> branch;
  for (std::shared_ptr<const StoredBlock> cursor = shared;;
       cursor = blocks_.at(cursor->block.header.prev_hash)) {
    const uint64_t h = cursor->block.header.height;
    if (h < main_chain_.size() && main_chain_[h]->hash == cursor->hash) {
      main_chain_.resize(h + 1);
      break;
    }
    branch.push_back(cursor);
  }
  main_chain_.insert(main_chain_.end(), branch.rbegin(), branch.rend());
  ReindexMainChain();
  view_parts_ = ChainView();
  for (const auto& b : main_chain_) view_parts_.Push(b);
  RepublishChainView();
}

void Blockchain::IndexTransactions(const StoredBlock& stored) {
  const uint64_t h = stored.block.header.height;
  for (uint32_t i = 0; i < stored.ids.size(); ++i) {
    tx_index_[stored.ids[i]] = TxLocation{h, i};
  }
}

void Blockchain::ReindexMainChain() {
  tx_index_.clear();
  for (const auto& b : main_chain_) IndexTransactions(*b);
}

void Blockchain::RepublishChainView() {
  std::atomic_store(&view_, std::shared_ptr<const ChainView>(
                                std::make_shared<ChainView>(view_parts_)));
  height_gauge_->Set(static_cast<int64_t>(height()));
}

std::shared_ptr<const ChainView> Blockchain::AcquireChainView() const {
  return std::atomic_load(&view_);
}

Result<crypto::Digest> Blockchain::BlockHashAt(uint64_t h) const {
  if (h >= main_chain_.size()) {
    return Status::NotFound("no block at height " + std::to_string(h));
  }
  return main_chain_[h]->hash;
}

std::vector<const Block*> Blockchain::PeekRange(uint64_t from,
                                                size_t max_blocks) const {
  std::vector<const Block*> out;
  for (uint64_t h = from; h < main_chain_.size() && out.size() < max_blocks;
       ++h) {
    out.push_back(&main_chain_[h]->block);
  }
  return out;
}

Result<Block> Blockchain::GetBlock(uint64_t h) const {
  if (h >= main_chain_.size()) {
    return Status::NotFound("no block at height " + std::to_string(h));
  }
  return main_chain_[h]->block;
}

const Block* Blockchain::PeekBlock(uint64_t h) const {
  if (h >= main_chain_.size()) return nullptr;
  return &main_chain_[h]->block;
}

const std::vector<crypto::Digest>* Blockchain::PeekTxIds(uint64_t h) const {
  if (h >= main_chain_.size()) return nullptr;
  return &main_chain_[h]->ids;
}

Result<Block> Blockchain::GetBlockByHash(const crypto::Digest& hash) const {
  auto it = blocks_.find(hash);
  if (it == blocks_.end()) return Status::NotFound("unknown block hash");
  return it->second->block;
}

Result<BlockHeader> Blockchain::GetHeader(uint64_t h) const {
  if (h >= main_chain_.size()) {
    return Status::NotFound("no block at height " + std::to_string(h));
  }
  return main_chain_[h]->block.header;
}

Result<TxLocation> Blockchain::FindTransaction(
    const crypto::Digest& txid) const {
  auto it = tx_index_.find(txid);
  if (it == tx_index_.end()) {
    return Status::NotFound("transaction not on main chain");
  }
  return it->second;
}

Result<Transaction> Blockchain::GetTransaction(
    const crypto::Digest& txid) const {
  PROVLEDGER_ASSIGN_OR_RETURN(TxLocation loc, FindTransaction(txid));
  // Reference the stored block directly: GetBlock would copy the whole
  // block (every transaction) to hand back one of them.
  return main_chain_[loc.height]->block.transactions[loc.index];
}

std::vector<Transaction> Blockchain::GetChannelTransactions(
    const std::string& channel) const {
  std::vector<Transaction> out;
  for (const auto& b : main_chain_) {
    for (const auto& tx : b->block.transactions) {
      if (tx.channel == channel) out.push_back(tx);
    }
  }
  return out;
}

const crypto::MerkleTree& Blockchain::TreeFor(const StoredBlock& stored) const {
  auto it = merkle_cache_.find(stored.hash);
  if (it != merkle_cache_.end()) return it->second;
  if (options_.merkle_cache_blocks != 0) {
    while (merkle_cache_.size() >= options_.merkle_cache_blocks &&
           !merkle_cache_order_.empty()) {
      merkle_cache_.erase(merkle_cache_order_.front());
      merkle_cache_order_.pop_front();
    }
  }
  merkle_builds_total_->Increment();
  merkle_cache_order_.push_back(stored.hash);
  return merkle_cache_
      .emplace(stored.hash, crypto::MerkleTree::BuildFromDigests(stored.leaves))
      .first->second;
}

Result<TxProof> Blockchain::ProveTransaction(const crypto::Digest& txid) const {
  PROVLEDGER_ASSIGN_OR_RETURN(TxLocation loc, FindTransaction(txid));
  const StoredBlock& stored = *main_chain_[loc.height];
  TxProof proof;
  proof.block_hash = stored.hash;
  proof.header = stored.block.header;
  PROVLEDGER_ASSIGN_OR_RETURN(proof.merkle_proof,
                              TreeFor(stored).Prove(loc.index));
  return proof;
}

bool Blockchain::VerifyTxProofAgainstHeader(const Bytes& tx_encoding,
                                            const TxProof& proof) {
  if (proof.header.Hash() != proof.block_hash) return false;
  return crypto::MerkleTree::VerifyProof(proof.header.merkle_root,
                                         tx_encoding, proof.merkle_proof);
}

bool Blockchain::VerifyTxProof(const Bytes& tx_encoding,
                               const TxProof& proof) const {
  if (!VerifyTxProofAgainstHeader(tx_encoding, proof)) return false;
  // The proof's block must be on *this* chain's main branch.
  if (proof.header.height >= main_chain_.size()) return false;
  return main_chain_[proof.header.height]->hash == proof.block_hash;
}

Status Blockchain::VerifyIntegrity() const {
  // Recomputed from the transaction bytes, never from the stored digests:
  // this is the tamper check they must not mask.
  for (size_t h = 0; h < main_chain_.size(); ++h) {
    const Block& b = main_chain_[h]->block;
    if (b.header.height != h) {
      return Status::Corruption("height mismatch at " + std::to_string(h));
    }
    if (Block::ComputeMerkleRoot(b.transactions) != b.header.merkle_root) {
      return Status::Corruption("merkle root mismatch at height " +
                                std::to_string(h));
    }
    if (h > 0) {
      const Block& parent = main_chain_[h - 1]->block;
      if (b.header.prev_hash != parent.header.Hash()) {
        return Status::Corruption("hash chain broken at height " +
                                  std::to_string(h));
      }
    }
    for (const auto& tx : b.transactions) {
      Status s = tx.VerifySignature();
      if (!s.ok()) {
        return Status::Corruption("bad signature at height " +
                                  std::to_string(h) + ": " + s.message());
      }
    }
  }
  return Status::OK();
}

size_t Blockchain::ApproximateBytes() const {
  size_t total = 0;
  for (const auto& b : main_chain_) total += b->block.EncodedSize();
  return total;
}

Status Blockchain::TamperForTesting(uint64_t height, size_t tx_index,
                                    uint8_t xor_mask) {
  if (height >= main_chain_.size()) {
    return Status::NotFound("no block at that height");
  }
  // Installed blocks are shared immutably with published ChainViews; the
  // const_cast is this hook's documented single-threaded-test exception.
  Block& b = const_cast<StoredBlock&>(*main_chain_[height]).block;
  if (tx_index >= b.transactions.size()) {
    return Status::NotFound("no transaction at that index");
  }
  Bytes& payload = b.transactions[tx_index].payload;
  if (payload.empty()) payload.push_back(0);
  payload[0] ^= xor_mask;
  // The stored leaves and ids (and any proof tree built from them) keep
  // the digests of the accepted bytes on purpose: every verifier re-hashes
  // the transaction it is handed, so the tampered bytes fail their proof.
  return Status::OK();
}

Status Mempool::Add(const Transaction& tx) {
  crypto::Digest id = tx.Id();
  if (seen_.count(id)) {
    return Status::AlreadyExists("transaction already in mempool");
  }
  PROVLEDGER_RETURN_NOT_OK(tx.VerifySignature());
  seen_.insert(id);
  queue_.emplace_back(id, tx);
  return Status::OK();
}

std::vector<Transaction> Mempool::Take(size_t max_count) {
  size_t n = (max_count == 0 || max_count > queue_.size()) ? queue_.size()
                                                           : max_count;
  std::vector<Transaction> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    seen_.erase(queue_.front().first);
    out.push_back(std::move(queue_.front().second));
    queue_.pop_front();
  }
  return out;
}

}  // namespace ledger
}  // namespace provledger
