#include "ledger/block.h"

#include "obs/metrics.h"

namespace provledger {
namespace ledger {

namespace {
// The process-wide root-compute counter lives on the default metric
// registry.
obs::Counter* RootComputesCell() {
  static obs::Counter* cell = obs::Registry::Default()->GetCounter(
      "merkle_root_computes_total",
      "Process-wide Block::ComputeMerkleRoot calls");
  return cell;
}
}  // namespace

void BlockHeader::EncodeTo(Encoder* enc) const {
  enc->PutU64(height);
  enc->PutRaw(prev_hash.data(), prev_hash.size());
  enc->PutRaw(merkle_root.data(), merkle_root.size());
  enc->PutI64(timestamp);
  enc->PutU64(nonce);
  enc->PutString(proposer);
}

Result<BlockHeader> BlockHeader::DecodeFrom(Decoder* dec) {
  BlockHeader h;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU64(&h.height));
  PROVLEDGER_RETURN_NOT_OK(
      dec->GetRaw(h.prev_hash.size(), h.prev_hash.data()));
  PROVLEDGER_RETURN_NOT_OK(
      dec->GetRaw(h.merkle_root.size(), h.merkle_root.data()));
  PROVLEDGER_RETURN_NOT_OK(dec->GetI64(&h.timestamp));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU64(&h.nonce));
  PROVLEDGER_RETURN_NOT_OK(dec->GetString(&h.proposer));
  return h;
}

crypto::Digest BlockHeader::Hash() const {
  Encoder enc;
  EncodeTo(&enc);
  return crypto::Sha256::Hash(enc.buffer());
}

std::vector<Bytes> Block::TxLeaves(const std::vector<Transaction>& txs) {
  std::vector<Bytes> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.Encode());
  return leaves;
}

crypto::Digest Block::ComputeMerkleRoot(const std::vector<Transaction>& txs) {
  RootComputesCell()->Increment();
  return crypto::MerkleTree::Build(TxLeaves(txs)).root();
}

crypto::Digest Block::MerkleRootFromLeaves(
    const std::vector<crypto::Digest>& leaves) {
  RootComputesCell()->Increment();
  return crypto::MerkleTree::BuildFromDigests(leaves).root();
}

Block Block::Make(uint64_t height, const crypto::Digest& prev_hash,
                  std::vector<Transaction> txs, Timestamp timestamp,
                  const std::string& proposer) {
  Block b;
  b.header.height = height;
  b.header.prev_hash = prev_hash;
  b.header.timestamp = timestamp;
  b.header.proposer = proposer;
  b.header.merkle_root = ComputeMerkleRoot(txs);
  b.transactions = std::move(txs);
  return b;
}

Result<crypto::MerkleProof> Block::ProveTransaction(size_t index) const {
  if (index >= transactions.size()) {
    return Status::InvalidArgument("transaction index out of range");
  }
  return crypto::MerkleTree::Build(TxLeaves(transactions)).Prove(index);
}

Bytes Block::Encode() const {
  Encoder enc;
  header.EncodeTo(&enc);
  enc.PutU32(static_cast<uint32_t>(transactions.size()));
  for (const auto& tx : transactions) tx.EncodeTo(&enc);
  return enc.TakeBuffer();
}

Result<Block> Block::Decode(const Bytes& data) {
  Decoder dec(data);
  Block b;
  PROVLEDGER_ASSIGN_OR_RETURN(b.header, BlockHeader::DecodeFrom(&dec));
  uint32_t count = 0;
  PROVLEDGER_RETURN_NOT_OK(dec.GetU32(&count));
  // The count prefix is untrusted: the smallest encoded transaction is far
  // larger than 4 bytes, so a count beyond remaining/4 cannot be satisfied
  // by the payload — reject it before reserving storage for it.
  if (count > dec.remaining() / 4) {
    return Status::Corruption("block transaction count exceeds payload");
  }
  b.transactions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PROVLEDGER_ASSIGN_OR_RETURN(Transaction tx, Transaction::DecodeFrom(&dec));
    b.transactions.push_back(std::move(tx));
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes after block");
  return b;
}

}  // namespace ledger
}  // namespace provledger
