#include "crypto/merkle.h"

namespace provledger {
namespace crypto {

void MerkleProof::EncodeTo(Encoder* enc) const {
  enc->PutU64(leaf_index);
  enc->PutU32(static_cast<uint32_t>(steps.size()));
  for (const auto& s : steps) {
    enc->PutRaw(s.sibling.data(), s.sibling.size());
    enc->PutBool(s.sibling_on_left);
  }
}

Result<MerkleProof> MerkleProof::DecodeFrom(Decoder* dec) {
  MerkleProof proof;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU64(&proof.leaf_index));
  uint32_t n;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&n));
  // Bound the count against the bytes actually present before allocating:
  // each step consumes at least 33 bytes (32 sibling + 1 side flag), so a
  // forged count can never drive an allocation past the input size. Proof
  // bytes arrive from untrusted peers via LineageProof decoding.
  if (n > dec->remaining() / (kSha256DigestSize + 1)) {
    return Status::Corruption("merkle proof step count exceeds input");
  }
  proof.steps.resize(n);
  for (MerkleProofStep& step : proof.steps) {
    PROVLEDGER_RETURN_NOT_OK(
        dec->GetRaw(step.sibling.size(), step.sibling.data()));
    PROVLEDGER_RETURN_NOT_OK(dec->GetBool(&step.sibling_on_left));
  }
  return proof;
}

Digest MerkleTree::LeafHash(const Bytes& payload) {
  Sha256 h;
  uint8_t prefix = 0x00;
  h.Update(&prefix, 1);
  h.Update(payload);
  return h.Finish();
}

Digest MerkleTree::NodeHash(const Digest& left, const Digest& right) {
  Sha256 h;
  uint8_t prefix = 0x01;
  h.Update(&prefix, 1);
  h.Update(left.data(), left.size());
  h.Update(right.data(), right.size());
  return h.Finish();
}

MerkleTree MerkleTree::Build(const std::vector<Bytes>& leaves) {
  std::vector<Digest> digests;
  digests.reserve(leaves.size());
  for (const auto& leaf : leaves) digests.push_back(LeafHash(leaf));
  return BuildFromDigests(digests);
}

MerkleTree MerkleTree::BuildFromDigests(
    const std::vector<Digest>& leaf_digests) {
  MerkleTree tree;
  tree.leaf_count_ = leaf_digests.size();
  if (leaf_digests.empty()) return tree;

  tree.levels_.push_back(leaf_digests);
  while (tree.levels_.back().size() > 1) {
    const auto& prev = tree.levels_.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t i = 0; i < prev.size(); i += 2) {
      const Digest& left = prev[i];
      const Digest& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(NodeHash(left, right));
    }
    tree.levels_.push_back(std::move(next));
  }
  tree.root_ = tree.levels_.back()[0];
  return tree;
}

Result<MerkleProof> MerkleTree::Prove(uint64_t index) const {
  if (index >= leaf_count_) {
    return Status::InvalidArgument("merkle proof index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = index;
  uint64_t pos = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    uint64_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    MerkleProofStep step;
    step.sibling_on_left = (pos % 2 == 1);
    // Odd level: last node is its own sibling (duplicated).
    step.sibling = (sibling < nodes.size()) ? nodes[sibling] : nodes[pos];
    proof.steps.push_back(step);
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProofDigest(const Digest& root,
                                   const Digest& leaf_digest,
                                   const MerkleProof& proof) {
  Digest current = leaf_digest;
  for (const auto& step : proof.steps) {
    current = step.sibling_on_left ? NodeHash(step.sibling, current)
                                   : NodeHash(current, step.sibling);
  }
  return current == root;
}

bool MerkleTree::VerifyProof(const Digest& root, const Bytes& leaf_payload,
                             const MerkleProof& proof) {
  return VerifyProofDigest(root, LeafHash(leaf_payload), proof);
}

}  // namespace crypto
}  // namespace provledger
