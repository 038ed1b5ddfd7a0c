// Blocks: header (prev-hash link + Merkle root over transactions, Figure 2
// of the paper) and body. Any mutation of any historical transaction breaks
// either the Merkle root or the hash chain — the immutability property the
// paper identifies as blockchain's key contribution to provenance.
//
// Thread safety: plain value types — distinct instances are independent;
// concurrent const access to one instance is safe, any mutation needs
// external coordination.

#ifndef PROVLEDGER_LEDGER_BLOCK_H_
#define PROVLEDGER_LEDGER_BLOCK_H_

#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "ledger/transaction.h"

namespace provledger {
namespace ledger {

/// \brief Fixed-layout block header; the block id is the hash of its
/// canonical encoding.
struct BlockHeader {
  uint64_t height = 0;
  crypto::Digest prev_hash = crypto::ZeroDigest();
  crypto::Digest merkle_root = crypto::ZeroDigest();
  Timestamp timestamp = 0;
  /// Consensus-specific seal (PoW nonce, PoS slot, view/term number).
  uint64_t nonce = 0;
  /// Identity of the proposing node/organization.
  std::string proposer;

  void EncodeTo(Encoder* enc) const;
  static Result<BlockHeader> DecodeFrom(Decoder* dec);
  /// Block id.
  crypto::Digest Hash() const;
};

/// \brief A block: header plus ordered transactions.
struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  /// Build a block over `txs`, computing the Merkle root.
  static Block Make(uint64_t height, const crypto::Digest& prev_hash,
                    std::vector<Transaction> txs, Timestamp timestamp,
                    const std::string& proposer);

  /// Merkle root over the canonical transaction encodings.
  static crypto::Digest ComputeMerkleRoot(
      const std::vector<Transaction>& txs);
  /// Merkle root over leaf digests already computed from those encodings
  /// (MerkleTree::LeafHash of each). Both root functions count each call
  /// in the default registry's merkle_root_computes_total — the hash-work
  /// counter behind the "one root per locally built block" invariant (a
  /// block built by this process must not be re-rooted when the same
  /// process validates it).
  static crypto::Digest MerkleRootFromLeaves(
      const std::vector<crypto::Digest>& leaves);

  /// Merkle leaf payloads for `txs` — the single definition of the leaf
  /// domain, shared by root computation and every proof tree so the two
  /// can never diverge.
  static std::vector<Bytes> TxLeaves(const std::vector<Transaction>& txs);

  /// Inclusion proof for transaction `index` against header.merkle_root —
  /// the SPV primitive used by auditors and cross-chain relays.
  Result<crypto::MerkleProof> ProveTransaction(size_t index) const;

  Bytes Encode() const;
  static Result<Block> Decode(const Bytes& data);

  /// Total encoded size (storage-overhead metric).
  size_t EncodedSize() const { return Encode().size(); }
};

}  // namespace ledger
}  // namespace provledger

#endif  // PROVLEDGER_LEDGER_BLOCK_H_
