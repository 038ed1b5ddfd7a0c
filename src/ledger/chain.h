// The blockchain: a validated block tree with longest-chain fork choice,
// transaction indexes, tamper detection, and SPV-style transaction proofs.
//
// This is the "own ledger framework" substitute for the Ethereum/Fabric
// deployments of the surveyed systems (DESIGN.md §3): the mechanisms the
// paper evaluates — hash-chained immutability (Figure 2), Merkle anchoring,
// channel separation, reorg behaviour — are all first-class here.

#ifndef PROVLEDGER_LEDGER_CHAIN_H_
#define PROVLEDGER_LEDGER_CHAIN_H_

#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ledger/block.h"
#include "obs/metrics.h"

namespace provledger {
namespace ledger {

/// \brief Chain configuration.
struct ChainOptions {
  /// Human-readable chain identity; hashed into the genesis block so two
  /// chains with different ids never share block hashes.
  std::string chain_id = "provledger";
  /// Verify transaction signatures on block submission.
  bool verify_signatures = true;
  /// Accept unsigned (system) transactions.
  bool allow_unsigned = true;
  /// Maximum transactions per block (0 = unlimited).
  size_t max_block_txs = 0;
  /// Cap on cached per-block Merkle proof trees (FIFO eviction; 0 =
  /// unlimited). Bounds proof-cache memory on long-lived nodes.
  size_t merkle_cache_blocks = 1024;
  /// Metric registry for append/validate timers, the height gauge, and the
  /// Merkle-build counter (nullptr = obs::Registry::Default()).
  obs::Registry* registry = nullptr;
};

/// \brief Where a transaction lives on the main chain.
struct TxLocation {
  uint64_t height = 0;
  uint32_t index = 0;
};

/// \brief A transaction inclusion proof verifiable against a block header
/// plus the chain of headers up to the head (the auditor/relay primitive).
struct TxProof {
  crypto::Digest block_hash;
  BlockHeader header;
  crypto::MerkleProof merkle_proof;
};

/// \brief Hash functor for digest-keyed maps. SHA-256 output is uniform,
/// so its first 8 bytes are already a well-spread hash. Unseeded, like
/// std::hash: no weaker against flooding than hashing any encoding of the
/// digest.
struct DigestHash {
  size_t operator()(const crypto::Digest& d) const {
    size_t h;
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

/// \brief A block as the chain stores it: the block, the hash it was
/// accepted under, and the two digests acceptance derived from one
/// canonical encoding of each transaction (64 B/tx, side branches
/// included). The transaction index, the store's record index and the
/// proof trees read these instead of re-encoding and re-hashing. Nothing
/// that checks integrity trusts them: verifiers hash the transaction bytes
/// themselves, so a tampered transaction still fails its proof.
struct StoredBlock {
  Block block;
  crypto::Digest hash;
  /// MerkleTree::LeafHash of each transaction's encoding, in block order.
  std::vector<crypto::Digest> leaves;
  /// Transaction::Id() of each transaction, in block order.
  std::vector<crypto::Digest> ids;
};

/// \brief An immutable view of the main chain at one instant: every
/// main-chain block by height plus the hash it was installed under.
/// Published by the chain's owner thread on every accepted block and
/// acquired wait-free by background readers (the continuous auditor),
/// mirroring the store's GraphSnapshot epochs.
///
/// Heights are grouped into chunks of kChunkBlocks. A full chunk is sealed
/// once and then shared by shared_ptr between every later view, the
/// row-group idiom of prov/row_group.h; only the open tail chunk is copied
/// into each view. Publishing after an append thus costs
/// O(kChunkBlocks + height / kChunkBlocks) pointer copies instead of
/// O(height); a reorg rebuilds the chunks in full. The blocks are shared
/// with the live chain, which never mutates an installed block
/// (TamperForTesting is the single, documented, single-threaded-test
/// exception).
///
/// Thread safety: immutable once published — safe from any number of
/// threads. Holding the shared_ptr keeps the view (and every block behind
/// it) alive across reorgs on the live chain.
class ChainView {
 public:
  /// Heights per chunk. A constant, not an option.
  static constexpr size_t kChunkBlocks = 128;

  /// Height of the view's head (genesis = 0). Views are never empty.
  uint64_t height() const {
    return static_cast<uint64_t>(sealed_.size() * kChunkBlocks +
                                 open_.size()) -
           1;
  }
  /// Main-chain block at height `h` (h <= height()).
  const Block& block(uint64_t h) const { return At(h).block; }
  /// Hash the block at `h` was installed under — read from the chain's
  /// index, never re-derived from the header.
  const crypto::Digest& hash(uint64_t h) const { return At(h).hash; }

 private:
  friend class Blockchain;
  using Chunk = std::vector<std::shared_ptr<const StoredBlock>>;

  const StoredBlock& At(uint64_t h) const {
    const size_t chunk = static_cast<size_t>(h / kChunkBlocks);
    const size_t slot = static_cast<size_t>(h % kChunkBlocks);
    return chunk < sealed_.size() ? *(*sealed_[chunk])[slot] : *open_[slot];
  }
  /// Owner-side growth: append the next height, sealing a full chunk.
  void Push(std::shared_ptr<const StoredBlock> block);

  std::vector<std::shared_ptr<const Chunk>> sealed_;
  Chunk open_;
};

/// \brief A transaction whose expensive digests were precomputed off the
/// commit path (by ingest-pipeline shard workers): `id` is Transaction::
/// Id() and `leaf` is MerkleTree::LeafHash over the same canonical
/// encoding. AppendPrepared trusts them, so they must come from those
/// exact functions — a mismatched digest corrupts the chain's indexes.
struct PreparedTx {
  Transaction tx;
  crypto::Digest id;
  crypto::Digest leaf;
};

/// \brief Block tree + longest-chain view.
///
/// Thread safety: NOT internally synchronized; one thread (or external
/// locking) must own all access. Const proof methods populate a mutable
/// Merkle-tree cache, so even concurrent read-only use requires external
/// synchronization. The ingest pipeline satisfies this by funnelling every
/// chain call through its single committer thread. One deliberate
/// exception, safe from any thread with no lock:
///   * AcquireChainView() — one atomic shared_ptr load of the immutable
///     view the owner thread republished on its last accepted block (the
///     same epoch-publication idiom as ProvenanceStore::AcquireSnapshot).
class Blockchain {
 public:
  explicit Blockchain(ChainOptions options = ChainOptions());

  const ChainOptions& options() const { return options_; }

  /// Height of the main-chain head (genesis = 0).
  uint64_t height() const;
  crypto::Digest head_hash() const;
  const Block& genesis() const;

  /// \brief Build, validate, and append a block of `txs` on the current
  /// head: derives each transaction's leaf and id from one encoding, then
  /// runs AppendPrepared. Returns the new block's hash.
  Result<crypto::Digest> Append(std::vector<Transaction> txs,
                                Timestamp timestamp,
                                const std::string& proposer,
                                uint64_t nonce = 0);

  /// \brief Append a block of transactions whose encodings were already
  /// hashed by the caller (see PreparedTx). The one local block-assembly
  /// path (Append and the store's commit both end here): the Merkle root
  /// is assembled from the cached leaf digests (no re-encode, no re-hash)
  /// and the transaction index reuses the cached ids (both are stored with
  /// the block, see StoredBlock), so each transaction's bytes are hashed
  /// exactly once over its whole anchoring lifetime.
  /// `precomputed_root` (optional) skips even the digest-level tree
  /// build: pass the root of exactly these leaves in this order (the
  /// pipeline's shard workers compute it off-thread); a wrong root
  /// corrupts the chain the same way a wrong leaf digest would.
  /// Validation parity with SubmitBlock otherwise (height/link/timestamp/
  /// signature checks, block sink ordering). Returns the new block hash.
  /// `*txs` is consumed on success and left INTACT on failure — a
  /// rejected block (validation, block-sink/durability error) hands the
  /// prepared transactions back so the caller can retry without losing
  /// one.
  Result<crypto::Digest> AppendPrepared(
      std::vector<PreparedTx>* txs, Timestamp timestamp,
      const std::string& proposer, uint64_t nonce = 0,
      const crypto::Digest* precomputed_root = nullptr);

  /// \brief Submit an externally built block (fork-aware). The block is
  /// fully validated; if it extends a side branch that becomes strictly
  /// longer than the main chain, a reorg adopts it.
  Status SubmitBlock(const Block& block);

  /// \brief Install a durability sink invoked for every accepted block
  /// (main chain or side branch), after validation but before any chain
  /// state mutates — write-ahead ordering. A sink error rejects the block,
  /// so in-memory state never runs ahead of the persisted log. Pass nullptr
  /// to detach. Blocks replayed *from* the sink's storage should be
  /// submitted with the sink detached, or they would be re-persisted.
  void SetBlockSink(std::function<Status(const Block&)> sink) {
    block_sink_ = std::move(sink);
  }

  /// Hash of the main-chain block at `height`, read straight from the
  /// height index — never re-derived by hashing the header. NotFound past
  /// the head. The replication sync protocol's height/head-hash exchange
  /// and the snapshot chain-binding both use this.
  Result<crypto::Digest> BlockHashAt(uint64_t height) const;
  /// Borrowed views of the main-chain blocks [from, from + max_blocks),
  /// clipped to the head (empty when `from` is past it). The cheap ranged
  /// read behind catch-up block serving; views are valid until the next
  /// chain mutation, like PeekBlock.
  std::vector<const Block*> PeekRange(uint64_t from, size_t max_blocks) const;

  /// \brief Latest published main-chain view. Wait-free; safe from any
  /// thread. The view reflects the chain as of the last block accepted
  /// before the load, and stays valid (and unchanged) for as long as the
  /// pointer is held — the continuous auditor reads whole passes from one
  /// acquired view while the committer keeps appending. Never nullptr
  /// (the constructor publishes the genesis-only view).
  std::shared_ptr<const ChainView> AcquireChainView() const;

  /// Main-chain block by height.
  Result<Block> GetBlock(uint64_t height) const;
  /// Borrowed view of a main-chain block, or nullptr if out of range.
  /// Valid until the next chain mutation; use when iterating without the
  /// deep copy GetBlock makes.
  const Block* PeekBlock(uint64_t height) const;
  /// Transaction ids of the main-chain block at `height`, in transaction
  /// order, as acceptance derived them (see StoredBlock) — no re-encode,
  /// no re-hash. nullptr past the head; valid until the next chain
  /// mutation, like PeekBlock.
  const std::vector<crypto::Digest>* PeekTxIds(uint64_t height) const;
  /// Any known block (main or side) by hash.
  Result<Block> GetBlockByHash(const crypto::Digest& hash) const;
  /// Main-chain header by height: a copy of the stored header only.
  Result<BlockHeader> GetHeader(uint64_t height) const;

  /// Locate a transaction on the main chain by id.
  Result<TxLocation> FindTransaction(const crypto::Digest& txid) const;
  /// Fetch a transaction by id.
  Result<Transaction> GetTransaction(const crypto::Digest& txid) const;
  /// All main-chain transactions on `channel` in chain order.
  std::vector<Transaction> GetChannelTransactions(
      const std::string& channel) const;

  /// Merkle + header proof of inclusion for a transaction.
  Result<TxProof> ProveTransaction(const crypto::Digest& txid) const;
  /// Verify a TxProof against this chain's main-chain headers.
  bool VerifyTxProof(const Bytes& tx_encoding, const TxProof& proof) const;
  /// Header-only verification (what a light client / relay holds).
  static bool VerifyTxProofAgainstHeader(const Bytes& tx_encoding,
                                         const TxProof& proof);

  /// \brief Full-chain integrity scan: hash links, Merkle roots,
  /// signatures. Returns Corruption with the offending height otherwise
  /// (the paper's tamper-evidence property, exercised by bench_fig2).
  Status VerifyIntegrity() const;

  /// Number of blocks on the main chain (height + 1).
  size_t main_chain_length() const { return main_chain_.size(); }
  /// Total blocks known including side branches.
  size_t total_blocks() const { return blocks_.size(); }
  /// Total encoded bytes of main-chain blocks (storage-overhead metric).
  size_t ApproximateBytes() const;

  /// Test hook: mutate a stored transaction payload in place, bypassing
  /// validation (for tamper-detection experiments). Writes through the
  /// shared immutability of installed blocks (const_cast), so it must only
  /// run while no other thread holds a ChainView — single-threaded tamper
  /// tests only, never under concurrent readers.
  Status TamperForTesting(uint64_t height, size_t tx_index, uint8_t xor_mask);

 private:
  /// Header of a block extending the current head.
  BlockHeader HeaderOnHead(const crypto::Digest& merkle_root,
                           Timestamp timestamp, const std::string& proposer,
                           uint64_t nonce) const;
  /// Height/timestamp/size/signature checks against `parent`, and no
  /// transaction id twice in `digests->ids`. With `derive`, the block came
  /// from outside (SubmitBlock): each transaction's leaf and id are first
  /// derived from one encoding into `*digests` and the header's Merkle
  /// root is checked against those leaves. AppendPrepared passes the
  /// digests it already holds: its root was assembled from those very
  /// digests, one call earlier.
  Status ValidateBlock(const Block& block, const Block& parent, bool derive,
                       StoredBlock* digests) const;
  /// Every fallible acceptance step — duplicate check, parent lookup,
  /// validation, block-sink write — without consuming the block, all
  /// inside chain_validate_seconds. Callers that need the transactions
  /// back on failure (AppendPrepared's retry hand-back) run this first;
  /// the block is only moved into the chain by InstallBlock after this
  /// succeeds. `digests->hash` is block.header.Hash(), computed once per
  /// acceptance; `derive` and `digests` are as for ValidateBlock.
  Status ValidateAndPersist(const Block& block, bool derive,
                            StoredBlock* digests);
  /// Infallible final stage: store the block (by move) and run fork
  /// choice. `stored` carries the block, its hash and its digests. Must
  /// only be called after ValidateAndPersist succeeded (or for genesis).
  void InstallBlock(StoredBlock&& stored);
  /// Point every transaction id of `stored` at its main-chain location.
  void IndexTransactions(const StoredBlock& stored);
  void ReindexMainChain();
  /// Atomically publish a copy of view_parts_ as the current ChainView.
  /// Owner thread only; called after every install/reorg. The copy shares
  /// every sealed chunk, so it costs O(chunk + height / chunk) pointer
  /// copies: a full O(height) rebuild per block measured as the largest
  /// single share of a replicated commit.
  void RepublishChainView();
  /// Cached Merkle tree over `stored`'s transactions, built on a miss from
  /// its stored leaf digests (no re-encode, no leaf re-hash). Blocks are
  /// immutable once stored, so entries survive reorgs.
  const crypto::MerkleTree& TreeFor(const StoredBlock& stored) const;

  ChainOptions options_;
  // All known blocks (main and side branches) by header hash. Blocks are
  // heap-shared and immutable once installed so published ChainViews can
  // alias them without copies (TamperForTesting's const_cast is the lone
  // documented exception).
  std::unordered_map<crypto::Digest, std::shared_ptr<const StoredBlock>,
                     DigestHash>
      blocks_;
  // Main chain by height; entries alias blocks_.
  std::vector<std::shared_ptr<const StoredBlock>> main_chain_;
  // The main chain in ChainView form, grown by the owner thread and copied
  // (sealed chunks shared) into every published view.
  ChainView view_parts_;
  // Latest published main-chain view; accessed with std::atomic_load/
  // atomic_store so AcquireChainView never locks. Deliberately NOT
  // PROV_GUARDED_BY anything (annotations.h): there is no lock —
  // publication IS the atomic_store, acquisition the atomic_load;
  // everything behind the pointer is immutable.
  std::shared_ptr<const ChainView> view_;
  // txid -> location, main chain only.
  std::unordered_map<crypto::Digest, TxLocation, DigestHash> tx_index_;
  // block hash -> Merkle tree over its transactions (proof cache), bounded
  // by options_.merkle_cache_blocks with FIFO eviction.
  mutable std::unordered_map<crypto::Digest, crypto::MerkleTree, DigestHash>
      merkle_cache_;
  mutable std::deque<crypto::Digest> merkle_cache_order_;
  std::function<Status(const Block&)> block_sink_;
  // Cached registry cells (resolved once in the constructor); hot-path
  // updates are single relaxed atomic ops.
  obs::Histogram* append_seconds_;
  obs::Histogram* validate_seconds_;
  obs::Counter* merkle_builds_total_;
  obs::Gauge* height_gauge_;
};

/// \brief FIFO mempool with id-dedup and signature pre-validation.
class Mempool {
 public:
  explicit Mempool(bool verify_signatures = true)
      : verify_signatures_(verify_signatures) {}

  /// Queue a transaction; AlreadyExists on duplicate id.
  Status Add(const Transaction& tx);
  /// Pop up to `max_count` transactions in arrival order (0 = all).
  std::vector<Transaction> Take(size_t max_count = 0);
  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

 private:
  bool verify_signatures_;
  // (id, transaction) in arrival order; the id is kept so Take never
  // re-hashes.
  std::deque<std::pair<crypto::Digest, Transaction>> queue_;
  std::unordered_set<crypto::Digest, DigestHash> seen_;
};

}  // namespace ledger
}  // namespace provledger

#endif  // PROVLEDGER_LEDGER_CHAIN_H_
