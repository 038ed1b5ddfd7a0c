// ReplicatedNode: one full vertical provenance stack (Blockchain +
// ProvenanceStore + optional ChainLog/snapshot durability) speaking the
// block-replication protocol over network::SimNetwork.
//
// Protocol (all payloads use the canonical codec):
//   repl/block   — a freshly committed block, broadcast by its proposer;
//                  followers fully re-validate via Blockchain::SubmitBlock
//                  and index its records into their own store.
//   repl/status  — height + head hash (+ probe flag). The anti-entropy
//                  primitive: a probe asks the receiver to reply with its
//                  own status; any node that learns a peer is ahead pulls.
//   repl/pull    — ranged block fetch request (from_height).
//   repl/blocks  — a batch of encoded main-chain blocks answering a pull,
//                  plus the sender's height so the puller knows whether to
//                  continue. Every block replays through SubmitBlock.
//   repl/proof   — lineage-proof request: one record id. The receiver
//                  builds an audit::LineageProof from its store + chain.
//   repl/proofr  — the reply: ok flag, error message, proof bytes. The
//                  requester verifies with audit::VerifyLineageProof
//                  against nothing but its own main-chain headers — the
//                  serving node's store is never trusted.
//   repl/metrics — metrics scrape request: one format byte (0 = Prometheus
//                  text, 1 = JSON). The receiver serializes its own
//                  registry — every layer of its stack reports there.
//   repl/metricsr— the reply: the exposition text, landing in
//                  last_metrics() on the requester.
//
// Convergence invariants (tested in tests/replication_test.cc):
//   * a block enters a node's chain only through SubmitBlock — followers
//     re-validate everything (hash links, Merkle roots, signatures);
//   * the store indexes exactly the main-chain prefix; on a reorg the
//     store rebuilds from the adopted chain, so queries/audits always
//     describe the current main chain;
//   * catch-up walks pulls backwards past fork points until a fetched
//     batch attaches, then forward to the peer's head — lag and divergence
//     both converge without trusting anything but block validity.

#ifndef PROVLEDGER_REPLICATION_REPLICATED_NODE_H_
#define PROVLEDGER_REPLICATION_REPLICATED_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "ledger/chain_log.h"
#include "network/sim_network.h"
#include "obs/metrics.h"
#include "prov/store.h"

namespace provledger {
namespace replication {

/// \brief Per-node configuration.
struct ReplicatedNodeOptions {
  /// Chain configuration; `chain.chain_id` must match across the cluster
  /// (a block from a different chain id never attaches — its genesis link
  /// cannot resolve).
  ledger::ChainOptions chain;
  /// Store configuration; `store.proposer` is overridden with the node
  /// name so blocks record which node built them.
  prov::ProvenanceStoreOptions store;
  /// Durable state directory ("" = volatile node). When set, the node
  /// opens `<data_dir>/chain.log` write-ahead of chain state and recovers
  /// the store from `<data_dir>/store.snap` + chain-tail replay — the
  /// crash/rejoin path.
  std::string data_dir;
  /// Human-readable node name, used as block proposer identity.
  std::string name = "node";
  /// Max blocks served per repl/pull response (ranged catch-up stride).
  size_t catch_up_batch_blocks = 32;
  /// Ship repl/block and repl/blocks bodies in the columnar form
  /// (prov/columnar.h) instead of raw Block::Encode() bytes. Decoding is
  /// format-sniffing either way, so mixed-setting clusters interoperate;
  /// received blocks are re-validated in full by SubmitBlock regardless of
  /// how they traveled.
  bool columnar_wire = true;
  /// Metric registry this node's whole stack reports into (nullptr =
  /// obs::Registry::Default()). A repl/metrics scrape serializes exactly
  /// this registry, so multi-node-per-process tests should give each node
  /// its own instance; any registry set inside `chain`/`store` wins over
  /// this one for that layer.
  obs::Registry* registry = nullptr;
};

/// \brief Replication counters (per node).
struct NodeMetrics {
  uint64_t blocks_proposed = 0;   // blocks this node built and broadcast
  uint64_t blocks_applied = 0;    // peer blocks accepted via SubmitBlock
  uint64_t blocks_rejected = 0;   // peer blocks failing validation
  uint64_t pulls_sent = 0;        // catch-up fetch rounds initiated
  uint64_t blocks_served = 0;     // blocks shipped answering peer pulls
  uint64_t reorgs = 0;            // main-chain switches observed
  uint64_t store_rebuilds = 0;    // store rebuilds forced by reorgs
};

/// \brief One node of a replicated provenance cluster.
///
/// Thread safety: NOT internally synchronized — the discrete-event network
/// delivers messages on the driving thread, which must own all access
/// (same single-owner contract as Blockchain/ProvenanceStore).
class ReplicatedNode {
 public:
  /// Construct the node's stack. With a data_dir this is also the restart
  /// path: the chain reloads from the block log (full re-validation), the
  /// store recovers from the snapshot + chain-tail replay, and the caller
  /// should follow up with RequestSync() to fetch whatever the cluster
  /// committed while the node was down.
  static Result<std::unique_ptr<ReplicatedNode>> Create(
      Clock* clock, ReplicatedNodeOptions options);

  /// Attach to the replication network as `id` (the caller registered a
  /// handler forwarding to OnMessage). Must be called before any message
  /// flows.
  void BindNetwork(network::SimNetwork* net, network::NodeId id);

  /// Protocol entry point: dispatch one delivered message. Crashed nodes
  /// (alive() == false) drop everything silently.
  void OnMessage(const network::Message& message);

  /// Proposer path: anchor `records` as one block on the local stack
  /// (validate, dedup, Merkle-root, append — and persist write-ahead when
  /// durable), then broadcast the block to every peer.
  Status ProposeBatch(const std::vector<prov::ProvenanceRecord>& records);

  /// Anti-entropy round trigger: broadcast a status probe. Peers reply
  /// with their status; whichever side is behind pulls the missing range.
  void RequestSync();

  /// Ask `to` to prove `record_id`'s full ancestry (repl/proof). The
  /// repl/proofr reply lands in last_proof(); callers then verify the
  /// bytes with audit::VerifyLineageProof against their *own* headers —
  /// a storeless header-syncing node can consume proofs this way.
  void RequestLineageProof(network::NodeId to, const std::string& record_id);

  /// \brief The most recent repl/proofr reply (reset by each request).
  struct ProofReply {
    bool received = false;  // a reply arrived since the last request
    bool ok = false;        // the serving node could build the proof
    std::string message;    // server-side error when !ok (diagnostic only)
    Bytes proof;            // encoded audit::LineageProof when ok
  };
  const ProofReply& last_proof() const { return last_proof_; }

  /// Ask `to` for its metrics exposition (repl/metrics). The repl/metricsr
  /// reply lands in last_metrics() — the remote-scrape path: every node of
  /// a cluster can be monitored through the same wire its blocks travel.
  void RequestMetrics(network::NodeId to,
                      obs::ExpositionFormat format =
                          obs::ExpositionFormat::kPrometheusText);

  /// \brief The most recent repl/metricsr reply (reset by each request).
  struct MetricsReply {
    bool received = false;  // a reply arrived since the last request
    std::string body;       // the serving node's exposition text
  };
  const MetricsReply& last_metrics() const { return last_metrics_; }

  /// The registry this node's stack reports into (see options().registry).
  obs::Registry* registry() const { return registry_; }

  /// Persist the store snapshot to `<data_dir>/store.snap` (durable nodes
  /// only; FailedPrecondition otherwise). Restart = snapshot + chain tail.
  Status SaveSnapshot() const;

  /// Crash-fault injection: a dead node neither receives nor sends.
  void set_alive(bool alive) { alive_ = alive; }
  bool alive() const { return alive_; }

  uint64_t height() const { return chain_.height(); }
  crypto::Digest head_hash() const { return chain_.head_hash(); }
  /// True when no catch-up pull is outstanding.
  bool synced() const { return !sync_in_flight_; }

  ledger::Blockchain* chain() { return &chain_; }
  const ledger::Blockchain& chain() const { return chain_; }
  prov::ProvenanceStore* store() { return store_.get(); }
  const prov::ProvenanceStore& store() const { return *store_; }
  ledger::ChainLog* chain_log() { return log_.get(); }
  const NodeMetrics& metrics() const { return metrics_; }
  const ReplicatedNodeOptions& options() const { return options_; }
  const std::string& name() const { return options_.name; }

  /// Snapshot file path for this node ("" when volatile).
  std::string snapshot_path() const;

 private:
  explicit ReplicatedNode(Clock* clock, ReplicatedNodeOptions options);

  /// Apply a peer-broadcast block: SubmitBlock (full validation), then
  /// bring the store in line with the (possibly reorged) main chain. A
  /// block whose parent is unknown marks us lagging and triggers a pull
  /// from the sender instead.
  void ApplyPeerBlock(const ledger::Block& block, network::NodeId from);
  /// Index every main-chain block the store has not seen; on a reorg
  /// (the applied prefix left the main chain) rebuild the store from the
  /// adopted chain.
  Status SyncStoreWithChain();
  /// The repl/status wire payload (probe flag + height + head hash) —
  /// the one encoding both RequestSync broadcasts and SendStatus replies
  /// use, so HandleStatus can never disagree with half of its senders.
  Bytes StatusPayload(bool probe) const;
  void SendStatus(network::NodeId to, bool probe);
  void SendPull(network::NodeId to, uint64_t from_height);
  void HandleStatus(const network::Message& message);
  void HandlePull(const network::Message& message);
  void HandleBlocks(const network::Message& message);
  void HandleProofRequest(const network::Message& message);
  void HandleProofReply(const network::Message& message);
  void HandleMetricsRequest(const network::Message& message);
  void HandleMetricsReply(const network::Message& message);
  /// Count one delivered message on the per-type counters.
  void CountMessage(const std::string& type, size_t payload_bytes);

  Clock* clock_;
  ReplicatedNodeOptions options_;
  // Resolved before chain_ (declaration order is initialization order) so
  // the chain/store/log options can inherit it.
  obs::Registry* registry_;
  ledger::Blockchain chain_;
  std::unique_ptr<ledger::ChainLog> log_;
  std::unique_ptr<prov::ProvenanceStore> store_;
  network::SimNetwork* net_ = nullptr;
  network::NodeId id_ = 0;
  bool alive_ = true;
  // Highest main-chain height the store has indexed, and the hash of that
  // block — the reorg detector: if the hash at applied_height_ changes,
  // the indexed prefix left the main chain.
  uint64_t applied_height_ = 0;
  crypto::Digest applied_hash_ = crypto::ZeroDigest();
  // One outstanding catch-up conversation at a time; duplicate triggers
  // (every peer's status says "you are behind") collapse into it. A
  // conversation whose reply was dropped is detected as "no new blocks
  // (main or side branch) since the pull went out" and re-armed by the
  // next block broadcast (RequestSync also resets it).
  bool sync_in_flight_ = false;
  uint64_t last_pull_from_ = 0;
  size_t blocks_at_pull_ = 0;
  ProofReply last_proof_;
  MetricsReply last_metrics_;
  NodeMetrics metrics_;

  // Cached registry cells (resolved once in the constructor). The
  // per-message-type counters are parallel to the protocol tag table in
  // the .cc (kTypeCount entries).
  obs::Counter* msg_total_[8];
  obs::Counter* msg_bytes_[8];
  obs::Gauge* catchup_lag_gauge_;
  obs::Counter* proofs_served_total_;
  obs::Counter* sync_failures_total_;
};

}  // namespace replication
}  // namespace provledger

#endif  // PROVLEDGER_REPLICATION_REPLICATED_NODE_H_
