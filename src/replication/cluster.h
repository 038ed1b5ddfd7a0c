// Cluster: a deterministic in-process N-node replicated provenance cluster.
//
// One seed drives everything — the shared SimClock, the replication
// SimNetwork (latency/jitter/drops/partitions), and the consensus engine —
// so every scenario (partition/heal, leader failure, crash/rejoin) replays
// bit-identically. The commit path mirrors the deployments the paper's
// §2.1/§6.1 systems evaluate: a batch of provenance transactions is ordered
// through a pluggable consensus::Engine, the elected proposer anchors it as
// one block on its own full stack, and the block replicates to every peer,
// which re-validates and indexes it locally — so any node answers
// snapshot-isolated queries over the same ledger.

#ifndef PROVLEDGER_REPLICATION_CLUSTER_H_
#define PROVLEDGER_REPLICATION_CLUSTER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/engine.h"
#include "replication/replicated_node.h"

namespace provledger {
namespace replication {

/// \brief Cluster configuration.
struct ClusterOptions {
  uint32_t num_nodes = 4;
  /// Single seed for the network, the consensus engine, and the clock-driven
  /// delivery order.
  uint64_t seed = 1;
  /// Consensus engine ordering commits: "pow" | "pos" | "pbft" | "raft".
  std::string consensus = "raft";
  /// Extra engine knobs (difficulty, stakes, byzantine/crashed counts...).
  /// num_nodes and seed are overridden from the fields above.
  consensus::ConsensusConfig consensus_config;
  /// Replication-network behaviour (block broadcast + catch-up traffic).
  network::NetworkOptions net;
  /// Shared chain identity — every node derives the same genesis from it.
  ledger::ChainOptions chain;
  prov::ProvenanceStoreOptions store;
  /// Durable root ("" = volatile cluster). Node i persists under
  /// `<data_dir>/node-<i>/` (chain.log + store.snap) and can crash/restart.
  std::string data_dir;
  size_t catch_up_batch_blocks = 32;
};

/// \brief Cluster-level commit counters (consensus cost is per batch;
/// replication cost lives in net()->metrics()).
struct ClusterMetrics {
  uint64_t batches_committed = 0;
  uint64_t records_committed = 0;
  uint64_t consensus_messages = 0;
  uint64_t consensus_bytes = 0;
  uint64_t consensus_rounds = 0;
  int64_t consensus_latency_us = 0;
};

/// \brief N replicated nodes + consensus + network under one seed.
///
/// Thread safety: single-owner, like everything it composes.
class Cluster {
 public:
  /// Build the cluster: network, engine, and num_nodes freshly created (or
  /// recovered from `data_dir` when their logs already exist).
  static Result<std::unique_ptr<Cluster>> Create(ClusterOptions options);

  /// Queue a record for the next commit.
  Status Submit(prov::ProvenanceRecord record);
  size_t pending_count() const { return pending_.size(); }

  /// Commit every pending record as one block: the consensus engine orders
  /// the batch (its simulated latency elapses on the cluster clock), the
  /// engine-elected proposer — or, if that node is crashed, the next alive
  /// node (leader-failure fallback) — anchors and broadcasts, and delivery
  /// runs to idle. Pending records stay queued on failure.
  Status CommitPending();
  /// Same, but anchor on an explicit node (scenario control: e.g. forcing
  /// the proposer into the majority side of a partition).
  /// FailedPrecondition when that node is crashed.
  Status CommitPendingOn(network::NodeId proposer);

  /// Partition the replication network into named groups (consensus
  /// messages ride the engine's own internal network and are unaffected —
  /// the engine models the ordering service, not the replica links).
  void Partition(const std::vector<std::set<network::NodeId>>& groups);
  void Heal();

  /// Crash-fault injection: the node drops all traffic until restarted.
  /// Its durable state (chain log + last snapshot) is whatever was synced.
  void Crash(network::NodeId node);
  /// Rebuild node `node` from its durable state (snapshot + chain-log
  /// replay; volatile nodes restart empty), then catch it up from peers.
  Status Restart(network::NodeId node);
  /// Persist node `node`'s store snapshot (durable clusters only).
  Status SaveSnapshot(network::NodeId node);

  /// One anti-entropy round: every alive node broadcasts a status probe,
  /// then delivery runs to idle — lagging nodes pull whatever they miss.
  void AntiEntropy();
  /// Drain the replication network; returns messages delivered.
  size_t RunUntilIdle() { return net_.RunUntilIdle(); }

  /// True when every alive node reports the same height and head hash.
  bool Converged() const;
  /// The common head hash, or FailedPrecondition while diverged.
  Result<crypto::Digest> ConvergedHead() const;

  ReplicatedNode* node(network::NodeId id) { return nodes_[id].get(); }
  const ReplicatedNode& node(network::NodeId id) const { return *nodes_[id]; }
  /// Node `id`'s private metric registry (every node gets its own, so one
  /// node's `repl/metrics` answer never mixes in a peer's counters; the
  /// registry survives Crash()/Restart() so counters span incarnations).
  obs::Registry* registry(network::NodeId id) { return registries_[id].get(); }
  size_t size() const { return nodes_.size(); }
  SimClock* clock() { return &clock_; }
  network::SimNetwork* net() { return &net_; }
  consensus::ConsensusEngine* engine() { return engine_.get(); }
  const ClusterMetrics& metrics() const { return metrics_; }
  const ClusterOptions& options() const { return options_; }

 private:
  explicit Cluster(ClusterOptions options);

  ReplicatedNodeOptions MakeNodeOptions(network::NodeId id) const;
  Status CommitBatch(int32_t forced_proposer);

  ClusterOptions options_;
  SimClock clock_;
  network::SimNetwork net_;
  std::unique_ptr<consensus::ConsensusEngine> engine_;
  // One registry per node slot, created before the nodes and never
  // recycled — MakeNodeOptions wires slot i's registry into node i.
  std::vector<std::unique_ptr<obs::Registry>> registries_;
  std::vector<std::unique_ptr<ReplicatedNode>> nodes_;
  std::vector<prov::ProvenanceRecord> pending_;
  ClusterMetrics metrics_;
};

}  // namespace replication
}  // namespace provledger

#endif  // PROVLEDGER_REPLICATION_CLUSTER_H_
