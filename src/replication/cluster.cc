#include "replication/cluster.h"

#include "common/fileio.h"

namespace provledger {
namespace replication {

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      net_(&clock_, options_.seed, options_.net) {}

ReplicatedNodeOptions Cluster::MakeNodeOptions(network::NodeId id) const {
  ReplicatedNodeOptions node_options;
  node_options.chain = options_.chain;
  node_options.store = options_.store;
  node_options.name = "node-" + std::to_string(id);
  node_options.catch_up_batch_blocks = options_.catch_up_batch_blocks;
  node_options.registry = registries_[id].get();
  if (!options_.data_dir.empty()) {
    node_options.data_dir = options_.data_dir + "/" + node_options.name;
  }
  return node_options;
}

Result<std::unique_ptr<Cluster>> Cluster::Create(ClusterOptions options) {
  if (options.num_nodes == 0) {
    return Status::InvalidArgument("cluster needs at least one node");
  }
  auto cluster = std::unique_ptr<Cluster>(new Cluster(std::move(options)));

  consensus::ConsensusConfig config = cluster->options_.consensus_config;
  config.num_nodes = cluster->options_.num_nodes;
  // Decouple the engine's randomness stream from the replication
  // network's: both derive from the one cluster seed, but not bit-equal.
  config.seed = cluster->options_.seed + 0x9E3779B97F4A7C15ULL;
  PROVLEDGER_ASSIGN_OR_RETURN(
      cluster->engine_,
      consensus::MakeEngine(cluster->options_.consensus, config));

  if (!cluster->options_.data_dir.empty()) {
    PROVLEDGER_RETURN_NOT_OK(EnsureDir(cluster->options_.data_dir));
  }
  for (uint32_t i = 0; i < cluster->options_.num_nodes; ++i) {
    cluster->registries_.push_back(std::make_unique<obs::Registry>());
  }
  for (uint32_t i = 0; i < cluster->options_.num_nodes; ++i) {
    ReplicatedNodeOptions node_options = cluster->MakeNodeOptions(i);
    if (!node_options.data_dir.empty()) {
      PROVLEDGER_RETURN_NOT_OK(EnsureDir(node_options.data_dir));
    }
    PROVLEDGER_ASSIGN_OR_RETURN(
        auto node, ReplicatedNode::Create(&cluster->clock_,
                                          std::move(node_options)));
    cluster->nodes_.push_back(std::move(node));
    // The trampoline pins the slot, not the node object, so Restart() can
    // swap in a recovered node under the same network id.
    Cluster* self = cluster.get();
    network::NodeId id = cluster->net_.AddNode(
        [self, i](const network::Message& m) {
          self->nodes_[i]->OnMessage(m);
        });
    cluster->nodes_[i]->BindNetwork(&cluster->net_, id);
  }
  return cluster;
}

Status Cluster::Submit(prov::ProvenanceRecord record) {
  PROVLEDGER_RETURN_NOT_OK(record.Validate());
  pending_.push_back(std::move(record));
  return Status::OK();
}

Status Cluster::CommitPending() { return CommitBatch(-1); }

Status Cluster::CommitPendingOn(network::NodeId proposer) {
  if (proposer >= nodes_.size()) {
    return Status::InvalidArgument("no such node");
  }
  if (!nodes_[proposer]->alive()) {
    return Status::FailedPrecondition("forced proposer is crashed");
  }
  return CommitBatch(static_cast<int32_t>(proposer));
}

Status Cluster::CommitBatch(int32_t forced_proposer) {
  if (pending_.empty()) return Status::OK();

  // Order the batch: the engine commits a digest of the batch contents
  // (the block itself forms on the proposer afterwards, sealed by the
  // chain's own validation).
  Encoder enc;
  for (const auto& record : pending_) record.EncodeTo(&enc);
  const crypto::Digest digest = crypto::Sha256::Hash(enc.buffer());
  PROVLEDGER_ASSIGN_OR_RETURN(consensus::CommitResult ordered,
                              engine_->Propose(crypto::DigestToBytes(digest)));
  metrics_.consensus_messages += ordered.metrics.messages;
  metrics_.consensus_bytes += ordered.metrics.bytes;
  metrics_.consensus_rounds += ordered.metrics.rounds;
  metrics_.consensus_latency_us += ordered.metrics.latency_us;
  // Ordering took simulated time; the block's timestamp reflects it.
  clock_.Advance(ordered.metrics.latency_us);

  network::NodeId proposer =
      forced_proposer >= 0 ? static_cast<network::NodeId>(forced_proposer)
                           : static_cast<network::NodeId>(ordered.proposer);
  if (proposer >= nodes_.size()) proposer = 0;
  if (!nodes_[proposer]->alive()) {
    // Leader-failure fallback: the ordering decision stands, but a dead
    // node cannot build the block — the next alive node (deterministic
    // scan) anchors it instead.
    network::NodeId fallback = proposer;
    for (size_t k = 1; k <= nodes_.size(); ++k) {
      network::NodeId candidate =
          static_cast<network::NodeId>((proposer + k) % nodes_.size());
      if (nodes_[candidate]->alive()) {
        fallback = candidate;
        break;
      }
    }
    if (fallback == proposer) {
      return Status::Unavailable("no alive node to propose the block");
    }
    proposer = fallback;
  }

  PROVLEDGER_RETURN_NOT_OK(nodes_[proposer]->ProposeBatch(pending_));
  ++metrics_.batches_committed;
  metrics_.records_committed += pending_.size();
  pending_.clear();
  net_.RunUntilIdle();
  return Status::OK();
}

void Cluster::Partition(
    const std::vector<std::set<network::NodeId>>& groups) {
  net_.PartitionGroups(groups);
}

void Cluster::Heal() { net_.Heal(); }

void Cluster::Crash(network::NodeId node) {
  if (node < nodes_.size()) nodes_[node]->set_alive(false);
}

Status Cluster::Restart(network::NodeId node) {
  if (node >= nodes_.size()) return Status::InvalidArgument("no such node");
  // "Process restart": the old object (its in-memory chain and store) is
  // discarded; the replacement recovers from whatever the durable layer
  // holds — chain log replayed through full validation, store restored
  // from snapshot + tail — then pulls the cluster tail from peers.
  PROVLEDGER_ASSIGN_OR_RETURN(
      auto revived, ReplicatedNode::Create(&clock_, MakeNodeOptions(node)));
  revived->BindNetwork(&net_, node);
  nodes_[node] = std::move(revived);
  nodes_[node]->RequestSync();
  net_.RunUntilIdle();
  return Status::OK();
}

Status Cluster::SaveSnapshot(network::NodeId node) {
  if (node >= nodes_.size()) return Status::InvalidArgument("no such node");
  return nodes_[node]->SaveSnapshot();
}

void Cluster::AntiEntropy() {
  for (auto& node : nodes_) {
    if (node->alive()) node->RequestSync();
  }
  net_.RunUntilIdle();
}

bool Cluster::Converged() const {
  const ReplicatedNode* reference = nullptr;
  for (const auto& node : nodes_) {
    if (!node->alive()) continue;
    if (reference == nullptr) {
      reference = node.get();
      continue;
    }
    if (node->height() != reference->height() ||
        node->head_hash() != reference->head_hash()) {
      return false;
    }
  }
  return reference != nullptr;
}

Result<crypto::Digest> Cluster::ConvergedHead() const {
  if (!Converged()) {
    return Status::FailedPrecondition("cluster has not converged");
  }
  for (const auto& node : nodes_) {
    if (node->alive()) return node->head_hash();
  }
  return Status::FailedPrecondition("no alive node");
}

}  // namespace replication
}  // namespace provledger
