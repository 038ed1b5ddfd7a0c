#include "replication/replicated_node.h"

#include "audit/lineage_proof.h"
#include "prov/columnar.h"

namespace provledger {
namespace replication {

namespace {

// Protocol message tags. kMessageTypes/kTypeCount index the per-type
// metric cells; keep all three lists in step.
constexpr char kMsgBlock[] = "repl/block";
constexpr char kMsgStatus[] = "repl/status";
constexpr char kMsgPull[] = "repl/pull";
constexpr char kMsgBlocks[] = "repl/blocks";
constexpr char kMsgProof[] = "repl/proof";
constexpr char kMsgProofReply[] = "repl/proofr";
constexpr char kMsgMetrics[] = "repl/metrics";
constexpr char kMsgMetricsReply[] = "repl/metricsr";

constexpr const char* kMessageTypes[] = {
    kMsgBlock, kMsgStatus,     kMsgPull,    kMsgBlocks,
    kMsgProof, kMsgProofReply, kMsgMetrics, kMsgMetricsReply,
};
constexpr size_t kTypeCount = sizeof(kMessageTypes) / sizeof(kMessageTypes[0]);

// Metric label for a tag: the part after "repl/".
const char* TypeLabel(const char* tag) { return tag + 5; }

// Fill the chain/store/log options' registry with the node's when unset.
ledger::ChainOptions ChainOptionsWith(ledger::ChainOptions chain,
                                      obs::Registry* registry) {
  if (chain.registry == nullptr) chain.registry = registry;
  return chain;
}

}  // namespace

ReplicatedNode::ReplicatedNode(Clock* clock, ReplicatedNodeOptions options)
    : clock_(clock),
      options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : obs::Registry::Default()),
      chain_(ChainOptionsWith(options_.chain, registry_)) {
  prov::ProvenanceStoreOptions store_options = options_.store;
  store_options.proposer = options_.name;
  if (store_options.registry == nullptr) store_options.registry = registry_;
  store_ = std::make_unique<prov::ProvenanceStore>(&chain_, clock_,
                                                   std::move(store_options));
  for (size_t i = 0; i < kTypeCount; ++i) {
    msg_total_[i] = registry_->GetCounter(
        "repl_messages_total", "Replication messages delivered, by type",
        {{"type", TypeLabel(kMessageTypes[i])}});
    msg_bytes_[i] = registry_->GetCounter(
        "repl_bytes_total", "Replication payload bytes delivered, by type",
        {{"type", TypeLabel(kMessageTypes[i])}});
  }
  catchup_lag_gauge_ = registry_->GetGauge(
      "repl_catchup_lag_blocks",
      "Blocks behind the tallest peer seen (0 once caught up)");
  proofs_served_total_ = registry_->GetCounter(
      "repl_proofs_served_total",
      "Lineage proofs built answering repl/proof requests");
  sync_failures_total_ = registry_->GetCounter(
      "repl_store_sync_failures_total",
      "Chain->store syncs that failed even after the rebuild fallback");
}

Result<std::unique_ptr<ReplicatedNode>> ReplicatedNode::Create(
    Clock* clock, ReplicatedNodeOptions options) {
  auto node = std::unique_ptr<ReplicatedNode>(
      new ReplicatedNode(clock, std::move(options)));
  if (!node->options_.data_dir.empty()) {
    // Restart path: the chain reloads from its write-ahead block log (every
    // block re-validated through SubmitBlock), then stays attached so every
    // block accepted from now on — proposed or replicated — persists before
    // chain state mutates. The store recovers from its snapshot plus the
    // chain tail, falling back to a full rebuild when the snapshot is
    // missing or stale.
    ledger::ChainLogOptions log_options;
    log_options.registry = node->registry_;
    PROVLEDGER_ASSIGN_OR_RETURN(
        node->log_, ledger::ChainLog::Open(
                        node->options_.data_dir + "/chain.log", log_options));
    PROVLEDGER_RETURN_NOT_OK(node->log_->AttachTo(&node->chain_));
    PROVLEDGER_RETURN_NOT_OK(node->store_->Recover(node->snapshot_path()));
  }
  node->applied_height_ = node->chain_.height();
  node->applied_hash_ = node->chain_.head_hash();
  return node;
}

void ReplicatedNode::BindNetwork(network::SimNetwork* net,
                                 network::NodeId id) {
  net_ = net;
  id_ = id;
}

std::string ReplicatedNode::snapshot_path() const {
  return options_.data_dir.empty() ? std::string()
                                   : options_.data_dir + "/store.snap";
}

Status ReplicatedNode::SaveSnapshot() const {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("volatile node has no snapshot path");
  }
  return store_->SaveSnapshot(snapshot_path());
}

Status ReplicatedNode::ProposeBatch(
    const std::vector<prov::ProvenanceRecord>& records) {
  if (records.empty()) return Status::OK();
  PROVLEDGER_RETURN_NOT_OK(store_->AnchorBatch(records));
  // AnchorBatch committed exactly one block on the head and indexed every
  // record, so the store tracker moves with it — no replay needed.
  applied_height_ = chain_.height();
  applied_hash_ = chain_.head_hash();
  ++metrics_.blocks_proposed;
  const ledger::Block* head = chain_.PeekBlock(chain_.height());
  if (net_ != nullptr && head != nullptr) {
    net_->Broadcast(id_, kMsgBlock,
                    options_.columnar_wire ? prov::columnar::EncodeBlock(*head)
                                           : head->Encode());
  }
  return Status::OK();
}

void ReplicatedNode::RequestSync() {
  if (net_ == nullptr) return;
  // A fresh anti-entropy round supersedes any stalled catch-up
  // conversation (e.g. a pull whose target crashed before answering).
  sync_in_flight_ = false;
  net_->Broadcast(id_, kMsgStatus, StatusPayload(/*probe=*/true));
}

void ReplicatedNode::CountMessage(const std::string& type,
                                  size_t payload_bytes) {
  for (size_t i = 0; i < kTypeCount; ++i) {
    if (type == kMessageTypes[i]) {
      msg_total_[i]->Increment();
      msg_bytes_[i]->Increment(payload_bytes);
      return;
    }
  }
}

void ReplicatedNode::OnMessage(const network::Message& message) {
  if (!alive_) return;  // a crashed node is silent until restarted
  CountMessage(message.type, message.payload.size());
  if (message.type == kMsgBlock) {
    // Format-sniffing decode: columnar and legacy peers look the same here.
    auto block = prov::columnar::DecodeBlock(message.payload);
    if (!block.ok()) {
      ++metrics_.blocks_rejected;
      return;
    }
    ApplyPeerBlock(block.value(), message.from);
  } else if (message.type == kMsgStatus) {
    HandleStatus(message);
  } else if (message.type == kMsgPull) {
    HandlePull(message);
  } else if (message.type == kMsgBlocks) {
    HandleBlocks(message);
  } else if (message.type == kMsgProof) {
    HandleProofRequest(message);
  } else if (message.type == kMsgProofReply) {
    HandleProofReply(message);
  } else if (message.type == kMsgMetrics) {
    HandleMetricsRequest(message);
  } else if (message.type == kMsgMetricsReply) {
    HandleMetricsReply(message);
  }
}

void ReplicatedNode::ApplyPeerBlock(const ledger::Block& block,
                                    network::NodeId from) {
  Status st = chain_.SubmitBlock(block);
  if (st.ok()) {
    ++metrics_.blocks_applied;
    // A failed sync already reset the applied-height tracker, so the next
    // broadcast/pull retries from genesis; count it so a node serving
    // degraded query results is visible to operators.
    if (!SyncStoreWithChain().ok()) sync_failures_total_->Increment();
    return;
  }
  if (st.IsAlreadyExists()) return;
  if (st.IsNotFound()) {
    // Parent unknown: we are lagging behind the proposer (or the block is
    // from a foreign chain — the pull resolves either way, since foreign
    // blocks never attach to our genesis). A sync conversation that made
    // no progress since its pull went out is treated as stalled (its
    // repl/blocks reply was dropped) and re-armed — new commits keep
    // arriving as broadcasts, so a lossy network retries at every commit.
    // Progress is measured in total blocks known, not main-chain height:
    // a fork fill-in attaches side-branch blocks for several rounds
    // before the height moves, and must not read as stalled.
    const bool stalled =
        sync_in_flight_ && chain_.total_blocks() == blocks_at_pull_;
    if (net_ != nullptr && (!sync_in_flight_ || stalled)) {
      SendPull(from, chain_.height() + 1);
    }
    return;
  }
  // Validation failure (bad Merkle root, broken link, bad signature, ...):
  // the divergent-fork rejection path. The block is dropped; our chain and
  // store are untouched.
  ++metrics_.blocks_rejected;
}

Status ReplicatedNode::SyncStoreWithChain() {
  // Reorg detector: if the hash at the last applied height changed, the
  // indexed prefix left the main chain and incremental replay would index
  // orphaned records.
  auto anchor = chain_.BlockHashAt(applied_height_);
  bool rebuild = !anchor.ok() || anchor.value() != applied_hash_;
  Status st;
  if (rebuild) {
    ++metrics_.reorgs;
  } else {
    for (uint64_t h = applied_height_ + 1; h <= chain_.height(); ++h) {
      st = store_->ApplyChainBlock(h);
      if (!st.ok()) {
        // A partially indexed block is no state to keep; the rebuild
        // below resets to a consistent view of the whole main chain.
        rebuild = true;
        break;
      }
    }
  }
  if (rebuild) {
    ++metrics_.store_rebuilds;
    st = store_->RebuildFromChain();
  }
  if (!st.ok()) {
    // RebuildFromChain reset the store to empty; make the tracker agree so
    // a later sync replays from genesis instead of assuming the prefix.
    applied_height_ = 0;
    applied_hash_ = chain_.BlockHashAt(0).value();
    return st;
  }
  applied_height_ = chain_.height();
  applied_hash_ = chain_.head_hash();
  return Status::OK();
}

Bytes ReplicatedNode::StatusPayload(bool probe) const {
  Encoder enc;
  enc.PutU8(probe ? 1 : 0);  // probe asks the receiver to reply in kind
  enc.PutU64(chain_.height());
  const crypto::Digest head = chain_.head_hash();
  enc.PutRaw(head.data(), head.size());
  return enc.TakeBuffer();
}

void ReplicatedNode::SendStatus(network::NodeId to, bool probe) {
  net_->Send(id_, to, kMsgStatus, StatusPayload(probe));
}

void ReplicatedNode::SendPull(network::NodeId to, uint64_t from_height) {
  sync_in_flight_ = true;
  last_pull_from_ = from_height;
  blocks_at_pull_ = chain_.total_blocks();
  ++metrics_.pulls_sent;
  Encoder enc;
  enc.PutU64(from_height);
  net_->Send(id_, to, kMsgPull, enc.TakeBuffer());
}

void ReplicatedNode::HandleStatus(const network::Message& message) {
  Decoder dec(message.payload);
  uint8_t probe = 0;
  uint64_t peer_height = 0;
  crypto::Digest peer_head{};
  if (!dec.GetU8(&probe).ok() || !dec.GetU64(&peer_height).ok() ||
      !dec.GetRaw(peer_head.size(), peer_head.data()).ok() ||
      !dec.AtEnd()) {
    return;  // short or oversized status: not a frame any peer sends
  }
  if (probe != 0 && net_ != nullptr) SendStatus(message.from, /*probe=*/false);
  // Height decides who pulls. Equal heights with different heads (a
  // symmetric fork) stay put until one side grows — longest-chain fork
  // choice needs a strictly longer branch to reorg anyway.
  if (peer_height > chain_.height()) {
    catchup_lag_gauge_->Set(
        static_cast<int64_t>(peer_height - chain_.height()));
    if (net_ != nullptr && !sync_in_flight_) {
      SendPull(message.from, chain_.height() + 1);
    }
  }
}

void ReplicatedNode::HandlePull(const network::Message& message) {
  if (net_ == nullptr) return;
  Decoder dec(message.payload);
  uint64_t from_height = 0;
  if (!dec.GetU64(&from_height).ok() || !dec.AtEnd()) return;
  auto blocks = chain_.PeekRange(from_height, options_.catch_up_batch_blocks);
  Encoder enc;
  enc.PutU64(chain_.height());
  enc.PutU32(static_cast<uint32_t>(blocks.size()));
  for (const ledger::Block* block : blocks) {
    enc.PutBytes(options_.columnar_wire ? prov::columnar::EncodeBlock(*block)
                                        : block->Encode());
  }
  metrics_.blocks_served += blocks.size();
  net_->Send(id_, message.from, kMsgBlocks, enc.TakeBuffer());
}

void ReplicatedNode::HandleBlocks(const network::Message& message) {
  // Parse the whole wire message before touching the chain: a frame that
  // is truncated mid-list or carries trailing bytes is dropped outright,
  // so a malformed batch can never half-apply.
  Decoder dec(message.payload);
  uint64_t sender_height = 0;
  uint32_t count = 0;
  if (!dec.GetU64(&sender_height).ok() || !dec.GetU32(&count).ok()) return;
  std::vector<Bytes> encoded_blocks;
  if (count > dec.remaining() / 4) return;  // each entry has a u32 prefix
  encoded_blocks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Bytes encoded;
    if (!dec.GetBytes(&encoded).ok()) return;
    encoded_blocks.push_back(std::move(encoded));
  }
  if (!dec.AtEnd()) return;
  size_t attached = 0;
  uint64_t attached_tip = 0;
  for (const Bytes& encoded : encoded_blocks) {
    auto block = prov::columnar::DecodeBlock(encoded);
    if (!block.ok()) {
      ++metrics_.blocks_rejected;
      continue;
    }
    Status st = chain_.SubmitBlock(block.value());
    if (st.ok()) {
      ++metrics_.blocks_applied;
      ++attached;
      if (block->header.height > attached_tip) {
        attached_tip = block->header.height;
      }
    } else if (!st.IsAlreadyExists() && !st.IsNotFound()) {
      ++metrics_.blocks_rejected;
    }
    // Only genuinely new blocks count as attach progress: a window of
    // AlreadyExists (the shared prefix below a fork) must keep the
    // back-step walking toward the fork point, and NotFound is a gap
    // below the pulled window that the back-step will cover.
  }
  // As above: failure resets the tracker for a from-genesis retry on the
  // next message; the counter keeps the degraded window observable.
  if (!SyncStoreWithChain().ok()) sync_failures_total_->Increment();
  if (chain_.height() >= sender_height || net_ == nullptr) {
    catchup_lag_gauge_->Set(0);
    sync_in_flight_ = false;
    return;
  }
  catchup_lag_gauge_->Set(
      static_cast<int64_t>(sender_height - chain_.height()));
  uint64_t next_from;
  if (attached == 0) {
    // Nothing in the window attached: the fork point (or our true chain
    // tip as the sender sees it) is below last_pull_from_. Walk the window
    // back one stride; from height 1 with still nothing attaching, the
    // sender's chain shares no genesis with ours — stop.
    const uint64_t stride = options_.catch_up_batch_blocks;
    next_from = last_pull_from_ > stride ? last_pull_from_ - stride : 1;
    if (next_from == last_pull_from_) {
      sync_in_flight_ = false;
      return;
    }
  } else {
    // Continue past the highest block that attached — which may sit on a
    // side branch below our main-chain head (a fork being filled in);
    // jumping to height()+1 there would skip the sender-branch gap
    // between the side tip and our head and force a redundant back-step.
    next_from = attached_tip + 1;
  }
  SendPull(message.from, next_from);
}

void ReplicatedNode::RequestLineageProof(network::NodeId to,
                                         const std::string& record_id) {
  if (net_ == nullptr) return;
  last_proof_ = ProofReply();
  Encoder enc;
  enc.PutString(record_id);
  net_->Send(id_, to, kMsgProof, enc.TakeBuffer());
}

void ReplicatedNode::HandleProofRequest(const network::Message& message) {
  if (net_ == nullptr) return;
  Decoder dec(message.payload);
  std::string record_id;
  if (!dec.GetString(&record_id).ok() || !dec.AtEnd()) return;
  Encoder enc;
  auto proof = audit::BuildLineageProof(*store_, record_id);
  if (proof.ok()) {
    proofs_served_total_->Increment();
    enc.PutU8(1);
    enc.PutString(std::string());
    enc.PutBytes(proof->Encode());
  } else {
    enc.PutU8(0);
    enc.PutString(proof.status().ToString());
    enc.PutBytes(Bytes());
  }
  net_->Send(id_, message.from, kMsgProofReply, enc.TakeBuffer());
}

void ReplicatedNode::HandleProofReply(const network::Message& message) {
  // Parse the whole frame before accepting any of it, like every other
  // handler: a truncated or trailing-garbage reply is dropped outright.
  Decoder dec(message.payload);
  uint8_t ok = 0;
  std::string error;
  Bytes proof;
  if (!dec.GetU8(&ok).ok() || ok > 1 || !dec.GetString(&error).ok() ||
      !dec.GetBytes(&proof).ok() || !dec.AtEnd()) {
    return;
  }
  last_proof_.received = true;
  last_proof_.ok = ok != 0;
  last_proof_.message = std::move(error);
  last_proof_.proof = std::move(proof);
}

void ReplicatedNode::RequestMetrics(network::NodeId to,
                                    obs::ExpositionFormat format) {
  if (net_ == nullptr) return;
  last_metrics_ = MetricsReply();
  Encoder enc;
  enc.PutU8(format == obs::ExpositionFormat::kJson ? 1 : 0);
  net_->Send(id_, to, kMsgMetrics, enc.TakeBuffer());
}

void ReplicatedNode::HandleMetricsRequest(const network::Message& message) {
  if (net_ == nullptr) return;
  Decoder dec(message.payload);
  uint8_t format = 0;
  if (!dec.GetU8(&format).ok() || format > 1 || !dec.AtEnd()) return;
  const std::string body = registry_->Exposition(
      format == 1 ? obs::ExpositionFormat::kJson
                  : obs::ExpositionFormat::kPrometheusText);
  Encoder enc;
  enc.PutString(body);
  net_->Send(id_, message.from, kMsgMetricsReply, enc.TakeBuffer());
}

void ReplicatedNode::HandleMetricsReply(const network::Message& message) {
  Decoder dec(message.payload);
  std::string body;
  if (!dec.GetString(&body).ok() || !dec.AtEnd()) return;
  last_metrics_.received = true;
  last_metrics_.body = std::move(body);
}

}  // namespace replication
}  // namespace provledger
