// Harness: ReplicatedNode::OnMessage — the replication wire parsers
// (repl/block, repl/status, repl/pull, repl/blocks). Trust boundary: every
// payload here is what a network peer controls byte-for-byte; the node must
// parse, re-validate, and reject without crashing, whatever arrives.
//
// Input mapping: byte 0 selects the message type (mod 4), the rest is the
// payload. The node under test persists across inputs (accumulated chain
// state is exactly what a long-lived follower has) and is rebuilt
// periodically to keep iterations bounded. Whenever an input moves the
// head, the chain's stored transaction ids and the store's audit are
// re-checked against the transaction bytes.

#include "harnesses.h"

#include <memory>

#include "network/sim_network.h"
#include "replication/replicated_node.h"

namespace provledger {
namespace fuzz {

namespace {

constexpr const char* kTypes[] = {"repl/block", "repl/status", "repl/pull",
                                  "repl/blocks"};

struct NodeContext {
  SimClock clock;
  network::SimNetwork net;
  std::unique_ptr<replication::ReplicatedNode> node;
  network::NodeId node_id = 0;
  network::NodeId peer_id = 0;

  NodeContext() : net(&clock, /*seed=*/7) {
    replication::ReplicatedNodeOptions options;
    options.name = "fuzz-node";
    auto created = replication::ReplicatedNode::Create(&clock, options);
    PROVLEDGER_FUZZ_REQUIRE(created.ok());
    node = std::move(created).value();
    node_id = net.AddNode(
        [this](const network::Message& m) { node->OnMessage(m); });
    peer_id = net.AddNode([](const network::Message&) {});
    node->BindNetwork(&net, node_id);
  }
};

// After the head moved (an extension, a side branch adopted, a reorg),
// the digests the chain stored at acceptance must still describe the
// main chain: every transaction's recomputed id resolves to a transaction
// with that id, and the store's full audit passes.
void CheckStoredDigests(replication::ReplicatedNode& node) {
  const ledger::Blockchain& chain = *node.chain();
  for (uint64_t h = 0; h <= chain.height(); ++h) {
    for (const auto& tx : chain.PeekBlock(h)->transactions) {
      const crypto::Digest id = tx.Id();
      auto loc = chain.FindTransaction(id);
      PROVLEDGER_FUZZ_REQUIRE(loc.ok());
      const ledger::Block* at = chain.PeekBlock(loc->height);
      PROVLEDGER_FUZZ_REQUIRE(at != nullptr &&
                              loc->index < at->transactions.size() &&
                              at->transactions[loc->index].Id() == id);
    }
  }
  PROVLEDGER_FUZZ_REQUIRE(node.store()->AuditAll().ok());
}

}  // namespace

void FuzzReplication(const uint8_t* data, size_t size) {
  static std::unique_ptr<NodeContext> ctx;
  static int inputs_on_ctx = 0;
  if (!ctx || ++inputs_on_ctx >= 256) {
    ctx = std::make_unique<NodeContext>();
    inputs_on_ctx = 0;
  }

  const ledger::Blockchain& chain = *ctx->node->chain();
  const crypto::Digest head_before = chain.head_hash();

  network::Message message;
  message.from = ctx->peer_id;
  message.to = ctx->node_id;
  message.type = kTypes[size == 0 ? 0 : data[0] % 4];
  if (size > 1) message.payload.assign(data + 1, data + size);
  ctx->node->OnMessage(message);
  // Drain whatever the node sent back (status replies, pulls) so the send
  // paths execute too; the peer swallows them.
  ctx->net.RunUntilIdle();

  if (chain.head_hash() != head_before) CheckStoredDigests(*ctx->node);
}

}  // namespace fuzz
}  // namespace provledger

PROVLEDGER_FUZZ_SHIM(FuzzReplication)
