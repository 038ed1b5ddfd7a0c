// Decoder-hardening tests (ctest label: encoding): every fix from the
// untrusted-bytes audit is pinned here. The shared invariant: a count or
// size prefix is attacker data — a decoder must reject any value the
// remaining payload cannot possibly satisfy *before* sizing allocations
// off it, and must reject non-canonical bytes (duplicate or out-of-order
// field keys, trailing wire garbage) that no encoder produces.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/codec.h"
#include "crypto/sha256.h"
#include "ledger/block.h"
#include "network/sim_network.h"
#include "prov/record.h"
#include "replication/replicated_node.h"

namespace provledger {
namespace {

// ---------------------------------------------------------------------------
// ProvenanceRecord::Decode count and canonicality bounds
// ---------------------------------------------------------------------------

/// Encoder pre-loaded with the fixed record prefix (id through timestamp),
/// positioned where the inputs count goes.
Encoder RecordPrefix() {
  Encoder enc;
  enc.PutString("rec-1");
  enc.PutU8(0);  // Domain::kGeneric
  enc.PutString("op");
  enc.PutString("subject");
  enc.PutString("agent");
  enc.PutI64(1234);
  return enc;
}

void FinishRecord(Encoder* enc) {
  enc->PutRaw(crypto::DigestToBytes(crypto::ZeroDigest()));
}

TEST(RecordHardeningTest, RejectsInputsCountBeyondPayload) {
  Encoder enc = RecordPrefix();
  enc.PutU32(0xFFFFFFFFu);  // 4 billion inputs, zero bytes behind them
  auto decoded = prov::ProvenanceRecord::Decode(enc.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(RecordHardeningTest, RejectsOutputsCountBeyondPayload) {
  Encoder enc = RecordPrefix();
  enc.PutU32(0);            // no inputs
  enc.PutU32(0x10000000u);  // outputs count no payload could satisfy
  auto decoded = prov::ProvenanceRecord::Decode(enc.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(RecordHardeningTest, RejectsFieldsCountBeyondPayload) {
  Encoder enc = RecordPrefix();
  enc.PutU32(0);
  enc.PutU32(0);
  enc.PutU32(0x10000000u);  // fields count: each needs two string prefixes
  auto decoded = prov::ProvenanceRecord::Decode(enc.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(RecordHardeningTest, RejectsDuplicateFieldKeys) {
  Encoder enc = RecordPrefix();
  enc.PutU32(0);
  enc.PutU32(0);
  enc.PutU32(2);
  enc.PutString("k");
  enc.PutString("v1");
  enc.PutString("k");  // second "k": two byte strings, one decoded record
  enc.PutString("v2");
  FinishRecord(&enc);
  auto decoded = prov::ProvenanceRecord::Decode(enc.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(RecordHardeningTest, RejectsOutOfOrderFieldKeys) {
  Encoder enc = RecordPrefix();
  enc.PutU32(0);
  enc.PutU32(0);
  enc.PutU32(2);
  enc.PutString("b");
  enc.PutString("v1");
  enc.PutString("a");  // std::map would silently re-sort this on re-encode
  enc.PutString("v2");
  FinishRecord(&enc);
  auto decoded = prov::ProvenanceRecord::Decode(enc.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(RecordHardeningTest, DecodeIsCanonicalOnMultiFieldRecords) {
  prov::ProvenanceRecord rec;
  rec.record_id = "rec-9";
  rec.operation = "create";
  rec.subject = "s";
  rec.agent = "a";
  rec.timestamp = 77;
  rec.inputs = {"i1", "i2"};
  rec.outputs = {"o1"};
  rec.fields = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  const Bytes encoded = rec.Encode();
  auto decoded = prov::ProvenanceRecord::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().Encode(), encoded);
  EXPECT_EQ(decoded.value().Hash(), rec.Hash());
}

// ---------------------------------------------------------------------------
// Block::Decode transaction-count bound
// ---------------------------------------------------------------------------

TEST(BlockHardeningTest, RejectsTxCountBeyondPayload) {
  ledger::Block genesisless = ledger::Block::Make(
      1, crypto::ZeroDigest(), {}, 5, "proposer");
  Encoder enc;
  genesisless.header.EncodeTo(&enc);
  enc.PutU32(0xFFFFFFFFu);  // valid header, absurd transaction count
  auto decoded = ledger::Block::Decode(enc.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(BlockHardeningTest, RoundTripsRealBlocks) {
  std::vector<ledger::Transaction> txs;
  for (uint64_t i = 0; i < 3; ++i) {
    txs.push_back(ledger::Transaction::MakeSystem(
        "t", "ch", ToBytes("payload-" + std::to_string(i)), 10, i));
  }
  ledger::Block block = ledger::Block::Make(1, crypto::ZeroDigest(),
                                            std::move(txs), 5, "proposer");
  auto decoded = ledger::Block::Decode(block.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().Encode(), block.Encode());
}

// ---------------------------------------------------------------------------
// Replication wire: trailing garbage is rejected, not ignored
// ---------------------------------------------------------------------------

struct WireFixture {
  SimClock clock;
  network::SimNetwork net{&clock, /*seed=*/3};
  std::unique_ptr<replication::ReplicatedNode> node;
  network::NodeId node_id = 0;
  network::NodeId peer_id = 0;
  std::vector<network::Message> peer_inbox;

  WireFixture() {
    replication::ReplicatedNodeOptions options;
    options.name = "hardening-node";
    node = replication::ReplicatedNode::Create(&clock, options).value();
    node_id = net.AddNode(
        [this](const network::Message& m) { node->OnMessage(m); });
    peer_id = net.AddNode(
        [this](const network::Message& m) { peer_inbox.push_back(m); });
    node->BindNetwork(&net, node_id);
  }

  void Deliver(const std::string& type, Bytes payload) {
    net.Send(peer_id, node_id, type, std::move(payload));
    net.RunUntilIdle();
  }
};

TEST(ReplicationHardeningTest, StatusWithTrailingBytesIsDropped) {
  WireFixture fix;
  Encoder enc;
  enc.PutU8(1);  // probe: a well-formed frame would earn a status reply
  enc.PutU64(999);  // far ahead: a well-formed frame would trigger a pull
  enc.PutRaw(crypto::DigestToBytes(crypto::ZeroDigest()));
  enc.PutRaw(ToBytes("garbage"));
  fix.Deliver("repl/status", enc.TakeBuffer());
  EXPECT_TRUE(fix.peer_inbox.empty());
  EXPECT_EQ(fix.node->metrics().pulls_sent, 0u);
}

TEST(ReplicationHardeningTest, PullWithTrailingBytesIsDropped) {
  WireFixture fix;
  Encoder enc;
  enc.PutU64(1);
  enc.PutU8(0x00);
  fix.Deliver("repl/pull", enc.TakeBuffer());
  EXPECT_TRUE(fix.peer_inbox.empty());  // no repl/blocks answer

  // The same frame without the stray byte is served.
  Encoder good;
  good.PutU64(1);
  fix.Deliver("repl/pull", good.TakeBuffer());
  ASSERT_EQ(fix.peer_inbox.size(), 1u);
  EXPECT_EQ(fix.peer_inbox[0].type, "repl/blocks");
}

TEST(ReplicationHardeningTest, BlocksWithTrailingBytesIsDropped) {
  WireFixture fix;
  Encoder enc;
  enc.PutU64(1);
  enc.PutU32(0);
  enc.PutRaw(ToBytes("trailing-garbage"));
  fix.Deliver("repl/blocks", enc.TakeBuffer());
  EXPECT_EQ(fix.node->metrics().blocks_applied, 0u);
  EXPECT_EQ(fix.node->metrics().blocks_rejected, 0u);
  EXPECT_EQ(fix.node->height(), 0u);
}

TEST(ReplicationHardeningTest, BlocksCountBeyondPayloadIsDropped) {
  WireFixture fix;
  Encoder enc;
  enc.PutU64(1);
  enc.PutU32(0xFFFFFFFFu);  // list count the payload cannot hold
  fix.Deliver("repl/blocks", enc.TakeBuffer());
  EXPECT_EQ(fix.node->metrics().blocks_applied, 0u);
  EXPECT_EQ(fix.node->height(), 0u);
}

TEST(ReplicationHardeningTest, TruncatedBlocksListIsDroppedWhole) {
  // A list that dies mid-entry must not half-apply: previously the loop
  // applied what it had parsed and silently stopped at the tear.
  WireFixture fix;
  Encoder enc;
  enc.PutU64(1);
  enc.PutU32(2);
  enc.PutBytes(ToBytes("not-a-block"));
  // second entry missing entirely
  fix.Deliver("repl/blocks", enc.TakeBuffer());
  EXPECT_EQ(fix.node->metrics().blocks_rejected, 0u)
      << "truncated frame must be dropped before any entry is examined";
}

}  // namespace
}  // namespace provledger
