// ProvenanceStore tests: anchoring, indexes, proofs, auditor sweep,
// rebuild-from-chain, batching, and ProvChain's privacy (hashed agents).
// Proof-tree work is read from the default registry's
// chain_merkle_tree_builds_total counter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "prov/capture.h"
#include "prov/store.h"

namespace provledger {
namespace prov {
namespace {

ProvenanceRecord Rec(const std::string& id, const std::string& subject,
                     const std::string& agent, Timestamp ts,
                     std::vector<std::string> inputs = {}) {
  ProvenanceRecord rec;
  rec.record_id = id;
  rec.operation = "update";
  rec.subject = subject;
  rec.agent = agent;
  rec.timestamp = ts;
  rec.inputs = std::move(inputs);
  return rec;
}

uint64_t TreeBuilds() {
  return obs::Registry::Default()
      ->GetCounter("chain_merkle_tree_builds_total", "")
      ->value();
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : clock_(1'000'000), store_(&chain_, &clock_) {}
  ledger::Blockchain chain_;
  SimClock clock_;
  ProvenanceStore store_;
};

TEST_F(StoreTest, AnchorAndFetch) {
  ASSERT_TRUE(store_.Anchor(Rec("r1", "file-1", "alice", 100)).ok());
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_TRUE(store_.HasRecord("r1"));
  auto rec = store_.GetRecord("r1");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->subject, "file-1");
  EXPECT_EQ(store_.anchored_count(), 1u);
}

TEST_F(StoreTest, DuplicateRecordRejected) {
  ASSERT_TRUE(store_.Anchor(Rec("r1", "f", "a", 100)).ok());
  EXPECT_TRUE(store_.Anchor(Rec("r1", "f", "a", 200)).IsAlreadyExists());
}

TEST_F(StoreTest, InvalidRecordRejected) {
  ProvenanceRecord bad;  // everything empty
  EXPECT_TRUE(store_.Anchor(bad).IsInvalidArgument());
  EXPECT_EQ(chain_.height(), 0u);
}

TEST_F(StoreTest, BatchingAnchorsOneBlock) {
  std::vector<ProvenanceRecord> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Rec("b" + std::to_string(i), "f", "a", 100 + i));
  }
  ASSERT_TRUE(store_.AnchorBatch(batch).ok());
  EXPECT_EQ(chain_.height(), 1u);  // one block for the whole batch
  EXPECT_EQ(store_.anchored_count(), 4u);
  auto block = chain_.GetBlock(1);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->transactions.size(), 4u);
}

TEST_F(StoreTest, SignedAnchoring) {
  crypto::PrivateKey key = crypto::PrivateKey::FromSeed(std::string("alice"));
  ASSERT_TRUE(store_.Anchor(Rec("r1", "f", "alice", 100), &key).ok());
  auto block = chain_.GetBlock(1);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(block->transactions[0].IsSigned());
  EXPECT_TRUE(chain_.VerifyIntegrity().ok());
}

TEST_F(StoreTest, QueriesThroughGraph) {
  ASSERT_TRUE(store_.Anchor(Rec("r1", "doc", "alice", 100)).ok());
  ASSERT_TRUE(store_.Anchor(Rec("r2", "doc", "bob", 200)).ok());
  ASSERT_TRUE(
      store_.Anchor(Rec("r3", "summary", "bob", 300, {"doc"})).ok());

  auto history = store_.SubjectHistory("doc");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].record_id, "r1");

  auto by_bob = store_.ByAgent("bob");
  EXPECT_EQ(by_bob.size(), 2u);

  auto lineage = store_.Lineage("summary");
  ASSERT_EQ(lineage.size(), 1u);
  EXPECT_EQ(lineage[0], "doc");
}

TEST_F(StoreTest, RecordProofVerifies) {
  ASSERT_TRUE(store_.Anchor(Rec("r1", "f", "a", 100)).ok());
  ASSERT_TRUE(store_.Anchor(Rec("r2", "f", "a", 200)).ok());
  auto proof = store_.ProveRecord("r1");
  ASSERT_TRUE(proof.ok());
  auto rec = store_.GetRecord("r1");
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(store_.VerifyRecordProof(rec.value(), proof.value()));
  // A different record fails against that proof.
  auto rec2 = store_.GetRecord("r2");
  ASSERT_TRUE(rec2.ok());
  EXPECT_FALSE(store_.VerifyRecordProof(rec2.value(), proof.value()));
  EXPECT_FALSE(store_.ProveRecord("ghost").ok());
}

TEST_F(StoreTest, AuditAllDetectsTampering) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        store_.Anchor(Rec("r" + std::to_string(i), "f", "a", 100 + i)).ok());
  }
  auto audit = store_.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value(), 5u);

  // Tamper with a block in storage: the auditor must notice.
  ASSERT_TRUE(chain_.TamperForTesting(2, 0, 0x55).ok());
  EXPECT_FALSE(store_.AuditAll().ok());
}

TEST_F(StoreTest, RebuildFromChainRecoversState) {
  ASSERT_TRUE(store_.Anchor(Rec("r1", "doc", "alice", 100)).ok());
  ASSERT_TRUE(store_.Anchor(Rec("r2", "sum", "bob", 200, {"doc"})).ok());

  ProvenanceStore rebuilt(&chain_, &clock_);
  ASSERT_TRUE(rebuilt.RebuildFromChain().ok());
  EXPECT_EQ(rebuilt.anchored_count(), 2u);
  EXPECT_TRUE(rebuilt.HasRecord("r1"));
  auto lineage = rebuilt.Lineage("sum");
  ASSERT_EQ(lineage.size(), 1u);
  EXPECT_EQ(lineage[0], "doc");
  // Proofs still work on the rebuilt store.
  auto proof = rebuilt.ProveRecord("r2");
  ASSERT_TRUE(proof.ok());
}

TEST_F(StoreTest, AnchorBatchRejectsIntraBatchDuplicateAndRollsBack) {
  Status s = store_.AnchorBatch(
      {Rec("x1", "f", "a", 100), Rec("x1", "f", "a", 200)});
  EXPECT_TRUE(s.IsAlreadyExists());
  // The failed batch leaves nothing behind, and a corrected retry that
  // reuses the id goes through cleanly.
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_EQ(store_.nonce(), 0u);
  ASSERT_TRUE(store_.AnchorBatch(
                  {Rec("x1", "f", "a", 100), Rec("x2", "f", "a", 200)})
                  .ok());
  EXPECT_EQ(store_.anchored_count(), 2u);
}

TEST_F(StoreTest, ChainRefusalAnchorsNothing) {
  // A chain that refuses the block (too many txs) anchors none of the
  // batch and uses no nonce, so a retry that fits goes straight in.
  ledger::ChainOptions chain_opts;
  chain_opts.max_block_txs = 2;
  ledger::Blockchain strict_chain(chain_opts);
  ProvenanceStore store(&strict_chain, &clock_);
  ASSERT_TRUE(store.Anchor(Rec("r0", "f", "a", 50)).ok());
  const uint64_t nonce = store.nonce();
  std::vector<ProvenanceRecord> batch = {
      Rec("r1", "f", "a", 100), Rec("r2", "f", "a", 200),
      Rec("r3", "f", "a", 300)};
  EXPECT_FALSE(store.AnchorBatch(batch).ok());
  EXPECT_EQ(strict_chain.height(), 1u);
  EXPECT_EQ(store.anchored_count(), 1u);
  EXPECT_EQ(store.nonce(), nonce);
  EXPECT_FALSE(store.HasRecord("r1"));

  batch.pop_back();
  ASSERT_TRUE(store.AnchorBatch(batch).ok());
  EXPECT_EQ(strict_chain.height(), 2u);
  EXPECT_EQ(store.anchored_count(), 3u);
  EXPECT_EQ(store.nonce(), nonce + 2);
}

TEST_F(StoreTest, RebuildRestoresNonce) {
  ASSERT_TRUE(store_.Anchor(Rec("r1", "f", "a", 100)).ok());
  ASSERT_TRUE(store_.Anchor(Rec("r2", "f", "a", 200)).ok());

  ProvenanceStore rebuilt(&chain_, &clock_);
  ASSERT_TRUE(rebuilt.RebuildFromChain().ok());
  ASSERT_TRUE(rebuilt.Anchor(Rec("r3", "f", "a", 300)).ok());

  // Every prov/record transaction on the chain must carry a distinct
  // nonce; a rebuild that reset the counter would reuse one.
  std::set<uint64_t> nonces;
  for (const auto& tx : chain_.GetChannelTransactions("prov")) {
    EXPECT_TRUE(nonces.insert(tx.nonce).second)
        << "nonce reused: " << tx.nonce;
  }
  EXPECT_EQ(nonces.size(), 3u);
}

TEST_F(StoreTest, AuditAllAfterRebuild) {
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        store_.Anchor(Rec("r" + std::to_string(i), "f", "a", 100 + i)).ok());
  }
  ProvenanceStore rebuilt(&chain_, &clock_);
  ASSERT_TRUE(rebuilt.RebuildFromChain().ok());
  auto audit = rebuilt.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value(), 6u);
  // Tampering after the rebuild is still caught.
  ASSERT_TRUE(chain_.TamperForTesting(3, 0, 0x55).ok());
  EXPECT_FALSE(rebuilt.AuditAll().ok());
}

TEST_F(StoreTest, CachedBlockProvesWithoutMerkleRebuild) {
  ASSERT_TRUE(store_.AnchorBatch({Rec("r1", "f", "a", 100),
                                  Rec("r2", "f", "a", 200),
                                  Rec("r3", "f", "a", 300)})
                  .ok());
  const uint64_t builds_before = TreeBuilds();
  ASSERT_TRUE(store_.ProveRecord("r1").ok());
  // First proof against the block builds its tree exactly once...
  EXPECT_EQ(TreeBuilds(), builds_before + 1);
  // ...and every further proof against the cached block builds zero trees.
  ASSERT_TRUE(store_.ProveRecord("r2").ok());
  ASSERT_TRUE(store_.ProveRecord("r3").ok());
  ASSERT_TRUE(store_.ProveRecord("r1").ok());
  EXPECT_EQ(TreeBuilds(), builds_before + 1);

  // AuditAll re-proves every record but only ever builds one tree per
  // block, not one per record.
  const uint64_t audit_baseline = TreeBuilds();
  auto audit = store_.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value(), 3u);
  EXPECT_EQ(TreeBuilds(), audit_baseline);
}

TEST_F(StoreTest, FollowerAndRebuildMapRecordsToSameTxids) {
  std::vector<std::string> ids;
  for (int b = 0; b < 3; ++b) {
    std::vector<ProvenanceRecord> batch;
    for (int i = 0; i < 4; ++i) {
      ids.push_back("r" + std::to_string(b) + "-" + std::to_string(i));
      batch.push_back(Rec(ids.back(), "f", "a", 100 + 10 * b + i));
    }
    ASSERT_TRUE(store_.AnchorBatch(batch).ok());
  }
  // A follower validates every block through SubmitBlock and applies it
  // to its store one by one; a third store rebuilds from the same chain.
  ledger::Blockchain follower_chain;
  ProvenanceStore follower(&follower_chain, &clock_);
  for (uint64_t h = 1; h <= chain_.height(); ++h) {
    ASSERT_TRUE(follower_chain.SubmitBlock(*chain_.PeekBlock(h)).ok());
    ASSERT_TRUE(follower.ApplyChainBlock(h).ok());
  }
  ProvenanceStore rebuilt(&follower_chain, &clock_);
  ASSERT_TRUE(rebuilt.RebuildFromChain().ok());
  for (const auto& id : ids) {
    auto leader_txid = store_.RecordTxId(id);
    auto follower_txid = follower.RecordTxId(id);
    auto rebuilt_txid = rebuilt.RecordTxId(id);
    ASSERT_TRUE(leader_txid.ok() && follower_txid.ok() && rebuilt_txid.ok())
        << id;
    EXPECT_EQ(follower_txid.value(), leader_txid.value()) << id;
    EXPECT_EQ(rebuilt_txid.value(), leader_txid.value()) << id;
    auto tx = follower_chain.GetTransaction(follower_txid.value());
    ASSERT_TRUE(tx.ok()) << id;
    EXPECT_EQ(tx->Id(), follower_txid.value()) << id;
  }
  auto audited = follower.AuditAll();
  ASSERT_TRUE(audited.ok());
  EXPECT_EQ(audited.value(), ids.size());
}

TEST_F(StoreTest, RecordAddedBehindStoreIsDroppedNotAnchored) {
  // A prepared record whose id enters the shared graph out of band before
  // the commit (the SciBlock workflows mutate it directly) is dropped
  // before the block forms, so it never lands on chain unindexed; the
  // rest of the batch commits and stays provable.
  std::vector<PreparedRecord> prepared;
  for (int i = 1; i <= 3; ++i) {
    auto p = store_.PrepareRecord(Rec("r" + std::to_string(i), "f", "a",
                                      100 * i),
                                  store_.nonce() + i);
    ASSERT_TRUE(p.ok());
    prepared.push_back(std::move(p).value());
  }
  ASSERT_TRUE(store_.mutable_graph()->AddRecord(Rec("r2", "f", "a", 200)).ok());

  size_t committed = 0;
  Status s = store_.AnchorPrepared(std::move(prepared), &committed);
  EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
  EXPECT_EQ(committed, 2u);
  ASSERT_EQ(chain_.height(), 1u);
  EXPECT_EQ(chain_.PeekBlock(1)->transactions.size(), 2u);
  ASSERT_TRUE(store_.ProveRecord("r1").ok());
  ASSERT_TRUE(store_.ProveRecord("r3").ok());
  EXPECT_TRUE(store_.RecordTxId("r2").status().IsNotFound());
  auto audited = store_.AuditAll();
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  EXPECT_EQ(audited.value(), 2u);
}

TEST_F(StoreTest, PrivacyModeHashesAgents) {
  ProvenanceStoreOptions opts;
  opts.hash_agent_ids = true;
  ProvenanceStore anon(&chain_, &clock_, opts);
  ASSERT_TRUE(anon.Anchor(Rec("r1", "f", "alice", 100)).ok());

  // On-chain record does not contain "alice".
  auto block = chain_.GetBlock(1);
  ASSERT_TRUE(block.ok());
  auto rec = ProvenanceRecord::Decode(block->transactions[0].payload);
  ASSERT_TRUE(rec.ok());
  EXPECT_NE(rec->agent, "alice");
  EXPECT_EQ(rec->agent.rfind("anon-", 0), 0u);

  // Deterministic pseudonym: queries via OnChainAgentId still work.
  EXPECT_EQ(anon.ByAgent(anon.OnChainAgentId("alice")).size(), 1u);
  EXPECT_TRUE(anon.ByAgent("alice").empty());
}

// Publishing the same 1000-record delta costs the same whether the graph
// holds 10k or 100k records: only the new rows are encoded, and the open
// row group copied, so the two differ by less than one group.
TEST(SnapshotPublishCostTest, PublishBytesTrackNewRowsNotGraphSize) {
  struct Published {
    double delta_bytes = 0;  // snapshot_publish_bytes of the delta epoch
    size_t group_bytes = 0;  // one sealed group, for the bound
    size_t body_bytes = 0;
  };
  auto publish_delta = [](size_t base) {
    obs::Registry registry;
    ledger::ChainOptions chain_options;
    chain_options.registry = &registry;
    ledger::Blockchain chain(chain_options);
    SimClock clock(1'000'000);
    ProvenanceStoreOptions options;
    options.registry = &registry;
    ProvenanceStore store(&chain, &clock, options);
    auto anchor = [&](size_t from, size_t to) {
      std::vector<ProvenanceRecord> batch;
      for (size_t i = from; i < to; ++i) {
        ProvenanceRecord rec;
        rec.record_id = "r" + std::to_string(i);
        rec.operation = "step";
        rec.subject = "s" + std::to_string(i % 100);
        rec.agent = "a" + std::to_string(i % 8);
        rec.timestamp = static_cast<Timestamp>(i);
        batch.push_back(std::move(rec));
      }
      EXPECT_TRUE(store.AnchorBatch(batch).ok());
    };
    for (size_t done = 0; done < base; done += 10000) {
      anchor(done, std::min(base, done + 10000));
    }
    EXPECT_TRUE(store.PublishSnapshot().ok());
    obs::Histogram* bytes = registry.GetHistogram(
        "snapshot_publish_bytes", "", obs::SizeBuckets());
    const double before = bytes->sum();
    anchor(base, base + 1000);
    EXPECT_TRUE(store.PublishSnapshot().ok());
    Published out;
    out.delta_bytes = bytes->sum() - before;
    auto epoch = store.AcquireSnapshot();
    out.group_bytes = epoch->image().groups.front()->bytes();
    out.body_bytes = epoch->body_bytes();
    return out;
  };
  const Published small = publish_delta(10000);
  const Published large = publish_delta(100000);
  EXPECT_LT(std::abs(small.delta_bytes - large.delta_bytes),
            static_cast<double>(large.group_bytes));
  // And far below re-serializing the 101k-record graph.
  EXPECT_LT(large.delta_bytes, static_cast<double>(large.body_bytes) / 4);
}

class CaptureTest : public ::testing::Test {
 protected:
  CaptureTest() : clock_(0), store_(&chain_, &clock_) {}
  ledger::Blockchain chain_;
  SimClock clock_;
  ProvenanceStore store_;
};

TEST_F(CaptureTest, DirectCaptureRequiresKey) {
  DirectCapture direct(&store_, &clock_);
  direct.RegisterUser("alice",
                      crypto::PrivateKey::FromSeed(std::string("alice")));
  EXPECT_TRUE(direct.Capture("alice", Rec("r1", "f", "alice", 1)).ok());
  EXPECT_TRUE(direct.Capture("mallory", Rec("r2", "f", "mallory", 2))
                  .IsUnauthenticated());
  EXPECT_EQ(direct.metrics().records, 1u);
  EXPECT_EQ(direct.metrics().auth_failures, 1u);
}

TEST_F(CaptureTest, DataStoreCaptureBatches) {
  DataStoreCapture ds(&store_, &clock_, /*flush_threshold=*/3);
  ASSERT_TRUE(ds.Capture("u", Rec("r1", "f", "store", 1)).ok());
  ASSERT_TRUE(ds.Capture("u", Rec("r2", "f", "store", 2)).ok());
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_EQ(ds.buffered(), 2u);
  ASSERT_TRUE(ds.Capture("u", Rec("r3", "f", "store", 3)).ok());
  EXPECT_EQ(chain_.height(), 1u);  // flushed as one block
  EXPECT_EQ(ds.buffered(), 0u);
  // Manual flush of a partial buffer.
  ASSERT_TRUE(ds.Capture("u", Rec("r4", "f", "store", 4)).ok());
  ASSERT_TRUE(ds.FlushBuffered().ok());
  EXPECT_EQ(chain_.height(), 2u);
}

TEST_F(CaptureTest, DataStoreCaptureKeepsBufferWhenFlushFails) {
  // Regression: FlushBuffered moved the buffer out before AnchorBatch; on
  // failure the captured records were silently destroyed. They must stay
  // buffered so the flush can be retried.
  ledger::ChainOptions chain_opts;
  chain_opts.max_block_txs = 2;
  ledger::Blockchain strict_chain(chain_opts);
  ProvenanceStore store(&strict_chain, &clock_);
  DataStoreCapture ds(&store, &clock_, /*flush_threshold=*/3);

  ASSERT_TRUE(ds.Capture("u", Rec("r1", "f", "store", 1)).ok());
  ASSERT_TRUE(ds.Capture("u", Rec("r2", "f", "store", 2)).ok());
  // Third capture trips the auto-flush; the chain refuses the 3-tx block.
  EXPECT_FALSE(ds.Capture("u", Rec("r3", "f", "store", 3)).ok());
  EXPECT_EQ(ds.buffered(), 3u);  // nothing lost
  EXPECT_EQ(strict_chain.height(), 0u);

  // An explicit retry still fails (the block is still too big) but keeps
  // the records; no capture was destroyed along the way.
  EXPECT_FALSE(ds.FlushBuffered().ok());
  EXPECT_EQ(ds.buffered(), 3u);
  EXPECT_EQ(ds.metrics().records, 3u);
}

TEST_F(CaptureTest, CentralizedCaptureChecksToken) {
  CentralizedCapture central(&store_, &clock_);
  Bytes token = central.EnrollUser("alice");
  central.PresentToken("alice", token);
  EXPECT_TRUE(central.Capture("alice", Rec("r1", "f", "alice", 1)).ok());
  // Wrong/absent token fails.
  central.PresentToken("bob", ToBytes("forged-token-bytes"));
  EXPECT_TRUE(
      central.Capture("bob", Rec("r2", "f", "bob", 2)).IsUnauthenticated());
  EXPECT_GT(central.metrics().auth_us, 0);
}

TEST_F(CaptureTest, DecentralizedCaptureNeedsQuorum) {
  DecentralizedCapture committee(&store_, &clock_, /*committee_size=*/4,
                                 /*threshold=*/3);
  EXPECT_TRUE(committee.Capture("u", Rec("r1", "f", "u", 1)).ok());
  EXPECT_GT(committee.metrics().messages, 0u);

  // With only 2 of 4 members alive, the 3-threshold fails.
  committee.SetAliveMembers(2);
  EXPECT_TRUE(
      committee.Capture("u", Rec("r2", "f", "u", 2)).IsUnauthenticated());
  committee.SetAliveMembers(3);
  EXPECT_TRUE(committee.Capture("u", Rec("r3", "f", "u", 3)).ok());
}

TEST_F(CaptureTest, PathLatencyOrdering) {
  // Figure 3's qualitative shape: direct < datastore-emit < centralized
  // < decentralized per-record simulated cost.
  SimClock c1(0), c2(0), c3(0), c4(0);
  ledger::Blockchain ch1, ch2, ch3, ch4;
  ProvenanceStore s1(&ch1, &c1), s2(&ch2, &c2), s3(&ch3, &c3), s4(&ch4, &c4);

  DirectCapture direct(&s1, &c1);
  direct.RegisterUser("u", crypto::PrivateKey::FromSeed(std::string("u")));
  DataStoreCapture ds(&s2, &c2, 1);
  CentralizedCapture central(&s3, &c3);
  central.PresentToken("u", central.EnrollUser("u"));
  DecentralizedCapture committee(&s4, &c4);

  const int kN = 10;
  for (int i = 0; i < kN; ++i) {
    std::string id = "r" + std::to_string(i);
    ASSERT_TRUE(ds.Capture("u", Rec(id, "f", "u", i)).ok());
    ASSERT_TRUE(direct.Capture("u", Rec(id, "f", "u", i)).ok());
    ASSERT_TRUE(central.Capture("u", Rec(id, "f", "u", i)).ok());
    ASSERT_TRUE(committee.Capture("u", Rec(id, "f", "u", i)).ok());
  }
  EXPECT_LT(c2.NowMicros(), c1.NowMicros());
  EXPECT_LT(c1.NowMicros(), c3.NowMicros());
  EXPECT_LT(c3.NowMicros(), c4.NowMicros());
}

}  // namespace
}  // namespace prov
}  // namespace provledger
