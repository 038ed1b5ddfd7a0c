// Replicated-cluster tests (ctest label: replication): N-node ingest
// convergence under every consensus engine (identical head hash + full
// AuditAll on every node), multi-group partition + heal, crash/restart-
// from-disk + rejoin catch-up, deep-lag ranged sync, minority-fork reorg
// on heal, divergent-fork rejection, and the repeated-transaction form of
// a valid block.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/lineage_proof.h"
#include "replication/cluster.h"
#include "tamper.h"
#include "temp_dir.h"

namespace provledger {
namespace replication {
namespace {

using testutil::MakeTempDir;
using testutil::RemoveTree;

prov::ProvenanceRecord Rec(const std::string& id, const std::string& subject,
                           const std::string& agent, Timestamp ts,
                           std::vector<std::string> inputs = {},
                           std::vector<std::string> outputs = {}) {
  prov::ProvenanceRecord rec;
  rec.record_id = id;
  rec.operation = "execute";
  rec.subject = subject;
  rec.agent = agent;
  rec.timestamp = ts;
  rec.inputs = std::move(inputs);
  rec.outputs = std::move(outputs);
  return rec;
}

/// Submit + commit `count` records (ids tagged with `tag`) as
/// `count / per_batch` blocks, each through the cluster's consensus path.
void Ingest(Cluster* cluster, const std::string& tag, int count,
            int per_batch, int proposer = -1) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(cluster
                    ->Submit(Rec(tag + "-" + std::to_string(i),
                                 "subject-" + std::to_string(i % 5),
                                 "agent-" + std::to_string(i % 3),
                                 1000 + i))
                    .ok());
    if (cluster->pending_count() == static_cast<size_t>(per_batch) ||
        i + 1 == count) {
      Status committed = proposer < 0
                             ? cluster->CommitPending()
                             : cluster->CommitPendingOn(
                                   static_cast<network::NodeId>(proposer));
      ASSERT_TRUE(committed.ok()) << committed.ToString();
    }
  }
}

/// Every alive node: same head, passing AuditAll over `expect` records.
void ExpectConvergedWithAudit(Cluster* cluster, size_t expect) {
  ASSERT_TRUE(cluster->Converged());
  auto head = cluster->ConvergedHead();
  ASSERT_TRUE(head.ok());
  for (size_t i = 0; i < cluster->size(); ++i) {
    ReplicatedNode* node = cluster->node(static_cast<network::NodeId>(i));
    if (!node->alive()) continue;
    EXPECT_EQ(node->head_hash(), head.value()) << node->name();
    ASSERT_TRUE(node->chain()->VerifyIntegrity().ok()) << node->name();
    auto audit = node->store()->AuditAll();
    ASSERT_TRUE(audit.ok()) << node->name() << ": "
                            << audit.status().ToString();
    EXPECT_EQ(audit.value(), expect) << node->name();
  }
}

TEST(ReplicationTest, FourNodeIngestConvergesUnderEveryEngine) {
  for (const std::string& kind : {"pow", "pos", "pbft", "raft"}) {
    SCOPED_TRACE(kind);
    ClusterOptions options;
    options.num_nodes = 4;
    options.seed = 7;
    options.consensus = kind;
    auto cluster = Cluster::Create(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    Ingest(cluster->get(), kind, 24, 6);
    ExpectConvergedWithAudit(cluster->get(), 24);
    EXPECT_EQ((*cluster)->metrics().batches_committed, 4u);
    EXPECT_GT((*cluster)->metrics().consensus_messages, 0u);

    // Every follower answers queries from its own local store.
    for (network::NodeId i = 0; i < 4; ++i) {
      EXPECT_EQ(
          (*cluster)->node(i)->store()->SubjectHistory("subject-2").size(),
          5u);
    }
  }
}

TEST(ReplicationTest, ReplicationIsDeterministicFromTheSeed) {
  auto run = [] {
    ClusterOptions options;
    options.num_nodes = 4;
    options.seed = 99;
    options.net.jitter_us = 300;
    auto cluster = Cluster::Create(options);
    EXPECT_TRUE(cluster.ok());
    Ingest(cluster->get(), "det", 12, 4);
    EXPECT_TRUE((*cluster)->Converged());
    return crypto::DigestHex((*cluster)->node(0)->head_hash());
  };
  EXPECT_EQ(run(), run());
}

TEST(ReplicationTest, PartitionedMinorityLagsThenHealConverges) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 3;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "pre", 8, 4);
  ASSERT_TRUE((*cluster)->Converged());

  (*cluster)->Partition({{0, 1, 2}, {3}});
  Ingest(cluster->get(), "cut", 12, 4, /*proposer=*/0);
  // The minority node missed every broadcast.
  EXPECT_FALSE((*cluster)->Converged());
  EXPECT_EQ((*cluster)->node(3)->height() + 3, (*cluster)->node(0)->height());

  (*cluster)->Heal();
  (*cluster)->AntiEntropy();
  ExpectConvergedWithAudit(cluster->get(), 20);
  EXPECT_GE((*cluster)->node(3)->metrics().pulls_sent, 1u);
  EXPECT_TRUE((*cluster)->node(3)->synced());
}

TEST(ReplicationTest, ThreeWayPartitionHealsToCommonHead) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 11;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "base", 4, 4);

  // Three named groups: {0,1} | {2} | {3} — only the group holding the
  // proposer sees new blocks, and the two singletons are isolated from
  // each other as well as from the pair.
  (*cluster)->Partition({{0, 1}, {2}, {3}});
  Ingest(cluster->get(), "split", 8, 4, /*proposer=*/0);
  EXPECT_EQ((*cluster)->node(0)->height(), (*cluster)->node(1)->height());
  EXPECT_EQ((*cluster)->node(2)->height() + 2, (*cluster)->node(0)->height());
  EXPECT_EQ((*cluster)->node(3)->height() + 2, (*cluster)->node(0)->height());

  (*cluster)->Heal();
  (*cluster)->AntiEntropy();
  ExpectConvergedWithAudit(cluster->get(), 12);
}

TEST(ReplicationTest, DeepLagCatchesUpInRangedBatches) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.seed = 21;
  options.catch_up_batch_blocks = 4;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());

  (*cluster)->Partition({{0, 1}, {2}});
  Ingest(cluster->get(), "deep", 20, 2, /*proposer=*/0);  // 10 blocks ahead
  ASSERT_EQ((*cluster)->node(2)->height(), 0u);

  (*cluster)->Heal();
  (*cluster)->AntiEntropy();
  ExpectConvergedWithAudit(cluster->get(), 20);
  // 10 blocks at a 4-block stride: at least ceil(10/4) = 3 pull rounds.
  EXPECT_GE((*cluster)->node(2)->metrics().pulls_sent, 3u);
  EXPECT_EQ((*cluster)->node(2)->metrics().blocks_applied, 10u);
}

TEST(ReplicationTest, CrashedNodeRestartsFromDiskAndCatchesUp) {
  const std::string dir = MakeTempDir();
  {
    ClusterOptions options;
    options.num_nodes = 4;
    options.seed = 5;
    options.data_dir = dir;
    auto cluster = Cluster::Create(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    Ingest(cluster->get(), "dur", 12, 4);
    ASSERT_TRUE((*cluster)->SaveSnapshot(3).ok());
    Ingest(cluster->get(), "post-snap", 4, 4);
    ASSERT_TRUE((*cluster)->Converged());
    const uint64_t height_at_crash = (*cluster)->node(3)->height();

    (*cluster)->Crash(3);
    Ingest(cluster->get(), "while-down", 8, 4);
    // Converged() only speaks for alive nodes; the crashed one fell behind.
    EXPECT_TRUE((*cluster)->Converged());
    EXPECT_LT((*cluster)->node(3)->height(), (*cluster)->node(0)->height());

    ASSERT_TRUE((*cluster)->Restart(3).ok());
    ExpectConvergedWithAudit(cluster->get(), 24);
    // The prefix came from disk (chain log + snapshot), not the wire: the
    // revived node only pulled the two blocks committed while it was down.
    EXPECT_EQ((*cluster)->node(3)->metrics().blocks_applied,
              (*cluster)->node(3)->height() - height_at_crash);
    EXPECT_GE((*cluster)->node(3)->metrics().pulls_sent, 1u);
    // Blocks adopted during catch-up persisted write-ahead too.
    EXPECT_EQ((*cluster)->node(3)->chain_log()->block_count(),
              (*cluster)->node(3)->height());
  }
  RemoveTree(dir);
}

TEST(ReplicationTest, VolatileRestartRejoinsFromPeers) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.seed = 13;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "mem", 9, 3);

  (*cluster)->Crash(2);
  Ingest(cluster->get(), "more", 3, 3);
  // A volatile node restarts empty and pulls the whole chain from peers.
  ASSERT_TRUE((*cluster)->Restart(2).ok());
  ExpectConvergedWithAudit(cluster->get(), 12);
  EXPECT_EQ((*cluster)->node(2)->metrics().blocks_applied, 4u);
}

TEST(ReplicationTest, CrashedProposerFallsBackToAliveNode) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 17;
  // Raft elects node 0 leader with this seed; crash whoever the engine
  // names and let the fallback scan anchor the block.
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "lead", 4, 4);
  ASSERT_TRUE((*cluster)->Converged());

  // Crash every node but one: whatever proposer consensus picks, the
  // fallback must land on the survivor.
  (*cluster)->Crash(0);
  (*cluster)->Crash(1);
  (*cluster)->Crash(3);
  ASSERT_TRUE((*cluster)->Submit(Rec("solo", "subject-0", "agent-0", 9000))
                  .ok());
  ASSERT_TRUE((*cluster)->CommitPending().ok());
  EXPECT_TRUE((*cluster)->node(2)->store()->HasRecord("solo"));

  ASSERT_TRUE((*cluster)->Restart(0).ok());
  ASSERT_TRUE((*cluster)->Restart(1).ok());
  ASSERT_TRUE((*cluster)->Restart(3).ok());
  ExpectConvergedWithAudit(cluster->get(), 5);
}

TEST(ReplicationTest, TamperedBlockIsRejectedEverywhere) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.seed = 29;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "ok", 6, 3);
  auto head_before = (*cluster)->ConvergedHead();
  ASSERT_TRUE(head_before.ok());

  // A rogue peer re-broadcasts the head block with a flipped payload byte:
  // the Merkle root no longer matches, so every receiver must reject it.
  auto forged = (*cluster)->node(0)->chain()->GetBlock(
      (*cluster)->node(0)->height());
  ASSERT_TRUE(forged.ok());
  ledger::Block bad = forged.value();
  bad.header.height += 1;  // pose as the next block...
  bad.header.prev_hash = head_before.value();
  ASSERT_TRUE(testutil::TamperBlockTx(&bad, 0).ok());  // ...tampered contents
  (*cluster)->net()->Broadcast(2, "repl/block", bad.Encode());
  (*cluster)->RunUntilIdle();

  EXPECT_GE((*cluster)->node(0)->metrics().blocks_rejected, 1u);
  EXPECT_GE((*cluster)->node(1)->metrics().blocks_rejected, 1u);
  auto head_after = (*cluster)->ConvergedHead();
  ASSERT_TRUE(head_after.ok());
  EXPECT_EQ(head_after.value(), head_before.value());
  ExpectConvergedWithAudit(cluster->get(), 6);
}

TEST(ReplicationTest, RepeatedTailBlockIsRejectedEverywhere) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.seed = 29;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "ok", 6, 3);
  auto head_before = (*cluster)->ConvergedHead();
  ASSERT_TRUE(head_before.ok());

  // A valid next block of three records, and the same block with its last
  // transaction repeated: one Merkle root, one header hash, two bodies.
  ReplicatedNode* rogue = (*cluster)->node(0);
  std::vector<ledger::Transaction> txs;
  for (int i = 0; i < 3; ++i) {
    auto prepared = rogue->store()->PrepareRecord(
        Rec("next-" + std::to_string(i), "subject-next", "agent-0", 5000 + i),
        /*nonce=*/1000 + i);
    ASSERT_TRUE(prepared.ok());
    txs.push_back(prepared->tx);
  }
  const ledger::Block* head = rogue->chain()->PeekBlock(rogue->height());
  const ledger::Block honest =
      ledger::Block::Make(head->header.height + 1, head_before.value(), txs,
                          head->header.timestamp + 1, "rogue");
  ledger::Block mutated = honest;
  mutated.transactions.push_back(txs.back());
  ASSERT_EQ(mutated.header.Hash(), honest.header.Hash());

  // Each form reaches a different node first; AntiEntropy then spreads
  // whichever body was accepted.
  (*cluster)->net()->Send(0, 1, "repl/block", mutated.Encode());
  (*cluster)->net()->Send(0, 2, "repl/block", honest.Encode());
  (*cluster)->RunUntilIdle();
  EXPECT_GE((*cluster)->node(1)->metrics().blocks_rejected, 1u);
  (*cluster)->AntiEntropy();

  for (network::NodeId i = 0; i < 3; ++i) {
    ReplicatedNode* node = (*cluster)->node(i);
    ASSERT_EQ(node->height(), honest.header.height) << node->name();
    const ledger::Block* body = node->chain()->PeekBlock(node->height());
    EXPECT_EQ(body->transactions.size(), honest.transactions.size())
        << node->name();
    EXPECT_TRUE(body->Encode() == honest.Encode()) << node->name();
  }
  ExpectConvergedWithAudit(cluster->get(), 6 + 3);
}

TEST(ReplicationTest, ForeignChainNeverAttaches) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.seed = 31;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "home", 6, 3);
  auto head_before = (*cluster)->ConvergedHead();
  ASSERT_TRUE(head_before.ok());

  // Blocks from a chain with another id share no genesis: they can never
  // resolve a parent here, no matter how long that chain grows.
  ledger::ChainOptions foreign_options;
  foreign_options.chain_id = "foreign";
  ledger::Blockchain foreign(foreign_options);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(foreign
                    .Append({ledger::Transaction::MakeSystem(
                                "x/op", "ch", ToBytes("f"), 1000 + i, i)},
                            1000 + i, "rogue")
                    .ok());
  }
  auto stranger = foreign.GetBlock(5);
  ASSERT_TRUE(stranger.ok());
  (*cluster)->net()->Broadcast(2, "repl/block", stranger->Encode());
  (*cluster)->RunUntilIdle();

  auto head_after = (*cluster)->ConvergedHead();
  ASSERT_TRUE(head_after.ok());
  EXPECT_EQ(head_after.value(), head_before.value());
  for (network::NodeId i = 0; i < 3; ++i) {
    EXPECT_TRUE((*cluster)->node(i)->synced());
  }
}

TEST(ReplicationTest, MinorityForkReorgsToMajorityOnHeal) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 37;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "shared", 8, 4);

  // Split-brain: the isolated node commits its own block while the
  // majority commits two — a genuine fork, one block deep.
  (*cluster)->Partition({{0, 1, 2}, {3}});
  ASSERT_TRUE((*cluster)->Submit(Rec("orphaned", "subject-0", "agent-0",
                                     5000))
                  .ok());
  ASSERT_TRUE((*cluster)->CommitPendingOn(3).ok());
  EXPECT_TRUE((*cluster)->node(3)->store()->HasRecord("orphaned"));
  Ingest(cluster->get(), "major", 8, 4, /*proposer=*/0);

  (*cluster)->Heal();
  (*cluster)->AntiEntropy();
  // Longest chain wins: the minority branch is abandoned, its store
  // rebuilt from the adopted chain, and the orphaned record is gone
  // (clients must resubmit — exactly what a real ledger demands).
  ExpectConvergedWithAudit(cluster->get(), 16);
  EXPECT_GE((*cluster)->node(3)->metrics().reorgs, 1u);
  EXPECT_GE((*cluster)->node(3)->metrics().store_rebuilds, 1u);
  EXPECT_FALSE((*cluster)->node(3)->store()->HasRecord("orphaned"));

  // Resubmitted, the record lands cluster-wide.
  ASSERT_TRUE((*cluster)->Submit(Rec("orphaned", "subject-0", "agent-0",
                                     5000))
                  .ok());
  ASSERT_TRUE((*cluster)->CommitPending().ok());
  ExpectConvergedWithAudit(cluster->get(), 17);
  EXPECT_TRUE((*cluster)->node(3)->store()->HasRecord("orphaned"));
}

TEST(ReplicationTest, LossyNetworkStillConverges) {
  // With random drops, any protocol message can vanish — including the
  // repl/blocks reply of an in-flight catch-up, which must not wedge the
  // node (a stalled conversation re-arms on the next block broadcast, and
  // anti-entropy rounds retry from scratch).
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 53;
  options.net.drop_rate = 0.15;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "lossy", 40, 4);
  for (int round = 0; round < 8 && !(*cluster)->Converged(); ++round) {
    (*cluster)->AntiEntropy();
  }
  ExpectConvergedWithAudit(cluster->get(), 40);
}

TEST(ReplicationTest, SymmetricForkResolvesWhenOneSideGrows) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 41;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "base", 4, 4);

  // Split-brain down the middle; each half commits one block — a
  // perfectly symmetric fork: equal heights, different heads.
  (*cluster)->Partition({{0, 1}, {2, 3}});
  ASSERT_TRUE((*cluster)->Submit(Rec("left", "subject-0", "agent-0", 6000))
                  .ok());
  ASSERT_TRUE((*cluster)->CommitPendingOn(0).ok());
  ASSERT_TRUE((*cluster)->Submit(Rec("right", "subject-0", "agent-0", 6001))
                  .ok());
  ASSERT_TRUE((*cluster)->CommitPendingOn(2).ok());
  (*cluster)->Heal();
  (*cluster)->AntiEntropy();
  // Longest-chain fork choice needs a strictly longer branch, so an
  // equal-length fork survives heal + anti-entropy (standard Nakamoto
  // tie behavior — the documented exception to heal convergence)...
  EXPECT_EQ((*cluster)->node(0)->height(), (*cluster)->node(2)->height());
  EXPECT_FALSE((*cluster)->Converged());

  // ...until the next commit grows one side; the other side's broadcast
  // handler pulls the winning branch and reorgs over.
  ASSERT_TRUE((*cluster)->Submit(Rec("tiebreak", "subject-0", "agent-0",
                                     6002))
                  .ok());
  ASSERT_TRUE((*cluster)->CommitPendingOn(0).ok());
  ExpectConvergedWithAudit(cluster->get(), 6);  // base 4 + left + tiebreak
  EXPECT_TRUE((*cluster)->node(2)->store()->HasRecord("left"));
  EXPECT_FALSE((*cluster)->node(2)->store()->HasRecord("right"));
  EXPECT_GE((*cluster)->node(2)->metrics().reorgs, 1u);
}

TEST(ReplicationTest, BlockHashAtMatchesHeaderHashWithoutRehash) {
  ledger::Blockchain chain;
  ASSERT_TRUE(chain
                  .Append({ledger::Transaction::MakeSystem(
                              "t/op", "ch", ToBytes("x"), 100, 1)},
                          100, "n")
                  .ok());
  auto indexed = chain.BlockHashAt(1);
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed.value(), chain.head_hash());
  auto block = chain.GetBlock(1);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(indexed.value(), block->header.Hash());
  EXPECT_TRUE(chain.BlockHashAt(2).status().IsNotFound());

  auto range = chain.PeekRange(0, 10);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[1]->header.height, 1u);
  EXPECT_TRUE(chain.PeekRange(5, 3).empty());
}

TEST(ReplicationTest, LineageProofServedOverWire) {
  ClusterOptions options;
  options.num_nodes = 3;
  options.seed = 41;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  // A three-record derivation chain, one block each, through consensus.
  ASSERT_TRUE(
      (*cluster)->Submit(Rec("a0", "s", "agent", 1000, {}, {"w0"})).ok());
  ASSERT_TRUE((*cluster)->CommitPending().ok());
  ASSERT_TRUE(
      (*cluster)->Submit(Rec("a1", "s", "agent", 1001, {"w0"}, {"w1"})).ok());
  ASSERT_TRUE((*cluster)->CommitPending().ok());
  ASSERT_TRUE(
      (*cluster)->Submit(Rec("a2", "s", "agent", 1002, {"w1"}, {"w2"})).ok());
  ASSERT_TRUE((*cluster)->CommitPending().ok());
  ASSERT_TRUE((*cluster)->Converged());

  // Node 1 asks node 2 to prove a2's ancestry. The reply bytes verify
  // against node 1's *own* main-chain headers — the serving node's store
  // is never trusted, and the verifier needs none of its own.
  ReplicatedNode* requester = (*cluster)->node(1);
  requester->RequestLineageProof(2, "a2");
  (*cluster)->RunUntilIdle();
  ASSERT_TRUE(requester->last_proof().received);
  ASSERT_TRUE(requester->last_proof().ok) << requester->last_proof().message;
  EXPECT_GE((*cluster)
                ->node(2)
                ->registry()
                ->GetCounter("repl_proofs_served_total", "")
                ->value(),
            1u);
  const Bytes wire = requester->last_proof().proof;
  auto proof = audit::LineageProof::Decode(wire);
  ASSERT_TRUE(proof.ok());
  const ledger::Blockchain& headers = *requester->chain();
  audit::LineageSummary summary;
  ASSERT_TRUE(audit::VerifyLineageProof(
                  *proof, "a2",
                  [&headers](uint64_t h) { return headers.BlockHashAt(h); },
                  &summary)
                  .ok());
  ASSERT_EQ(summary.record_ids.size(), 3u);
  EXPECT_EQ(summary.record_ids[0], "a2");

  // A flipped byte in transit must not survive decode + verify.
  Bytes damaged = wire;
  damaged[damaged.size() / 2] ^= 0x01;
  auto reparsed = audit::LineageProof::Decode(damaged);
  if (reparsed.ok()) {
    EXPECT_FALSE(audit::VerifyLineageProof(
                     *reparsed, "a2",
                     [&headers](uint64_t h) { return headers.BlockHashAt(h); })
                     .ok());
  }

  // Unknown records come back as an explicit failure, not a fabrication.
  requester->RequestLineageProof(2, "no-such-record");
  (*cluster)->RunUntilIdle();
  ASSERT_TRUE(requester->last_proof().received);
  EXPECT_FALSE(requester->last_proof().ok);
  EXPECT_TRUE(requester->last_proof().proof.empty());
}

TEST(ReplicationTest, EveryNodeAnswersMetricsOverWire) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 23;
  auto cluster = Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  Ingest(cluster->get(), "met", 24, 6);
  ASSERT_TRUE((*cluster)->Converged());

  // Every node serves repl/metrics; the body is that node's own stack.
  for (network::NodeId target = 0; target < 4; ++target) {
    SCOPED_TRACE(target);
    ReplicatedNode* asker = (*cluster)->node((target + 1) % 4);
    asker->RequestMetrics(target);
    (*cluster)->RunUntilIdle();
    ASSERT_TRUE(asker->last_metrics().received);
    const std::string& body = asker->last_metrics().body;
    EXPECT_NE(body.find("chain_height 4"), std::string::npos) << body;
    // Which SHA-256 compression the node validates with.
    EXPECT_NE(body.find(crypto::Sha256::HardwareAccelerated()
                            ? "crypto_sha256_accelerated 1"
                            : "crypto_sha256_accelerated 0"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("# TYPE chain_append_seconds histogram"),
              std::string::npos);
    // One registry per node: the serve we just triggered is the only
    // repl/metrics message this node has ever counted — a shared registry
    // would show the whole cluster's scrapes here.
    EXPECT_NE(body.find("repl_messages_total{type=\"metrics\"} 1"),
              std::string::npos);
    EXPECT_EQ((*cluster)->node(target)->registry(),
              (*cluster)->registry(target));
  }

  // A JSON scrape carries the same registry in the bench-JSON shape.
  ReplicatedNode* asker = (*cluster)->node(0);
  asker->RequestMetrics(1, obs::ExpositionFormat::kJson);
  (*cluster)->RunUntilIdle();
  ASSERT_TRUE(asker->last_metrics().received);
  const std::string& json = asker->last_metrics().body;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"name\": \"chain_height\""), std::string::npos);
}

}  // namespace
}  // namespace replication
}  // namespace provledger
