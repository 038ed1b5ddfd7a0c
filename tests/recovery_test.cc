// Durable-storage recovery tests (ctest label: recovery): FileKvStore
// crash/reopen semantics (torn WriteBatch discarded, batches atomic across
// restarts), ChainLog persist + replay + torn-tail truncation, provenance
// snapshots (save/load, chain binding, tail replay), and the full
// process-restart path: reload chain + snapshot, then VerifyIntegrity() and
// AuditAll() must pass.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "common/fileio.h"
#include "common/hash64.h"
#include "ledger/chain_log.h"
#include "prov/store.h"
#include "storage/file_kv_store.h"
#include "tamper.h"
#include "temp_dir.h"

namespace provledger {
namespace {

using testutil::MakeTempDir;
using testutil::RemoveTree;

/// Append raw garbage to a file — the on-disk shape of a crash mid-append.
void AppendGarbage(const std::string& path, size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  for (size_t i = 0; i < n; ++i) out.put(static_cast<char>(0x7F));
}

/// Chop the last `n` bytes off a file (a torn tail write).
void TruncateTail(const std::string& path, size_t n) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  auto size = static_cast<size_t>(in.tellg());
  in.close();
  ASSERT_GT(size, n);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size - n)), 0);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override { RemoveTree(dir_); }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// FileKvStore
// ---------------------------------------------------------------------------

using storage::FileKvStore;
using storage::FileKvStoreOptions;
using storage::WriteBatch;

TEST_F(RecoveryTest, FileKvStoreSurvivesReopen) {
  {
    auto store = FileKvStore::Open(dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("alpha", ToBytes("1")).ok());
    ASSERT_TRUE((*store)->Put("beta", ToBytes("2")).ok());
    ASSERT_TRUE((*store)->Put("alpha", ToBytes("1v2")).ok());  // overwrite
    ASSERT_TRUE((*store)->Delete("beta").ok());
    ASSERT_TRUE((*store)->Put("gamma", ToBytes("3")).ok());
  }
  auto reopened = FileKvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  FileKvStore& store = **reopened;
  EXPECT_FALSE(store.recovered_torn_write());
  EXPECT_EQ(store.ApproximateCount(), 2u);
  auto alpha = store.Get("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(BytesToString(alpha.value()), "1v2");
  EXPECT_FALSE(store.Has("beta"));
  EXPECT_TRUE(store.Has("gamma"));
}

TEST_F(RecoveryTest, FileKvStoreOrderedSnapshotIterator) {
  auto opened = FileKvStore::Open(dir_);
  ASSERT_TRUE(opened.ok());
  FileKvStore& store = **opened;
  ASSERT_TRUE(store.Put("b", ToBytes("2")).ok());
  ASSERT_TRUE(store.Put("a", ToBytes("1")).ok());
  ASSERT_TRUE(store.Put("c", ToBytes("3")).ok());

  auto it = store.NewIterator();
  // Mutations after snapshot creation are invisible (same contract as
  // MemKvStore), including overwrites of keys the snapshot can see.
  ASSERT_TRUE(store.Put("d", ToBytes("4")).ok());
  ASSERT_TRUE(store.Put("a", ToBytes("overwritten")).ok());

  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    keys.push_back(it->key());
    values.push_back(BytesToString(it->value()));
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(values, (std::vector<std::string>{"1", "2", "3"}));
  it->Seek("b");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "b");

  auto hits = storage::ScanPrefix(store, "a");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(BytesToString(hits[0].second), "overwritten");
}

TEST_F(RecoveryTest, FileKvStoreTornBatchIsInvisibleAfterReopen) {
  {
    auto store = FileKvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("committed", ToBytes("yes")).ok());
    WriteBatch batch;  // the batch a crash will tear
    batch.Put("torn1", std::string("a"));
    batch.Put("torn2", std::string("b"));
    batch.Delete("committed");
    ASSERT_TRUE((*store)->Write(batch).ok());
  }
  // Tear the tail record: the batch frame loses its last bytes, as if the
  // process died mid-write() or the kernel never flushed the full page.
  TruncateTail(dir_ + "/000001.log", 3);

  auto reopened = FileKvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  FileKvStore& store = **reopened;
  EXPECT_TRUE(store.recovered_torn_write());
  // No torn WriteBatch: either all three ops or none — here none.
  EXPECT_FALSE(store.Has("torn1"));
  EXPECT_FALSE(store.Has("torn2"));
  EXPECT_TRUE(store.Has("committed"));
  EXPECT_EQ(store.replayed_batches(), 1u);

  // The truncated log accepts new writes cleanly.
  ASSERT_TRUE(store.Put("after-crash", ToBytes("ok")).ok());
  auto again = FileKvStore::Open(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->Has("after-crash"));
  EXPECT_FALSE((*again)->recovered_torn_write());
}

TEST_F(RecoveryTest, FileKvStoreGarbageTailDiscarded) {
  {
    auto store = FileKvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("keep", ToBytes("v")).ok());
  }
  AppendGarbage(dir_ + "/000001.log", 13);
  auto reopened = FileKvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->recovered_torn_write());
  EXPECT_TRUE((*reopened)->Has("keep"));
  EXPECT_EQ((*reopened)->ApproximateCount(), 1u);
}

TEST_F(RecoveryTest, FileKvStoreMidLogCorruptionFailsLoudly) {
  {
    auto store = FileKvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("first", ToBytes("value-1")).ok());
    ASSERT_TRUE((*store)->Put("second", ToBytes("value-2")).ok());
  }
  // Damage a byte inside the FIRST record's payload: the frame is still
  // complete (a later valid record follows), so this is corruption — it
  // must fail loudly, never silently truncate away the valid tail.
  ASSERT_TRUE(testutil::FlipByteInFile(dir_ + "/000001.log", 10).ok());
  auto reopened = FileKvStore::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(RecoveryTest, FileKvStoreRollsSegmentsAndReplaysAll) {
  FileKvStoreOptions options;
  options.segment_bytes = 256;  // force frequent rolls
  options.sync_writes = false;
  size_t segments;
  {
    auto store = FileKvStore::Open(dir_, options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("key-" + std::to_string(i),
                            Bytes(32, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE((*store)->Sync().ok());
    segments = (*store)->segment_count();
    EXPECT_GT(segments, 1u);
  }
  auto reopened = FileKvStore::Open(dir_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->segment_count(), segments);
  EXPECT_EQ((*reopened)->ApproximateCount(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto got = (*reopened)->Get("key-" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), Bytes(32, static_cast<uint8_t>(i)));
  }
}

// ---------------------------------------------------------------------------
// ChainLog
// ---------------------------------------------------------------------------

ledger::Transaction SysTx(const std::string& note, uint64_t nonce) {
  return ledger::Transaction::MakeSystem("test/op", "ch", ToBytes(note),
                                         /*timestamp=*/100 + nonce, nonce);
}

TEST_F(RecoveryTest, ChainLogPersistsAndReplays) {
  const std::string path = dir_ + "/chain.log";
  crypto::Digest head;
  {
    ledger::Blockchain chain;
    auto log = ledger::ChainLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE((*log)->AttachTo(&chain).ok());
    for (uint64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(chain.Append({SysTx("b" + std::to_string(i), i)},
                               1000 + i, "node-1")
                      .ok());
    }
    EXPECT_EQ((*log)->block_count(), 5u);
    head = chain.head_hash();
  }

  // "Restart": a fresh process reloads the chain purely from the log.
  ledger::Blockchain chain;
  auto log = ledger::ChainLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->block_count(), 5u);
  ASSERT_TRUE((*log)->AttachTo(&chain).ok());
  EXPECT_EQ(chain.height(), 5u);
  EXPECT_EQ(chain.head_hash(), head);
  EXPECT_TRUE(chain.VerifyIntegrity().ok());

  // New blocks after the restart keep streaming to the same log.
  ASSERT_TRUE(chain.Append({SysTx("post-restart", 6)}, 2000, "node-1").ok());
  EXPECT_EQ((*log)->block_count(), 6u);
}

TEST_F(RecoveryTest, ChainLogTornTailTruncated) {
  const std::string path = dir_ + "/chain.log";
  {
    ledger::Blockchain chain;
    auto log = ledger::ChainLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AttachTo(&chain).ok());
    ASSERT_TRUE(chain.Append({SysTx("b1", 1)}, 1001, "n").ok());
    ASSERT_TRUE(chain.Append({SysTx("b2", 2)}, 1002, "n").ok());
  }
  TruncateTail(path, 5);  // tear the second block's frame

  ledger::Blockchain chain;
  auto log = ledger::ChainLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_TRUE((*log)->recovered_torn_write());
  EXPECT_EQ((*log)->block_count(), 1u);
  ASSERT_TRUE((*log)->AttachTo(&chain).ok());
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_TRUE(chain.VerifyIntegrity().ok());
}

TEST_F(RecoveryTest, ChainLogMidLogCorruptionFailsLoudly) {
  const std::string path = dir_ + "/chain.log";
  {
    ledger::Blockchain chain;
    auto log = ledger::ChainLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AttachTo(&chain).ok());
    ASSERT_TRUE(chain.Append({SysTx("b1", 1)}, 1001, "n").ok());
    ASSERT_TRUE(chain.Append({SysTx("b2", 2)}, 1002, "n").ok());
  }
  // Damage the FIRST block's payload: a complete frame with a valid block
  // after it. Truncating here would silently destroy block 2, so Open must
  // report Corruption instead.
  ASSERT_TRUE(testutil::FlipByteInFile(path, 20).ok());
  auto log = ledger::ChainLog::Open(path);
  ASSERT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsCorruption());
}

TEST_F(RecoveryTest, ChainLogRefusesForeignChain) {
  const std::string path = dir_ + "/chain.log";
  {
    ledger::ChainOptions options;
    options.chain_id = "chain-a";
    ledger::Blockchain chain(options);
    auto log = ledger::ChainLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AttachTo(&chain).ok());
    ASSERT_TRUE(chain.Append({SysTx("b1", 1)}, 1001, "n").ok());
  }
  // chain-b has a different genesis: the first logged block cannot attach.
  ledger::ChainOptions options;
  options.chain_id = "chain-b";
  ledger::Blockchain chain(options);
  auto log = ledger::ChainLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->AttachTo(&chain).ok());
}

TEST_F(RecoveryTest, ChainLogBackfillsExistingChain) {
  ledger::Blockchain chain;
  ASSERT_TRUE(chain.Append({SysTx("pre1", 1)}, 1001, "n").ok());
  ASSERT_TRUE(chain.Append({SysTx("pre2", 2)}, 1002, "n").ok());
  auto log = ledger::ChainLog::Open(dir_ + "/chain.log");
  ASSERT_TRUE(log.ok());
  // Attaching an empty log to a lived-in chain persists its history.
  ASSERT_TRUE((*log)->AttachTo(&chain).ok());
  EXPECT_EQ((*log)->block_count(), 2u);

  ledger::Blockchain reloaded;
  auto log2 = ledger::ChainLog::Open(dir_ + "/chain.log");
  ASSERT_TRUE(log2.ok());
  ASSERT_TRUE((*log2)->Replay(&reloaded).ok());
  EXPECT_EQ(reloaded.head_hash(), chain.head_hash());
}

// ---------------------------------------------------------------------------
// Provenance snapshots + full restart
// ---------------------------------------------------------------------------

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

TEST_F(RecoveryTest, SnapshotRestoresGraphIndexAndTail) {
  const std::string snapshot = dir_ + "/store.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);

  ASSERT_TRUE(store.Anchor(Rec("r1", "doc", "alice", 100)).ok());
  ASSERT_TRUE(store.Anchor(Rec("r2", "doc", "bob", 200, {"doc"}, {"sum"}))
                  .ok());
  ASSERT_TRUE(
      store.Anchor(Rec("r3", "sum", "bob", 300, {"sum"}, {"report"})).ok());
  ASSERT_TRUE(store.mutable_graph()->Invalidate("r2", 350, "bad data").ok());
  ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());

  // Tail: records anchored after the snapshot was taken.
  ASSERT_TRUE(store.Anchor(Rec("r4", "doc", "carol", 400)).ok());
  ASSERT_TRUE(store.Anchor(Rec("r5", "report", "carol", 500, {"report"}))
                  .ok());

  prov::ProvenanceStore restored(&chain, &clock);
  ASSERT_TRUE(restored.LoadSnapshot(snapshot).ok());
  EXPECT_EQ(restored.anchored_count(), 5u);
  EXPECT_EQ(restored.graph().record_count(), 5u);
  EXPECT_EQ(restored.graph().edge_count(), store.graph().edge_count());

  // Graph queries, lineage, and invalidation state all survive.
  EXPECT_EQ(restored.SubjectHistory("doc").size(), 3u);
  EXPECT_EQ(restored.ByAgent("carol").size(), 2u);
  auto lineage = restored.Lineage("report");
  EXPECT_EQ(lineage.size(), 2u);  // report <- sum <- doc
  EXPECT_TRUE(restored.graph().IsInvalidated("r2"));
  auto inv = restored.graph().GetInvalidation("r2");
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->reason, "bad data");
  EXPECT_FALSE(inv->cascaded);
  // r3 consumed r2's output, so the cascade marked it too.
  EXPECT_TRUE(restored.graph().IsInvalidated("r3"));

  // Proofs and the full audit run against the restored txid column.
  ASSERT_TRUE(restored.ProveRecord("r1").ok());
  ASSERT_TRUE(restored.ProveRecord("r5").ok());
  auto audit = restored.AuditAll();
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(audit.value(), 5u);

  // Nonce issuance resumes past the tail (no on-chain nonce reuse).
  ASSERT_TRUE(restored.Anchor(Rec("r6", "doc", "dave", 600)).ok());
  std::set<uint64_t> nonces;
  for (const auto& tx : chain.GetChannelTransactions("prov")) {
    EXPECT_TRUE(nonces.insert(tx.nonce).second) << "nonce reused";
  }
}

TEST_F(RecoveryTest, RestoredStoreHydratesEveryDeferredStructure) {
  // A restored store defers records, intern maps, adjacency, postings,
  // meta edges and the time index to first touch. Drive every one of
  // those paths and hold the results against the original.
  const std::string snapshot = dir_ + "/store.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store
                    .Anchor(Rec("r" + std::to_string(i),
                                "s" + std::to_string(i % 5),
                                "a" + std::to_string(i % 3), 100 + i,
                                i > 0 ? std::vector<std::string>{
                                            "e" + std::to_string(i - 1)}
                                      : std::vector<std::string>{},
                                {"e" + std::to_string(i)}))
                    .ok());
  }
  ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());

  prov::ProvenanceStore restored(&chain, &clock);
  ASSERT_TRUE(restored.LoadSnapshot(snapshot).ok());

  // Postings (subject/agent), time index, usage, derivations, records.
  EXPECT_EQ(restored.SubjectHistory("s3").size(), store.SubjectHistory("s3").size());
  EXPECT_EQ(restored.ByAgent("a2").size(), store.ByAgent("a2").size());
  EXPECT_EQ(restored.InRange(110, 120).size(), store.InRange(110, 120).size());
  EXPECT_EQ(restored.Lineage("e39"), store.Lineage("e39"));
  EXPECT_EQ(restored.graph().Descendants("e0"), store.graph().Descendants("e0"));
  auto by_input = restored.Execute(prov::Query().WithInput("e10"));
  ASSERT_EQ(by_input.records.size(), 1u);
  EXPECT_EQ(by_input.records[0].record_id, "r11");
  auto by_output = restored.Execute(prov::Query().WithOutput("e10"));
  ASSERT_EQ(by_output.records.size(), 1u);
  EXPECT_EQ(by_output.records[0].record_id, "r10");

  // Planner cardinality accessors.
  EXPECT_EQ(restored.graph().SubjectRecordCount("s0"), 8u);
  EXPECT_EQ(restored.graph().AgentRecordCount("a1"), 13u);
  EXPECT_EQ(restored.graph().EntityUseCount("e5"), 1u);
  EXPECT_EQ(restored.graph().EntityGenerationCount("e5"), 1u);
  EXPECT_EQ(restored.graph().InRangeCount(100, 139), 40u);
  EXPECT_EQ(restored.graph().edge_count(), store.graph().edge_count());

  // Point lookups materialize records lazily.
  auto rec = restored.GetRecord("r17");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->subject, "s2");
  EXPECT_EQ(rec->inputs, std::vector<std::string>{"e16"});

  // Invalidation cascades post-restore (meta edges + usage BFS).
  auto cascade = restored.mutable_graph()->Invalidate("r20", 500, "redo");
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(cascade->size(), 20u);  // r20..r39 chain
  EXPECT_TRUE(restored.graph().IsInvalidated("r39"));
  EXPECT_EQ(restored.Execute(
                    prov::Query().OnlyValid().CountOnly()).count,
            20u);

  // New anchors after restore (hydrates everything left).
  ASSERT_TRUE(restored.Anchor(Rec("r40", "s0", "a0", 200, {"e39"})).ok());
  EXPECT_EQ(restored.SubjectHistory("s0").size(), 9u);
  auto audit = restored.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value(), 41u);
}

TEST_F(RecoveryTest, SnapshotOfRestoredStoreRoundTrips) {
  // Saving from a store that never hydrated its deferred sections must
  // pass them through byte-for-byte; the second-generation snapshot then
  // restores the same state.
  const std::string snap1 = dir_ + "/gen1.snap";
  const std::string snap2 = dir_ + "/gen2.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .Anchor(Rec("r" + std::to_string(i), "doc", "alice",
                                100 + i, {}, {"e" + std::to_string(i)}))
                    .ok());
  }
  ASSERT_TRUE(store.SaveSnapshot(snap1).ok());

  prov::ProvenanceStore mid(&chain, &clock);
  ASSERT_TRUE(mid.LoadSnapshot(snap1).ok());
  // No queries in between: every section is still in raw passthrough form.
  ASSERT_TRUE(mid.SaveSnapshot(snap2).ok());

  prov::ProvenanceStore end(&chain, &clock);
  ASSERT_TRUE(end.LoadSnapshot(snap2).ok());
  EXPECT_EQ(end.anchored_count(), 10u);
  EXPECT_EQ(end.SubjectHistory("doc").size(), 10u);
  auto audit = end.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit.value(), 10u);
}

TEST_F(RecoveryTest, SnapshotRefusesForeignChainAndRecoverFallsBack) {
  const std::string snapshot = dir_ + "/store.snap";
  SimClock clock(1'000'000);
  {
    ledger::Blockchain chain;
    prov::ProvenanceStore store(&chain, &clock);
    ASSERT_TRUE(store.Anchor(Rec("r1", "doc", "alice", 100)).ok());
    ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());
  }
  // A different chain (same id, different history): hash binding must trip.
  ledger::Blockchain other;
  ASSERT_TRUE(other.Append({SysTx("unrelated", 1)}, 1001, "n").ok());
  prov::ProvenanceStore store(&other, &clock);
  EXPECT_TRUE(store.LoadSnapshot(snapshot).IsFailedPrecondition());
  // Recover() treats the stale snapshot as a miss and rebuilds instead.
  ASSERT_TRUE(store.Recover(snapshot).ok());
  EXPECT_EQ(store.anchored_count(), 0u);  // nothing on the prov channel
}

TEST_F(RecoveryTest, CorruptSnapshotFailsLoudly) {
  const std::string snapshot = dir_ + "/store.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  ASSERT_TRUE(store.Anchor(Rec("r1", "doc", "alice", 100)).ok());
  ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());

  // Flip one body byte: the CRC catches it before any state is replaced.
  ASSERT_TRUE(testutil::CorruptSnapshotFile(snapshot).ok());

  prov::ProvenanceStore fresh(&chain, &clock);
  EXPECT_TRUE(fresh.LoadSnapshot(snapshot).IsCorruption());
  EXPECT_EQ(fresh.anchored_count(), 0u);
  // Recover() must not quietly mask corruption as a cache miss.
  EXPECT_TRUE(fresh.Recover(snapshot).IsCorruption());
}

TEST_F(RecoveryTest, RetiredSnapshotFormatIsAMissNotCorruption) {
  const std::string snapshot = dir_ + "/store.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  ASSERT_TRUE(store.Anchor(Rec("r1", "doc", "alice", 100)).ok());
  ASSERT_TRUE(store.Anchor(Rec("r2", "doc", "bob", 200, {"doc"}, {"sum"}))
                  .ok());
  ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());
  auto saved = ReadFileToBytes(snapshot);
  ASSERT_TRUE(saved.ok());
  ASSERT_EQ(std::string(saved->begin(), saved->begin() + 8), "PLSNAP04");

  // A file in a retired format — the whole-graph serialization (PLSNAP02)
  // or row groups plus a rec/ index (PLSNAP03) — is a cache miss:
  // LoadSnapshot refuses it as stale and Recover rebuilds from the chain
  // instead of failing.
  for (char version : {'2', '3'}) {
    Bytes retired = saved.value();
    retired[7] = static_cast<uint8_t>(version);
    ASSERT_TRUE(WriteFileAtomic(snapshot, retired).ok());
    prov::ProvenanceStore fresh(&chain, &clock);
    EXPECT_TRUE(fresh.LoadSnapshot(snapshot).IsFailedPrecondition());
    EXPECT_EQ(fresh.anchored_count(), 0u);
    ASSERT_TRUE(fresh.Recover(snapshot).ok());
    EXPECT_EQ(fresh.anchored_count(), 2u);
    EXPECT_EQ(fresh.Lineage("sum"), std::vector<std::string>{"doc"});
  }

  // An unknown magic is still corruption, as is a checksum mismatch.
  Bytes unknown = saved.value();
  unknown[0] = 'X';
  ASSERT_TRUE(WriteFileAtomic(snapshot, unknown).ok());
  prov::ProvenanceStore other(&chain, &clock);
  EXPECT_TRUE(other.LoadSnapshot(snapshot).IsCorruption());
  EXPECT_TRUE(other.Recover(snapshot).IsCorruption());
  Bytes flipped = saved.value();
  flipped.back() ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(snapshot, flipped).ok());
  EXPECT_TRUE(other.LoadSnapshot(snapshot).IsCorruption());
}

TEST_F(RecoveryTest, BadTxidColumnLeavesLiveStoreUntouched) {
  const std::string snapshot = dir_ + "/store.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  ASSERT_TRUE(store.Anchor(Rec("r1", "doc", "alice", 100)).ok());
  ASSERT_TRUE(store.Anchor(Rec("r2", "doc", "bob", 200)).ok());
  ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());
  ASSERT_TRUE(store.PublishSnapshot().ok());
  const uint64_t epoch = store.snapshot_epoch();

  // Drop the column's last digest and re-frame the body's length and
  // checksum, so the column is the only thing wrong with the file.
  auto saved = ReadFileToBytes(snapshot);
  ASSERT_TRUE(saved.ok());
  constexpr size_t kFrame = 8 + 4 + 8;  // magic, body length, checksum
  const Bytes body(saved->begin() + kFrame, saved->end() - 32);
  Encoder file;
  file.PutRaw(Bytes(saved->begin(), saved->begin() + 8));
  file.PutU32(static_cast<uint32_t>(body.size()));
  file.PutU64(Hash64(body));
  file.PutRaw(body);
  ASSERT_TRUE(WriteFileAtomic(snapshot, file.buffer()).ok());

  // The column is checked before any state is replaced: the live store
  // keeps its records, its answers and its published epoch.
  EXPECT_TRUE(store.LoadSnapshot(snapshot).IsCorruption());
  EXPECT_EQ(store.anchored_count(), 2u);
  EXPECT_EQ(store.SubjectHistory("doc").size(), 2u);
  EXPECT_EQ(store.snapshot_epoch(), epoch);
  EXPECT_TRUE(store.ProveRecord("r2").ok());
}

TEST_F(RecoveryTest, SnapshotRoundTripsRowGroupsAndKeepsPublishing) {
  // Spans a sealed row group plus a partly filled one, so the restored
  // store resumes filling the loaded open group.
  const std::string snapshot = dir_ + "/store.snap";
  ledger::Blockchain chain;
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  const size_t kRecords = prov::kRowGroupRows + 100;
  auto rec = [](size_t i) {
    return Rec("r" + std::to_string(i), "s" + std::to_string(i % 13),
               "a" + std::to_string(i % 5), static_cast<Timestamp>(i),
               i > 0 ? std::vector<std::string>{"e" + std::to_string(i - 1)}
                     : std::vector<std::string>{},
               {"e" + std::to_string(i)});
  };
  std::vector<prov::ProvenanceRecord> batch;
  for (size_t i = 0; i < kRecords; ++i) {
    batch.push_back(rec(i));
    if (batch.size() == 4096 || i + 1 == kRecords) {
      ASSERT_TRUE(store.AnchorBatch(batch).ok());
      batch.clear();
    }
  }
  ASSERT_TRUE(store.mutable_graph()->Invalidate("r40", 1, "drift").ok());
  ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());
  ASSERT_TRUE(store.Anchor(rec(kRecords)).ok());  // tail past the snapshot

  prov::ProvenanceStore restored(&chain, &clock);
  ASSERT_TRUE(restored.LoadSnapshot(snapshot).ok());
  EXPECT_EQ(restored.anchored_count(), kRecords + 1);
  EXPECT_EQ(restored.graph().edge_count(), store.graph().edge_count());
  EXPECT_EQ(restored.graph().invalidated_count(),
            store.graph().invalidated_count());
  EXPECT_EQ(restored.Lineage("e" + std::to_string(kRecords)).size(),
            kRecords);
  auto inv = restored.graph().GetInvalidation("r41");
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->record_id, "r41");
  EXPECT_TRUE(inv->cascaded);
  EXPECT_EQ(restored.SubjectHistory("s3").size(),
            store.SubjectHistory("s3").size());
  ASSERT_TRUE(restored.AuditAll().ok());

  // Publishing from the restored store shares the loaded sealed group.
  ASSERT_TRUE(restored.PublishSnapshot().ok());
  auto epoch = restored.AcquireSnapshot();
  ASSERT_NE(epoch, nullptr);
  ASSERT_EQ(epoch->image().groups.size(), 2u);
  EXPECT_EQ(epoch->record_count(), kRecords + 1);
  auto reader = epoch->OpenReader();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->Execute(prov::Query().WithSubject("s3")).count,
            store.SubjectHistory("s3").size());
}

TEST_F(RecoveryTest, FullProcessRestartRestoresChainAndStore) {
  const std::string chain_log = dir_ + "/chain.log";
  const std::string snapshot = dir_ + "/store.snap";
  SimClock clock(1'000'000);
  crypto::Digest head;
  {
    // "Process one": durable chain, anchored records, snapshot mid-way.
    ledger::Blockchain chain;
    auto log = ledger::ChainLog::Open(chain_log);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AttachTo(&chain).ok());
    prov::ProvenanceStore store(&chain, &clock);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store
                      .Anchor(Rec("r" + std::to_string(i),
                                  "s" + std::to_string(i % 4), "agent",
                                  100 + i,
                                  i > 0 ? std::vector<std::string>{
                                              "e" + std::to_string(i - 1)}
                                        : std::vector<std::string>{},
                                  {"e" + std::to_string(i)}))
                      .ok());
    }
    ASSERT_TRUE(store.SaveSnapshot(snapshot).ok());
    for (int i = 20; i < 25; ++i) {  // short tail past the snapshot
      ASSERT_TRUE(store
                      .Anchor(Rec("r" + std::to_string(i), "s0", "agent",
                                  100 + i))
                      .ok());
    }
    head = chain.head_hash();
  }

  // "Process two": everything comes back from disk.
  ledger::Blockchain chain;
  auto log = ledger::ChainLog::Open(chain_log);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AttachTo(&chain).ok());
  EXPECT_EQ(chain.head_hash(), head);
  ASSERT_TRUE(chain.VerifyIntegrity().ok());

  prov::ProvenanceStore store(&chain, &clock);
  ASSERT_TRUE(store.Recover(snapshot).ok());
  EXPECT_EQ(store.anchored_count(), 25u);
  auto audit = store.AuditAll();
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(audit.value(), 25u);
  EXPECT_EQ(store.Lineage("e19").size(), 19u);
  EXPECT_EQ(store.SubjectHistory("s0").size(), 10u);

  // The revived node keeps appending durably.
  ASSERT_TRUE(store.Anchor(Rec("r25", "s1", "agent", 200)).ok());
  EXPECT_EQ((*log)->block_count(), chain.height());
}

}  // namespace
}  // namespace provledger
