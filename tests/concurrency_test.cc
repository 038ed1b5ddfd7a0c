// Concurrency suite (ctest label `concurrency`; run under TSan via
// scripts/check_build.sh or -DPROVLEDGER_SANITIZE=thread):
//
//   * multi-producer sharded ingest: everything lands, chain verifies,
//     per-subject order survives the shard fan-out,
//   * writer vs many readers over published snapshot epochs: readers see
//     only fully-committed state, monotone epochs, contiguous per-subject
//     prefixes, and an acquired epoch never moves underneath them,
//   * row-group epochs: pinned epochs keep exactly their rows while the
//     writer seals groups, consecutive epochs share sealed groups, a
//     reader answers every query kind exactly like the live graph (also
//     across groups whose time ranges overlap, and after extending an
//     opened graph in memory), and readers on one or many epochs build
//     each group index exactly once between them,
//   * parallel query execution: bit-identical results to serial runs,
//   * the prepared-block fast path: byte-identical blocks to Append,
//   * chunked chain views: a reader walks whole views while the writer
//     seals chunks.
//
// Sizes are deliberately moderate — TSan multiplies runtime ~10x.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/merkle.h"
#include "obs/metrics.h"
#include "prov/ingest_pipeline.h"
#include "prov/snapshot.h"
#include "prov/store.h"

namespace provledger {
namespace prov {
namespace {

ProvenanceRecord Rec(size_t i, size_t subjects, size_t agents) {
  ProvenanceRecord rec;
  rec.record_id = "rec-" + std::to_string(i);
  rec.subject = "entity-" + std::to_string(i % subjects);
  rec.agent = "agent-" + std::to_string(i % agents);
  rec.operation = (i % 3 == 0) ? "update" : "read";
  rec.timestamp = 1'000'000 + static_cast<Timestamp>(i);
  rec.fields["seq"] = std::to_string(i);
  return rec;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : clock_(1'000'000), store_(&chain_, &clock_) {}
  ledger::Blockchain chain_;
  SimClock clock_;
  ProvenanceStore store_;
};

// -- Multi-producer ingest ---------------------------------------------------

TEST_F(ConcurrencyTest, MultiProducerIngestCommitsEverything) {
  constexpr size_t kRecords = 8000;
  constexpr size_t kProducers = 4;
  IngestPipelineOptions options;
  options.shards = 4;
  options.batch_size = 128;
  {
    IngestPipeline pipeline(&store_, options);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = p; i < kRecords; i += kProducers) {
          ASSERT_TRUE(pipeline.Submit(Rec(i, 400, 16)).ok());
        }
      });
    }
    for (auto& producer : producers) producer.join();
    ASSERT_TRUE(pipeline.Close().ok());
    EXPECT_EQ(pipeline.submitted(), kRecords);
    EXPECT_EQ(pipeline.committed(), kRecords);
    EXPECT_EQ(pipeline.failed(), 0u);
    EXPECT_GE(pipeline.batches_committed(), kRecords / options.batch_size);
  }
  EXPECT_EQ(store_.anchored_count(), kRecords);
  EXPECT_EQ(store_.graph().record_count(), kRecords);
  ASSERT_TRUE(chain_.VerifyIntegrity().ok());
  auto audited = store_.AuditAll();
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  EXPECT_EQ(audited.value(), kRecords);
}

TEST_F(ConcurrencyTest, PipelinePreservesPerSubjectOrder) {
  // All records of one subject route through one shard (interned subject
  // id), so per-subject submission order must survive however producers
  // interleave across subjects.
  constexpr size_t kRecords = 4000;
  IngestPipelineOptions options;
  options.shards = 4;
  options.batch_size = 64;
  IngestPipeline pipeline(&store_, options);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      // Producer p owns subjects with s % 4 == p: per-subject order ==
      // this producer's submission order.
      for (size_t i = p; i < kRecords; i += 4) {
        ASSERT_TRUE(pipeline.Submit(Rec(i, 40, 4)).ok());
      }
    });
  }
  for (auto& producer : producers) producer.join();
  ASSERT_TRUE(pipeline.Close().ok());

  for (size_t s = 0; s < 40; ++s) {
    auto history = store_.SubjectHistory("entity-" + std::to_string(s));
    ASSERT_EQ(history.size(), kRecords / 40);
    long prev = -1;
    for (const auto& rec : history) {
      long seq = std::stol(rec.fields.at("seq"));
      EXPECT_GT(seq, prev);
      prev = seq;
    }
  }
}

TEST_F(ConcurrencyTest, PipelineDropsDuplicatesAndReportsThem) {
  ASSERT_TRUE(store_.Anchor(Rec(0, 10, 2)).ok());  // pre-anchored
  IngestPipelineOptions options;
  options.shards = 2;
  options.batch_size = 8;
  IngestPipeline pipeline(&store_, options);
  ASSERT_TRUE(pipeline.Submit(Rec(0, 10, 2)).ok());   // duplicate
  ASSERT_TRUE(pipeline.Submit(Rec(1, 10, 2)).ok());   // fresh
  ASSERT_TRUE(pipeline.Submit(Rec(1, 10, 2)).ok());   // duplicate of fresh
  Status closed = pipeline.Close();
  EXPECT_TRUE(closed.IsAlreadyExists()) << closed.ToString();
  EXPECT_EQ(pipeline.committed(), 1u);
  EXPECT_EQ(pipeline.failed(), 2u);
  EXPECT_EQ(store_.anchored_count(), 2u);  // pre-anchored + fresh
  ASSERT_TRUE(chain_.VerifyIntegrity().ok());
}

TEST_F(ConcurrencyTest, PipelineRejectsInvalidRecordsWithoutStalling) {
  IngestPipelineOptions options;
  options.shards = 2;
  options.batch_size = 4;
  IngestPipeline pipeline(&store_, options);
  ProvenanceRecord bad;  // fails Validate() on the shard worker
  bad.subject = "s";
  ASSERT_TRUE(pipeline.Submit(bad).ok());  // Submit is fire-and-forget
  ASSERT_TRUE(pipeline.Submit(Rec(1, 10, 2)).ok());
  Status closed = pipeline.Close();
  EXPECT_TRUE(closed.IsInvalidArgument()) << closed.ToString();
  EXPECT_EQ(pipeline.committed(), 1u);
  EXPECT_EQ(pipeline.failed(), 1u);
  EXPECT_FALSE(pipeline.Submit(Rec(2, 10, 2)).ok());  // closed
}

TEST_F(ConcurrencyTest, FlushAfterCloseReturnsInsteadOfHanging) {
  // Regression: with publish_on_flush, a Flush after Close used to
  // enqueue a publish marker onto a commit queue whose consumer had
  // already exited, waiting forever.
  IngestPipelineOptions options;
  options.shards = 2;
  options.batch_size = 8;
  options.publish_on_flush = true;
  IngestPipeline pipeline(&store_, options);
  ASSERT_TRUE(pipeline.Submit(Rec(0, 4, 2)).ok());
  ASSERT_TRUE(pipeline.Close().ok());
  EXPECT_TRUE(pipeline.Flush().ok());   // returns Close()'s result
  EXPECT_TRUE(pipeline.Close().ok());   // idempotent
  EXPECT_GE(pipeline.snapshots_published(), 1u);  // close's flush published
}

// -- Snapshot-isolated readers ----------------------------------------------

TEST_F(ConcurrencyTest, WriterVsManyReadersSeeOnlyCommittedState) {
  constexpr size_t kRecords = 6000;
  constexpr size_t kReaders = 3;
  IngestPipelineOptions options;
  options.shards = 4;
  options.batch_size = 64;
  options.snapshot_every_batches = 4;
  IngestPipeline pipeline(&store_, options);

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = store_.AcquireSnapshot();
        if (snapshot == nullptr) continue;
        // Epochs only move forward.
        EXPECT_GE(snapshot->epoch(), last_epoch);
        last_epoch = snapshot->epoch();
        auto reader = snapshot->OpenReader();
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        EXPECT_EQ(reader->graph().record_count(), snapshot->record_count());
        // Per-subject histories must be contiguous prefixes: subject s
        // sees seq s, s+150, s+300, ... with no gaps — a reader can never
        // observe a record without every earlier record of that subject
        // (batches commit whole, in per-subject order).
        const size_t subject = reads.load(std::memory_order_relaxed) % 150;
        auto history = reader->Execute(
            Query().WithSubject("entity-" + std::to_string(subject)));
        size_t expected = subject;
        for (const auto& rec : history.records) {
          ASSERT_EQ(rec.fields.at("seq"), std::to_string(expected));
          expected += 150;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(pipeline.Submit(Rec(i, 150, 8)).ok());
  }
  ASSERT_TRUE(pipeline.Close().ok());
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(pipeline.committed(), kRecords);
  EXPECT_GT(pipeline.snapshots_published(), 0u);
  ASSERT_TRUE(chain_.VerifyIntegrity().ok());
}

TEST_F(ConcurrencyTest, AcquiredSnapshotIsPinnedWhileWriterAdvances) {
  IngestPipelineOptions options;
  options.shards = 2;
  options.batch_size = 16;
  options.publish_on_flush = true;
  IngestPipeline pipeline(&store_, options);
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(pipeline.Submit(Rec(i, 8, 2)).ok());
  }
  ASSERT_TRUE(pipeline.Flush().ok());
  auto old_snapshot = store_.AcquireSnapshot();
  ASSERT_NE(old_snapshot, nullptr);
  EXPECT_EQ(old_snapshot->record_count(), 64u);

  for (size_t i = 64; i < 128; ++i) {
    ASSERT_TRUE(pipeline.Submit(Rec(i, 8, 2)).ok());
  }
  ASSERT_TRUE(pipeline.Close().ok());

  // The old epoch still reads exactly its 64 records; the new epoch has
  // all 128. Snapshot isolation: nothing moved under the old reader.
  auto old_reader = old_snapshot->OpenReader();
  ASSERT_TRUE(old_reader.ok());
  EXPECT_EQ(old_reader->graph().record_count(), 64u);
  EXPECT_EQ(old_reader->Execute(Query().CountOnly()).count, 64u);

  auto new_snapshot = store_.AcquireSnapshot();
  ASSERT_NE(new_snapshot, nullptr);
  EXPECT_GT(new_snapshot->epoch(), old_snapshot->epoch());
  auto new_reader = new_snapshot->OpenReader();
  ASSERT_TRUE(new_reader.ok());
  EXPECT_EQ(new_reader->Execute(Query().CountOnly()).count, 128u);
}

TEST_F(ConcurrencyTest, SnapshotSupportsLineageAndInvalidity) {
  // Snapshot readers expose the full graph surface, not just Run().
  ProvenanceRecord base = Rec(0, 1, 1);
  base.outputs = {"derived-1"};
  ASSERT_TRUE(store_.Anchor(base).ok());
  ProvenanceRecord child = Rec(1, 1, 1);
  child.inputs = {"derived-1"};
  child.outputs = {"derived-2"};
  ASSERT_TRUE(store_.Anchor(child).ok());
  ASSERT_TRUE(store_.PublishSnapshot().ok());

  auto snapshot = store_.AcquireSnapshot();
  ASSERT_NE(snapshot, nullptr);
  auto reader = snapshot->OpenReader();
  ASSERT_TRUE(reader.ok());
  auto lineage = reader->graph().Lineage("derived-2");
  EXPECT_EQ(lineage.size(), 1u);
  EXPECT_EQ(lineage[0], "derived-1");
}

// -- Row-group epochs --------------------------------------------------------

// Chains of 50 records over out-of-order timestamps (with ties): record i
// derives from the outputs of i-1 and i-2 in its chain, so invalidating one
// record cascades down the rest of its chain only.
ProvenanceRecord ChainRec(size_t i) {
  ProvenanceRecord rec = Rec(i, 97, 7);
  rec.timestamp = 2'000'000 + static_cast<Timestamp>((i * 7919) % 5003);
  rec.outputs = {"out-" + std::to_string(i)};
  if (i % 50 >= 1) rec.inputs.push_back("out-" + std::to_string(i - 1));
  if (i % 50 >= 2) rec.inputs.push_back("out-" + std::to_string(i - 2));
  return rec;
}

void AddChainRecs(ProvenanceGraph* graph, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    ASSERT_TRUE(graph->AddRecord(ChainRec(i)).ok());
  }
}

void ExpectSameResults(const QueryResult& serial, const QueryResult& parallel) {
  EXPECT_EQ(serial.count, parallel.count);
  EXPECT_EQ(serial.index_used, parallel.index_used);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].record_id, parallel.records[i].record_id);
  }
}

std::vector<std::string> Ids(const QueryResult& result) {
  std::vector<std::string> ids;
  for (const auto& rec : result.records) ids.push_back(rec.record_id);
  return ids;
}

TEST(RowGroupEpochTest, PinnedEpochKeepsExactlyItsRecords) {
  constexpr size_t kPinned = 1000;
  ProvenanceGraph graph;
  AddChainRecs(&graph, 0, kPinned);
  GraphSnapshot pinned(1, 0, graph.Image());
  auto early = pinned.OpenReader();  // opened before the writer moves on
  ASSERT_TRUE(early.ok());

  // Two groups' worth of rows: the pinned epoch's open group gets sealed
  // and a second group fills behind it.
  AddChainRecs(&graph, kPinned, kPinned + 2 * kRowGroupRows);
  GraphSnapshot next(2, 0, graph.Image());
  EXPECT_EQ(next.image().groups.size(), 3u);
  auto late = pinned.OpenReader();  // opened after
  ASSERT_TRUE(late.ok());

  std::vector<std::string> expected;
  for (size_t i = 0; i < kPinned; ++i) {
    expected.push_back("rec-" + std::to_string(i));
  }
  std::sort(expected.begin(), expected.end());
  for (const SnapshotReader* reader : {&early.value(), &late.value()}) {
    EXPECT_EQ(reader->graph().record_count(), kPinned);
    std::vector<std::string> ids = Ids(reader->Execute(Query()));
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, expected);
    EXPECT_FALSE(reader->graph().HasRecord("rec-" + std::to_string(kPinned)));
    EXPECT_EQ(reader->graph().Lineage("out-" + std::to_string(kPinned)),
              std::vector<std::string>{});
  }
  auto newest = next.OpenReader();
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->Execute(Query().CountOnly()).count,
            kPinned + 2 * kRowGroupRows);
}

TEST(RowGroupEpochTest, ConsecutiveEpochsShareSealedGroups) {
  ProvenanceGraph graph;
  AddChainRecs(&graph, 0, kRowGroupRows + 10);
  GraphImage first = graph.Image();
  AddChainRecs(&graph, kRowGroupRows + 10, kRowGroupRows + 20);
  size_t written = 0;
  GraphImage second = graph.Image(&written);

  ASSERT_EQ(first.groups.size(), 2u);
  ASSERT_EQ(second.groups.size(), 2u);
  // The sealed group is one buffer shared by both epochs; the open group
  // is each epoch's own copy.
  EXPECT_EQ(first.groups[0].get(), second.groups[0].get());
  EXPECT_NE(first.groups[1].get(), second.groups[1].get());
  EXPECT_EQ(first.groups[1]->rows(), 10u);
  EXPECT_EQ(second.groups[1]->rows(), 20u);
  // Publishing ten rows encodes ten rows and copies a 20-row group.
  EXPECT_LT(written, first.groups[0]->bytes() / 100);
  EXPECT_EQ(second.record_count(), kRowGroupRows + 20);
}

TEST(RowGroupEpochTest, ReaderMatchesLiveGraphForEveryQueryKind) {
  constexpr size_t kRecords = kRowGroupRows + 3000;
  ProvenanceGraph live;
  AddChainRecs(&live, 0, kRecords);
  auto cascade = live.Invalidate("rec-1210", 2'500'000, "bad calibration");
  ASSERT_TRUE(cascade.ok());
  ASSERT_EQ(cascade->size(), 40u);  // rec-1210 .. rec-1249

  GraphSnapshot snapshot(1, 0, live.Image());
  auto opened = snapshot.OpenReader();
  ASSERT_TRUE(opened.ok());
  SnapshotReader& reader = opened.value();
  const ProvenanceGraph& view = reader.graph();

  std::vector<Query> queries;
  queries.push_back(Query().WithSubject("entity-5"));
  queries.push_back(Query().WithSubject("entity-96").Descending().Limit(7));
  queries.push_back(Query().WithAgent("agent-3"));
  queries.push_back(Query().WithAgent("agent-1").Offset(100).Limit(50));
  queries.push_back(Query().Between(2'001'000, 2'001'400));
  queries.push_back(Query().Between(2'000'000, 2'000'010).Descending());
  queries.push_back(Query().WithInput("out-16400"));
  queries.push_back(Query().WithOutput("out-16384"));
  queries.push_back(Query().WithOperation("update"));
  queries.push_back(Query().WithField("seq", "17000"));
  queries.push_back(Query().OnlyValid().WithSubject("entity-46"));
  queries.push_back(Query().OnlyInvalidated());
  queries.push_back(Query().OnlyValid().CountOnly());
  queries.push_back(Query().WithSubjectPrefix("entity-1").CountOnly());
  for (const Query& q : queries) {
    QueryResult want = live.Run(q);
    QueryResult got = reader.Execute(q);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.index_used, want.index_used);
    EXPECT_EQ(Ids(got), Ids(want));
  }

  for (const char* entity : {"out-0", "out-49", "out-1225", "out-16390"}) {
    EXPECT_EQ(view.Lineage(entity), live.Lineage(entity)) << entity;
    EXPECT_EQ(view.Descendants(entity), live.Descendants(entity)) << entity;
  }
  EXPECT_EQ(view.record_count(), live.record_count());
  EXPECT_EQ(view.entity_count(), live.entity_count());
  EXPECT_EQ(view.edge_count(), live.edge_count());
  EXPECT_EQ(view.agent_count(), live.agent_count());
  EXPECT_EQ(view.subject_count(), live.subject_count());
  EXPECT_EQ(view.SubjectRecordCount("entity-7"),
            live.SubjectRecordCount("entity-7"));
  EXPECT_EQ(view.AgentRecordCount("agent-6"), live.AgentRecordCount("agent-6"));
  EXPECT_EQ(view.EntityUseCount("out-100"), live.EntityUseCount("out-100"));
  EXPECT_EQ(view.EntityGenerationCount("entity-3"),
            live.EntityGenerationCount("entity-3"));
  EXPECT_EQ(view.InRangeCount(2'000'100, 2'003'000),
            live.InRangeCount(2'000'100, 2'003'000));

  EXPECT_EQ(view.invalidated_count(), live.invalidated_count());
  EXPECT_TRUE(view.IsInvalidated("rec-1230"));
  EXPECT_FALSE(view.IsInvalidated("rec-1250"));
  auto inv = view.GetInvalidation("rec-1230");
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->record_id, "rec-1230");
  EXPECT_TRUE(inv->cascaded);
  EXPECT_EQ(inv->reason, "bad calibration");
  EXPECT_EQ(view.ReexecutionSet("rec-1300"), live.ReexecutionSet("rec-1300"));
  auto rec = view.GetRecord("rec-16500");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->Encode(), live.GetRecord("rec-16500")->Encode());

  // A later invalidation does not reach the published epoch.
  ASSERT_TRUE(live.Invalidate("rec-5", 2'600'000, "late").ok());
  EXPECT_FALSE(view.IsInvalidated("rec-5"));

  // Warmed, the reader serves parallel scans with serial results.
  reader.Warm();
  for (Query q : queries) {
    const QueryResult serial = reader.Execute(q);
    q.Parallel(4);
    ExpectSameResults(serial, reader.Execute(q));
  }
}

// Four groups whose time ranges overlap: the first 600 rows of every
// group after the first are back-dated 1200 steps into the previous
// group's range (so equal timestamps sit on both sides of each boundary),
// and every fifth row repeats its predecessor's timestamp. One row lists
// the same input twice, one row in the last group consumes an entity first
// seen in group 0, and every 1000th row derives "hub" from "root", a pair
// every group repeats.
constexpr size_t kOverlapRows = 3 * kRowGroupRows + 2000;
constexpr size_t kTwiceRow = 2 * kRowGroupRows + 5;
constexpr size_t kLateRow = 3 * kRowGroupRows + 100;
constexpr Timestamp kOverlapBase = 3'000'000;

Timestamp OverlapTs(size_t i) {
  const size_t j = i % 5 == 4 ? i - 1 : i;
  Timestamp ts = kOverlapBase + static_cast<Timestamp>(j);
  if (j >= kRowGroupRows && j % kRowGroupRows < 600) ts -= 1200;
  return ts;
}

ProvenanceRecord OverlapRec(size_t i) {
  ProvenanceRecord rec = Rec(i, 97, 13);
  rec.record_id = "ov-" + std::to_string(i);
  rec.timestamp = OverlapTs(i);
  rec.outputs = {"out-" + std::to_string(i)};
  if (i % 50 >= 1) rec.inputs.push_back("out-" + std::to_string(i - 1));
  if (i % 50 >= 2) rec.inputs.push_back("out-" + std::to_string(i - 2));
  if (i == kTwiceRow) rec.inputs = {"out-1000", "out-1000"};
  if (i == kLateRow) rec.inputs.push_back("out-7");
  if (i % 1000 == 3) {
    rec.inputs.push_back("root");
    rec.outputs.push_back("hub");
  }
  return rec;
}

std::vector<Query> OverlapQueries() {
  const Timestamp b1 = kOverlapBase + static_cast<Timestamp>(kRowGroupRows);
  const Timestamp b2 = b1 + static_cast<Timestamp>(kRowGroupRows);
  std::vector<Query> q;
  q.push_back(Query().WithSubject("entity-5"));
  q.push_back(Query().WithSubject("entity-96").Descending().Limit(7));
  q.push_back(Query().WithSubject("entity-7").Between(b1 - 1300, b2 + 50));
  q.push_back(Query().WithAgent("agent-3"));
  q.push_back(Query().WithAgent("agent-1").Offset(100).Limit(50));
  q.push_back(Query().WithAgent("agent-2").Descending().Offset(1250).Limit(30));
  q.push_back(Query().WithAgent("agent-4").Descending().Limit(32));
  q.push_back(Query().Between(b1 - 1300, b1 + 50));
  q.push_back(
      Query().Between(b2 - 1300, b2 + 700).Descending().Offset(10).Limit(100));
  q.push_back(Query().Between(kOverlapBase, kOverlapBase + 10).Descending());
  q.push_back(Query().Descending().Limit(40));
  q.push_back(Query().Offset(kRowGroupRows - 20).Limit(40));
  q.push_back(Query()
                  .Descending()
                  .Offset(kOverlapRows - kRowGroupRows - 700)
                  .Limit(25));
  q.push_back(Query().WithInput("out-7"));
  q.push_back(Query().WithInput("out-1000"));
  q.push_back(Query().WithInput("root").Descending().Limit(3));
  q.push_back(Query().WithOutput("hub"));
  q.push_back(Query().WithOutput("out-16384"));
  q.push_back(
      Query().WithOperation("update").Offset(kRowGroupRows / 3).Limit(20));
  q.push_back(Query().WithField("seq", std::to_string(kLateRow)));
  q.push_back(Query().OnlyValid().WithSubject("entity-46"));
  q.push_back(Query().OnlyInvalidated());
  q.push_back(Query().OnlyValid().CountOnly());
  q.push_back(Query().WithSubjectPrefix("entity-1").CountOnly());
  q.push_back(Query().WithSubject("entity-5").CountOnly());
  q.push_back(Query().WithAgent("agent-4").CountOnly());
  q.push_back(Query().Between(b1 - 1300, b2 + 50).CountOnly());
  return q;
}

// `got` answers like `want`: every query of OverlapQueries (results, plan
// and Explain, and the visitor overload), traversal orders and every
// cardinality accessor.
void ExpectSameGraph(const ProvenanceGraph& want, const ProvenanceGraph& got) {
  const std::vector<Query> queries = OverlapQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const Query& q = queries[i];
    const QueryResult w = want.Run(q);
    const QueryResult g = got.Run(q);
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.index_used, w.index_used);
    EXPECT_EQ(g.candidates_scanned, w.candidates_scanned);
    EXPECT_EQ(Ids(g), Ids(w));
    const QueryExplain we = want.Explain(q);
    const QueryExplain ge = got.Explain(q);
    EXPECT_EQ(ge.index_used, we.index_used);
    EXPECT_EQ(ge.estimated_candidates, we.estimated_candidates);
    EXPECT_EQ(ge.candidates_scanned, we.candidates_scanned);
    EXPECT_EQ(ge.rows_matched, we.rows_matched);
    std::vector<std::string> visited_w, visited_g;
    want.Run(q, [&](const ProvenanceRecord& r) {
      visited_w.push_back(r.record_id);
      return true;
    });
    got.Run(q, [&](const ProvenanceRecord& r) {
      visited_g.push_back(r.record_id);
      return true;
    });
    EXPECT_EQ(visited_g, visited_w);
  }
  const std::vector<std::string> entities = {
      "hub",      "root",   "out-7",
      "out-1000", "out-16390", "out-49",
      "out-" + std::to_string(kLateRow), "out-" + std::to_string(kTwiceRow)};
  for (const std::string& entity : entities) {
    EXPECT_EQ(got.Lineage(entity), want.Lineage(entity)) << entity;
    EXPECT_EQ(got.Descendants(entity), want.Descendants(entity)) << entity;
  }
  for (const char* rec : {"ov-3", "ov-7", "ov-1000", "ov-1210"}) {
    EXPECT_EQ(got.ReexecutionSet(rec), want.ReexecutionSet(rec)) << rec;
  }
  EXPECT_EQ(got.record_count(), want.record_count());
  EXPECT_EQ(got.entity_count(), want.entity_count());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(got.agent_count(), want.agent_count());
  EXPECT_EQ(got.subject_count(), want.subject_count());
  EXPECT_EQ(got.invalidated_count(), want.invalidated_count());
  for (const char* subject : {"entity-5", "entity-96", "brand-new"}) {
    EXPECT_EQ(got.SubjectRecordCount(subject),
              want.SubjectRecordCount(subject));
  }
  EXPECT_EQ(got.AgentRecordCount("agent-6"), want.AgentRecordCount("agent-6"));
  for (const char* entity : {"out-7", "out-1000", "root", "brand-new-input"}) {
    EXPECT_EQ(got.EntityUseCount(entity), want.EntityUseCount(entity));
  }
  for (const char* entity : {"hub", "out-16384", "entity-3"}) {
    EXPECT_EQ(got.EntityGenerationCount(entity),
              want.EntityGenerationCount(entity));
  }
  const Timestamp b1 = kOverlapBase + static_cast<Timestamp>(kRowGroupRows);
  EXPECT_EQ(got.InRangeCount(b1 - 1300, b1 + 50),
            want.InRangeCount(b1 - 1300, b1 + 50));
}

TEST(RowGroupEpochTest, ReaderMatchesLiveGraphAcrossOverlappingGroups) {
  ProvenanceGraph live;
  for (size_t i = 0; i < kOverlapRows; ++i) {
    ASSERT_TRUE(live.AddRecord(OverlapRec(i)).ok());
  }
  ASSERT_TRUE(live.Invalidate("ov-1210", 4'000'000, "bad calibration").ok());
  // ov-1001, ov-1002 and both mentions of the twice-listing row.
  EXPECT_EQ(live.EntityUseCount("out-1000"), 4u);
  const GraphImage image = live.Image();
  ASSERT_EQ(image.groups.size(), 4u);
  for (size_t g = 1; g < image.groups.size(); ++g) {
    const auto& before = image.groups[g - 1]->timestamp;
    const auto& after = image.groups[g]->timestamp;
    EXPECT_LT(*std::min_element(after.begin(), after.end()),
              *std::max_element(before.begin(), before.end()));
    EXPECT_NE(std::find(before.begin(), before.end(), after.front()),
              before.end());
  }

  GraphSnapshot snapshot(1, 0, image);
  auto reader = snapshot.OpenReader();
  ASSERT_TRUE(reader.ok());
  ExpectSameGraph(live, reader->graph());

  // An opened graph extended in memory indexes only its new rows and
  // still answers like a live graph fed the same rows: a subject the base
  // already holds, a derivation pair the base already holds (counted
  // once), an entity new to both, and ties with base timestamps.
  ProvenanceGraph extended;
  extended.Open(image);
  std::vector<ProvenanceRecord> more;
  for (size_t k = 0; k < 3; ++k) more.push_back(Rec(kOverlapRows + k, 97, 13));
  more[0].subject = "entity-5";
  more[0].inputs = {"out-7"};
  more[0].timestamp = OverlapTs(kRowGroupRows);
  more[1].inputs = {"root"};
  more[1].outputs = {"hub"};
  more[1].timestamp = OverlapTs(2 * kRowGroupRows + 3);
  more[2].subject = "brand-new";
  more[2].inputs = {"brand-new-input", "out-1000"};
  for (const ProvenanceRecord& rec : more) {
    ASSERT_TRUE(live.AddRecord(rec).ok());
    ASSERT_TRUE(extended.AddRecord(rec).ok());
  }
  EXPECT_EQ(extended.edge_count(), live.edge_count());
  EXPECT_EQ(extended.subject_count(), live.subject_count());
  ExpectSameGraph(live, extended);

  // The extension publishes like any graph: its last group is a copy.
  GraphSnapshot next(2, 0, extended.Image());
  auto next_reader = next.OpenReader();
  ASSERT_TRUE(next_reader.ok());
  ExpectSameGraph(live, next_reader->graph());
}

// Readers on the latest epoch and readers walking consecutive epochs,
// while the writer seals two groups: every group index is built exactly
// once between them (each sealed group once, each epoch's copy of the open
// group once), and every reader answers like a warmed reader of its epoch.
TEST(RowGroupEpochTest, ReadersBuildEachGroupIndexOnce) {
  constexpr size_t kRows = 2 * kRowGroupRows + 1500;
  constexpr size_t kPerEpoch = 2500;
  constexpr size_t kThreads = 4;
  obs::Counter* builds = obs::Registry::Default()->GetCounter(
      "graph_group_index_builds_total", "");
  const uint64_t builds_before = builds->value();

  auto mix = [](const ProvenanceGraph& graph, size_t round) {
    std::vector<std::vector<std::string>> out;
    out.push_back(Ids(graph.Run(
        Query().WithSubject("entity-" + std::to_string(round % 97)))));
    const std::string agent = "agent-" + std::to_string(round % 7);
    out.push_back(
        Ids(graph.Run(Query().WithAgent(agent).Descending().Limit(32))));
    // The window query reads every group's time bounds, so a reader
    // touches every group of its epoch.
    out.push_back({std::to_string(
        graph.Run(Query().Between(2'001'000, 2'002'000).CountOnly()).count)});
    out.push_back(graph.Lineage("out-" + std::to_string(round * 131 % 2500)));
    return out;
  };
  struct Seen {
    std::shared_ptr<const GraphSnapshot> epoch;
    size_t round;
    std::vector<std::vector<std::string>> results;
  };

  ProvenanceGraph live;
  std::mutex mu;
  // Every published epoch stays alive, so group addresses stay distinct.
  std::vector<std::shared_ptr<const GraphSnapshot>> epochs;
  auto publish = [&] {
    auto snap = std::make_shared<const GraphSnapshot>(epochs.size() + 1, 0,
                                                      live.Image());
    std::lock_guard<std::mutex> lock(mu);
    epochs.push_back(std::move(snap));
  };
  AddChainRecs(&live, 0, kPerEpoch);
  publish();

  std::atomic<bool> done{false};
  std::vector<std::vector<Seen>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t walked = 0;  // threads 2 and 3 walk every epoch in order
      for (size_t round = t;; round += kThreads) {
        const bool last = done.load(std::memory_order_acquire);
        std::shared_ptr<const GraphSnapshot> snap;
        size_t published = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          published = epochs.size();
          if (t < 2) {
            snap = epochs.back();
          } else if (walked < published) {
            snap = epochs[walked++];
          }
        }
        if (snap != nullptr) {
          auto reader = snap->OpenReader();
          ASSERT_TRUE(reader.ok());
          seen[t].push_back({snap, round, mix(reader->graph(), round)});
        }
        if (last && (t < 2 || walked == published)) break;
      }
    });
  }
  for (size_t n = kPerEpoch; n < kRows; n += kPerEpoch) {
    AddChainRecs(&live, n, std::min(kRows, n + kPerEpoch));
    publish();
  }
  done.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(epochs.back()->image().groups.size(), 3u);
  std::set<const RowGroup*> touched;
  for (const auto& per_thread : seen) {
    for (const Seen& s : per_thread) {
      for (const auto& group : s.epoch->image().groups) {
        touched.insert(group.get());
      }
    }
  }
  EXPECT_EQ(builds->value() - builds_before, touched.size());
  EXPECT_EQ(seen[2].size(), epochs.size());
  EXPECT_EQ(seen[3].size(), epochs.size());

  std::map<const GraphSnapshot*, SnapshotReader> warmed;
  for (const auto& per_thread : seen) {
    for (const Seen& s : per_thread) {
      auto it = warmed.find(s.epoch.get());
      if (it == warmed.end()) {
        auto reader = s.epoch->OpenReader();
        ASSERT_TRUE(reader.ok());
        it = warmed.emplace(s.epoch.get(), std::move(reader).value()).first;
        it->second.Warm();
      }
      EXPECT_EQ(s.results, mix(it->second.graph(), s.round))
          << "epoch " << s.epoch->epoch() << " round " << s.round;
    }
  }
}

TEST_F(ConcurrencyTest, ReadersQueryOldAndNewEpochsWhileWriterSealsAndPublishes) {
  constexpr size_t kSubjects = 150;
  constexpr size_t kBatch = 512;
  constexpr size_t kRecords = kRowGroupRows + 4 * kBatch;
  ASSERT_TRUE(store_.AnchorBatch({Rec(0, kSubjects, 8)}).ok());
  ASSERT_TRUE(store_.PublishSnapshot().ok());
  auto first = store_.AcquireSnapshot();

  // Every epoch holds records 0..n-1, so subject s sees exactly the seqs
  // s, s + 150, ... below n.
  auto check_epoch = [&](const SnapshotReader& reader, size_t n,
                         size_t subject) {
    EXPECT_EQ(reader.Execute(Query().CountOnly()).count, n);
    auto history = reader.Execute(
        Query().WithSubject("entity-" + std::to_string(subject)));
    size_t expected = subject;
    for (const auto& rec : history.records) {
      ASSERT_EQ(rec.fields.at("seq"), std::to_string(expected));
      expected += kSubjects;
    }
    EXPECT_GE(expected, n);
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      auto old_reader = first->OpenReader();
      ASSERT_TRUE(old_reader.ok());
      size_t round = r;
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = store_.AcquireSnapshot();
        auto reader = snapshot->OpenReader();
        ASSERT_TRUE(reader.ok());
        check_epoch(*reader, snapshot->record_count(), round % kSubjects);
        check_epoch(*old_reader, 1, 0);
        ++round;
      }
    });
  }

  for (size_t done = 1; done < kRecords; done += kBatch) {
    std::vector<ProvenanceRecord> batch;
    for (size_t i = done; i < std::min(kRecords, done + kBatch); ++i) {
      batch.push_back(Rec(i, kSubjects, 8));
    }
    ASSERT_TRUE(store_.AnchorBatch(batch).ok());
    ASSERT_TRUE(store_.PublishSnapshot().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  auto last = store_.AcquireSnapshot();
  EXPECT_EQ(last->record_count(), kRecords);
  EXPECT_EQ(last->image().groups.size(), 2u);
  EXPECT_EQ(first->record_count(), 1u);
}

// -- Parallel query execution ------------------------------------------------

class ParallelQueryTest : public ::testing::Test {
 protected:
  static constexpr size_t kRecords = 9000;  // above the fan-out threshold
  ParallelQueryTest() {
    for (size_t i = 0; i < kRecords; ++i) {
      ProvenanceRecord rec = Rec(i, 300, 12);
      if (i % 7 == 0) rec.inputs.push_back("entity-" + std::to_string(i % 300));
      EXPECT_TRUE(graph_.AddRecord(std::move(rec)).ok());
    }
  }
  ProvenanceGraph graph_;
};

TEST_F(ParallelQueryTest, ParallelScanMatchesSerial) {
  // Residual predicates (operation, field) force a real per-candidate
  // scan over the full-extent time index — the fan-out case.
  std::vector<Query> queries;
  queries.push_back(Query().WithOperation("update"));
  queries.push_back(Query().WithOperation("read").Descending());
  // Shallow page: falls back to the serial early-exit; deep page: fans
  // out. Both must match serial results exactly.
  queries.push_back(Query().WithOperation("update").Offset(37).Limit(100));
  queries.push_back(Query().WithOperation("read").Offset(100).Limit(8000));
  queries.push_back(Query().WithField("seq", "123"));
  queries.push_back(Query().WithOperation("update").CountOnly());
  queries.push_back(Query().WithOperation("read").Between(1'002'000, 1'007'000));
  for (const auto& base : queries) {
    Query parallel = base;
    parallel.Parallel(4);
    ExpectSameResults(graph_.Run(base), graph_.Run(parallel));
  }
}

TEST_F(ParallelQueryTest, ParallelVisitorMatchesSerialAndStaysInOrder) {
  Query base = Query().WithOperation("update");
  std::vector<std::string> serial_ids, parallel_ids;
  graph_.Run(base, [&](const ProvenanceRecord& rec) {
    serial_ids.push_back(rec.record_id);
    return true;
  });
  Query parallel = base;
  parallel.Parallel(4);
  graph_.Run(parallel, [&](const ProvenanceRecord& rec) {
    parallel_ids.push_back(rec.record_id);
    return true;
  });
  EXPECT_EQ(serial_ids, parallel_ids);

  // Early stop still works through the parallel path.
  size_t visited = graph_.Run(parallel, [&](const ProvenanceRecord&) {
    return false;
  });
  EXPECT_EQ(visited, 1u);
}

TEST_F(ParallelQueryTest, SmallScansFallBackToSerial) {
  // A selective subject scan is far below the fan-out threshold; the knob
  // must be a silent no-op, not an error.
  Query query = Query().WithSubject("entity-5").Parallel(8);
  auto result = graph_.Run(query);
  EXPECT_EQ(result.count, kRecords / 300);
}

TEST_F(ParallelQueryTest, ConcurrentParallelQueriesOnWarmedGraph) {
  graph_.Warm();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 5; ++iter) {
        auto result = graph_.Run(Query().WithOperation("update").Parallel(4));
        EXPECT_EQ(result.count, (kRecords + 2) / 3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST_F(ParallelQueryTest, WarmedSnapshotReaderSupportsParallelQueries) {
  GraphSnapshot snapshot(1, 0, graph_.Image());
  ASSERT_EQ(snapshot.record_count(), kRecords);
  auto reader = snapshot.OpenReader();
  ASSERT_TRUE(reader.ok());

  // Lazily opened reader: parallel silently degrades to serial (records
  // would race on first-touch decoding) but results are still correct.
  auto lazy = reader->Execute(Query().WithOperation("update").Parallel(4));
  EXPECT_EQ(lazy.count, (kRecords + 2) / 3);

  reader->Warm();
  auto warmed = reader->Execute(Query().WithOperation("update").Parallel(4));
  ExpectSameResults(lazy, warmed);
}

// -- Prepared-block fast path ------------------------------------------------

TEST(AppendPreparedTest, ProducesByteIdenticalBlocks) {
  ledger::Blockchain via_append, via_prepared;
  std::vector<ledger::Transaction> txs;
  for (uint64_t i = 0; i < 5; ++i) {
    txs.push_back(ledger::Transaction::MakeSystem(
        "t", "ch", Bytes{uint8_t(i), 0x42}, 1000 + i, i));
  }
  auto appended = via_append.Append(txs, 2000, "proposer", 7);
  ASSERT_TRUE(appended.ok());

  std::vector<ledger::PreparedTx> prepared;
  for (const auto& tx : txs) {
    prepared.push_back(ledger::PreparedTx{
        tx, tx.Id(), crypto::MerkleTree::LeafHash(tx.Encode())});
  }
  auto fast = via_prepared.AppendPrepared(&prepared, 2000, "proposer", 7);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(prepared.empty());  // consumed on success

  // Same block hash == same header == same Merkle root: the cached-digest
  // path and the recompute path can never diverge silently.
  EXPECT_EQ(appended.value(), fast.value());
  EXPECT_EQ(via_append.head_hash(), via_prepared.head_hash());
  ASSERT_TRUE(via_prepared.VerifyIntegrity().ok());

  // Proofs built later (from stored transactions) verify against the
  // prepared root, and the cached-id transaction index resolves lookups.
  auto proof = via_prepared.ProveTransaction(txs[3].Id());
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(via_prepared.VerifyTxProof(txs[3].Encode(), proof.value()));

  // The shard-worker-precomputed-root variant lands the same block too.
  ledger::Blockchain via_root;
  std::vector<ledger::PreparedTx> prepared_again;
  std::vector<crypto::Digest> leaves;
  for (const auto& tx : txs) {
    crypto::Digest leaf = crypto::MerkleTree::LeafHash(tx.Encode());
    leaves.push_back(leaf);
    prepared_again.push_back(ledger::PreparedTx{tx, tx.Id(), leaf});
  }
  crypto::Digest root = crypto::MerkleTree::BuildFromDigests(leaves).root();
  auto with_root = via_root.AppendPrepared(&prepared_again, 2000,
                                           "proposer", 7, &root);
  ASSERT_TRUE(with_root.ok());
  EXPECT_EQ(appended.value(), with_root.value());
  ASSERT_TRUE(via_root.VerifyIntegrity().ok());
}

TEST(AppendPreparedTest, RejectedBlockHandsTransactionsBack) {
  // A block-sink (durability) failure must not consume the prepared
  // transactions: the caller retries with the same batch.
  ledger::Blockchain chain;
  std::vector<ledger::PreparedTx> prepared;
  for (uint64_t i = 0; i < 3; ++i) {
    auto tx = ledger::Transaction::MakeSystem("t", "ch", Bytes{uint8_t(i)},
                                              1000 + i, i);
    prepared.push_back(ledger::PreparedTx{
        tx, tx.Id(), crypto::MerkleTree::LeafHash(tx.Encode())});
  }
  chain.SetBlockSink(
      [](const ledger::Block&) { return Status::Internal("disk full"); });
  auto refused = chain.AppendPrepared(&prepared, 2000, "proposer");
  ASSERT_FALSE(refused.ok());
  ASSERT_EQ(prepared.size(), 3u);  // handed back intact
  EXPECT_EQ(chain.height(), 0u);

  chain.SetBlockSink(nullptr);  // "disk" recovered
  auto retried = chain.AppendPrepared(&prepared, 2000, "proposer");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(chain.height(), 1u);
  ASSERT_TRUE(chain.VerifyIntegrity().ok());
  // The handed-back transactions were byte-identical: proofs resolve.
  auto tx0 = ledger::Transaction::MakeSystem("t", "ch", Bytes{0}, 1000, 0);
  auto proof = chain.ProveTransaction(tx0.Id());
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(chain.VerifyTxProof(tx0.Encode(), proof.value()));
}

// -- Chunked chain views -----------------------------------------------------

TEST(ChainViewConcurrencyTest, ReaderWalksViewsWhileWriterSealsChunks) {
  // The owner thread appends through AppendPrepared across several chunk
  // boundaries while a reader acquires views and walks every height. Each
  // view must be whole (every block at its own height, linked to the hash
  // installed below it) and heights never go backwards.
  ledger::Blockchain chain;
  const uint64_t target = 3 * ledger::ChainView::kChunkBlocks + 7;
  std::atomic<bool> done{false};
  size_t broken = 0;
  size_t walks = 0;
  std::thread reader([&] {
    uint64_t last_height = 0;
    while (!done.load(std::memory_order_acquire) || walks == 0) {
      auto view = chain.AcquireChainView();
      if (view->height() < last_height) ++broken;
      last_height = view->height();
      for (uint64_t h = 1; h <= view->height(); ++h) {
        const ledger::Block& b = view->block(h);
        if (b.header.height != h || b.header.prev_hash != view->hash(h - 1)) {
          ++broken;
        }
      }
      ++walks;
    }
  });
  bool appended = true;
  for (uint64_t i = 0; i < target && appended; ++i) {
    auto tx = ledger::Transaction::MakeSystem(
        "t", "ch", Bytes{uint8_t(i), uint8_t(i >> 8)}, 1000, i);
    std::vector<ledger::PreparedTx> prepared{ledger::PreparedTx{
        tx, tx.Id(), crypto::MerkleTree::LeafHash(tx.Encode())}};
    appended = chain.AppendPrepared(&prepared, 2000 + i, "proposer").ok();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(appended);
  EXPECT_EQ(broken, 0u);
  EXPECT_GT(walks, 0u);

  auto view = chain.AcquireChainView();
  ASSERT_EQ(view->height(), target);
  for (uint64_t h = 0; h <= target; ++h) {
    EXPECT_EQ(view->hash(h), chain.BlockHashAt(h).value());
    EXPECT_EQ(view->hash(h), view->block(h).header.Hash());
  }
}

TEST_F(ConcurrencyTest, RefusedBatchWithDroppedDupInvalidatesStaleRoot) {
  // Regression: a prepared batch carrying (a) a duplicate of an
  // already-anchored record and (b) a precomputed Merkle root, refused by
  // a transient sink failure, must not retry with the stale root. The
  // duplicate was dropped from the handed-back batch, so the old root
  // (built over the original leaf set) no longer matches the surviving
  // leaves — anchoring it would silently corrupt the chain.
  ASSERT_TRUE(store_.Anchor(Rec(0, 2, 2)).ok());

  PreparedBatch batch;
  std::vector<crypto::Digest> leaves;
  for (size_t i = 0; i < 4; ++i) {  // rec-0 duplicates the anchored record
    auto prepared = store_.PrepareRecord(Rec(i, 2, 2),
                                         store_.nonce() + 1 + i,
                                         /*signer=*/nullptr);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    leaves.push_back(prepared.value().leaf);
    batch.records.push_back(std::move(prepared).value());
  }
  batch.merkle_root = crypto::MerkleTree::BuildFromDigests(leaves).root();

  std::atomic<int> sink_calls{0};
  chain_.SetBlockSink([&](const ledger::Block&) -> Status {
    if (sink_calls.fetch_add(1) == 0) return Status::Internal("blip");
    return Status::OK();
  });

  size_t committed = 0;
  Status first = store_.AnchorPrepared(&batch, &committed);
  ASSERT_FALSE(first.ok());  // chain refused; batch handed back minus dup
  ASSERT_EQ(batch.records.size(), 3u);
  EXPECT_FALSE(batch.merkle_root.has_value());  // stale root invalidated

  Status retried = store_.AnchorPrepared(&batch, &committed);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(committed, 3u);
  // The retried block's header root matches its 3 transactions, so the
  // full-chain integrity scan and per-record proofs both hold.
  ASSERT_TRUE(chain_.VerifyIntegrity().ok());
  auto audited = store_.AuditAll();
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  EXPECT_EQ(audited.value(), 4u);
}

TEST_F(ConcurrencyTest, RestoreRepublishesEpochFromRestoredState) {
  // Regression: a restore (RebuildFromChain / LoadSnapshot) resets the
  // store's in-memory state but used to leave the previously published
  // epoch in place — readers kept acquiring a snapshot describing
  // pre-restore state. Any restore must republish from what the store now
  // holds, with the epoch counter still climbing (reader monotonicity).
  ASSERT_TRUE(store_.Anchor(Rec(0, 2, 2)).ok());
  ASSERT_TRUE(store_.PublishSnapshot().ok());
  const uint64_t epoch_before = store_.snapshot_epoch();
  ASSERT_TRUE(store_.Anchor(Rec(1, 2, 2)).ok());

  ASSERT_TRUE(store_.RebuildFromChain().ok());
  EXPECT_GT(store_.snapshot_epoch(), epoch_before);
  auto after = store_.AcquireSnapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->record_count(), 2u);  // the restored state, not epoch 1
  EXPECT_EQ(after->chain_height(), chain_.height());
}

TEST_F(ConcurrencyTest, PipelineRetriesChainRefusalOnce) {
  // First commit attempt fails at the durability sink; the committer's
  // single retry lands the batch — no records lost.
  std::atomic<int> sink_calls{0};
  chain_.SetBlockSink([&](const ledger::Block&) -> Status {
    if (sink_calls.fetch_add(1) == 0) return Status::Internal("blip");
    return Status::OK();
  });
  IngestPipelineOptions options;
  options.shards = 2;
  options.batch_size = 4;
  IngestPipeline pipeline(&store_, options);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pipeline.Submit(Rec(i, 2, 2)).ok());
  }
  ASSERT_TRUE(pipeline.Close().ok());
  EXPECT_EQ(pipeline.committed(), 4u);
  EXPECT_EQ(pipeline.failed(), 0u);
  EXPECT_EQ(store_.anchored_count(), 4u);
}

// -- ThreadPool building block ----------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  common::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> sum{0};
  common::WaitGroup wg;
  wg.Add(100);
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&, i] {
      sum.fetch_add(i, std::memory_order_relaxed);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

}  // namespace
}  // namespace prov
}  // namespace provledger
