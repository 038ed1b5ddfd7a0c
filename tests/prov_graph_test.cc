// Provenance graph tests: PROV structure, lineage/descendant queries, and
// the SciBlock invalidation cascade.

#include <gtest/gtest.h>

#include "prov/graph.h"

namespace provledger {
namespace prov {
namespace {

ProvenanceRecord Rec(const std::string& id, const std::string& agent,
                     Timestamp ts, std::vector<std::string> inputs,
                     std::vector<std::string> outputs,
                     const std::string& subject = "") {
  ProvenanceRecord rec;
  rec.record_id = id;
  rec.operation = "execute";
  rec.subject = subject.empty() ? (outputs.empty() ? id : outputs[0]) : subject;
  rec.agent = agent;
  rec.timestamp = ts;
  rec.inputs = std::move(inputs);
  rec.outputs = std::move(outputs);
  return rec;
}

// Builds the pipeline: raw -> [t1] -> mid -> [t2] -> out1
//                                      \--> [t3] -> out2 -> [t4] -> final
class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(g_.AddRecord(Rec("t1", "alice", 100, {"raw"}, {"mid"})).ok());
    ASSERT_TRUE(g_.AddRecord(Rec("t2", "bob", 200, {"mid"}, {"out1"})).ok());
    ASSERT_TRUE(g_.AddRecord(Rec("t3", "bob", 300, {"mid"}, {"out2"})).ok());
    ASSERT_TRUE(
        g_.AddRecord(Rec("t4", "carol", 400, {"out2"}, {"final"})).ok());
  }
  ProvenanceGraph g_;
};

TEST_F(GraphTest, CountsAndLookup) {
  EXPECT_EQ(g_.record_count(), 4u);
  EXPECT_TRUE(g_.HasRecord("t1"));
  EXPECT_FALSE(g_.HasRecord("tX"));
  auto rec = g_.GetRecord("t2");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->agent, "bob");
  EXPECT_TRUE(g_.GetRecord("nope").status().IsNotFound());
}

TEST_F(GraphTest, DuplicateRecordRejected) {
  EXPECT_TRUE(g_.AddRecord(Rec("t1", "x", 1, {}, {"y"}))
                  .IsAlreadyExists());
}

TEST_F(GraphTest, LineageWalksAncestors) {
  auto lineage = g_.Lineage("final");
  // final <- out2 <- mid <- raw
  EXPECT_EQ(lineage.size(), 3u);
  EXPECT_NE(std::find(lineage.begin(), lineage.end(), "out2"), lineage.end());
  EXPECT_NE(std::find(lineage.begin(), lineage.end(), "mid"), lineage.end());
  EXPECT_NE(std::find(lineage.begin(), lineage.end(), "raw"), lineage.end());
  EXPECT_TRUE(g_.Lineage("raw").empty());
}

TEST_F(GraphTest, DescendantsWalkForward) {
  auto desc = g_.Descendants("raw");
  // raw -> mid -> {out1, out2} -> final
  EXPECT_EQ(desc.size(), 4u);
  EXPECT_TRUE(g_.Descendants("final").empty());
}

TEST_F(GraphTest, ByAgentOrderedByTime) {
  auto recs = g_.ByAgent("bob");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].record_id, "t2");
  EXPECT_EQ(recs[1].record_id, "t3");
  EXPECT_TRUE(g_.ByAgent("nobody").empty());
}

TEST_F(GraphTest, InRangeFiltersByTimestamp) {
  auto recs = g_.InRange(150, 350);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].record_id, "t2");
  EXPECT_EQ(recs[1].record_id, "t3");
}

TEST_F(GraphTest, SubjectHistory) {
  ASSERT_TRUE(
      g_.AddRecord(Rec("t5", "alice", 500, {}, {}, "final")).ok());
  auto recs = g_.SubjectHistory("final");
  ASSERT_EQ(recs.size(), 2u);  // t4 generated it; t5 touched it
  EXPECT_EQ(recs[0].record_id, "t4");
  EXPECT_EQ(recs[1].record_id, "t5");
}

TEST_F(GraphTest, InvalidationCascadesDownstreamOnly) {
  // Invalidate t3: t4 consumed out2, so it cascades; t2/out1 unaffected.
  auto result = g_.Invalidate("t3", 999, "bad parameter");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_TRUE(g_.IsInvalidated("t3"));
  EXPECT_TRUE(g_.IsInvalidated("t4"));
  EXPECT_FALSE(g_.IsInvalidated("t1"));
  EXPECT_FALSE(g_.IsInvalidated("t2"));

  auto root_inv = g_.GetInvalidation("t3");
  ASSERT_TRUE(root_inv.ok());
  EXPECT_FALSE(root_inv->cascaded);
  EXPECT_EQ(root_inv->reason, "bad parameter");
  auto cascade_inv = g_.GetInvalidation("t4");
  ASSERT_TRUE(cascade_inv.ok());
  EXPECT_TRUE(cascade_inv->cascaded);
}

TEST_F(GraphTest, RootInvalidationCascadesEverything) {
  auto result = g_.Invalidate("t1", 999, "source corrupted");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);
  EXPECT_EQ(g_.invalidated_count(), 4u);
}

TEST_F(GraphTest, DoubleInvalidationRejected) {
  ASSERT_TRUE(g_.Invalidate("t4", 999, "x").ok());
  EXPECT_TRUE(g_.Invalidate("t4", 1000, "y").status().IsAlreadyExists());
  EXPECT_TRUE(g_.Invalidate("ghost", 1, "z").status().IsNotFound());
}

TEST_F(GraphTest, ReexecutionSetMatchesDownstreamClosure) {
  auto reexec = g_.ReexecutionSet("t1");
  EXPECT_EQ(reexec.size(), 3u);  // t2, t3, t4
  EXPECT_TRUE(g_.ReexecutionSet("t4").empty());
  EXPECT_TRUE(g_.ReexecutionSet("ghost").empty());
}

TEST_F(GraphTest, RecordWithoutOutputsProducesSubjectVersion) {
  // A record with no declared outputs acts on its subject entity.
  ProvenanceGraph g;
  ASSERT_TRUE(g.AddRecord(Rec("w1", "a", 1, {}, {}, "doc")).ok());
  ASSERT_TRUE(g.AddRecord(Rec("w2", "b", 2, {"doc"}, {"summary"})).ok());
  auto lineage = g.Lineage("summary");
  ASSERT_EQ(lineage.size(), 1u);
  EXPECT_EQ(lineage[0], "doc");
  // Invalidating w1 cascades into w2.
  auto inv = g.Invalidate("w1", 10, "typo");
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->size(), 2u);
}

TEST_F(GraphTest, InRangeBoundariesAreInclusive) {
  // Exact-endpoint hits on both sides.
  auto recs = g_.InRange(100, 400);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs.front().record_id, "t1");
  EXPECT_EQ(recs.back().record_id, "t4");
  // Degenerate single-timestamp range.
  recs = g_.InRange(200, 200);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].record_id, "t2");
}

TEST_F(GraphTest, InRangeEmptyCases) {
  EXPECT_TRUE(g_.InRange(401, 1000).empty());  // past all records
  EXPECT_TRUE(g_.InRange(0, 99).empty());      // before all records
  EXPECT_TRUE(g_.InRange(201, 299).empty());   // gap between records
  EXPECT_TRUE(g_.InRange(300, 200).empty());   // inverted range
  EXPECT_TRUE(ProvenanceGraph().InRange(0, 1000).empty());
}

TEST(GraphOrderingTest, InRangeOrdersOutOfOrderTimestamps) {
  // Ingest with shuffled timestamps; InRange must still come back sorted.
  ProvenanceGraph g;
  ASSERT_TRUE(g.AddRecord(Rec("r-late", "a", 300, {}, {"x1"})).ok());
  ASSERT_TRUE(g.AddRecord(Rec("r-early", "a", 100, {}, {"x2"})).ok());
  ASSERT_TRUE(g.AddRecord(Rec("r-mid", "a", 200, {}, {"x3"})).ok());
  auto recs = g.InRange(0, 1000);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].record_id, "r-early");
  EXPECT_EQ(recs[1].record_id, "r-mid");
  EXPECT_EQ(recs[2].record_id, "r-late");
}

TEST(GraphOrderingTest, SubjectHistoryOrdersOutOfOrderTimestamps) {
  ProvenanceGraph g;
  ASSERT_TRUE(g.AddRecord(Rec("h3", "a", 300, {}, {}, "doc")).ok());
  ASSERT_TRUE(g.AddRecord(Rec("h1", "a", 100, {}, {}, "doc")).ok());
  ASSERT_TRUE(g.AddRecord(Rec("h2", "b", 200, {}, {}, "doc")).ok());
  // A tie on the earliest timestamp keeps ingest order (stable).
  ASSERT_TRUE(g.AddRecord(Rec("h1b", "b", 100, {}, {}, "doc")).ok());
  auto recs = g.SubjectHistory("doc");
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].record_id, "h1");
  EXPECT_EQ(recs[1].record_id, "h1b");
  EXPECT_EQ(recs[2].record_id, "h2");
  EXPECT_EQ(recs[3].record_id, "h3");
  // Agent postings are time-sorted the same way.
  auto by_b = g.ByAgent("b");
  ASSERT_EQ(by_b.size(), 2u);
  EXPECT_EQ(by_b[0].record_id, "h1b");
  EXPECT_EQ(by_b[1].record_id, "h2");
}

TEST(GraphScaleTest, DeepLineageRegression) {
  // 1k-record derivation chain: lineage/reexecution must cover the whole
  // depth without recursion or quadratic blowup.
  ProvenanceGraph g;
  const int kDepth = 1000;
  for (int i = 0; i < kDepth; ++i) {
    std::vector<std::string> inputs;
    if (i > 0) inputs.push_back("e" + std::to_string(i - 1));
    ASSERT_TRUE(g.AddRecord(Rec("r" + std::to_string(i), "agent", 1000 + i,
                                std::move(inputs),
                                {"e" + std::to_string(i)}))
                    .ok());
  }
  EXPECT_EQ(g.Lineage("e999").size(), 999u);
  EXPECT_EQ(g.Descendants("e0").size(), 999u);
  EXPECT_EQ(g.ReexecutionSet("r0").size(), 999u);
  auto window = g.InRange(1500, 1599);
  EXPECT_EQ(window.size(), 100u);
  auto cascade = g.Invalidate("r500", 9999, "probe");
  ASSERT_TRUE(cascade.ok());
  EXPECT_EQ(cascade->size(), 500u);  // r500..r999
}

TEST(GraphScaleTest, DescendingTimestampBackfill) {
  // Worst case for the time indexes: 1k records ingested newest-first.
  // Ingest must stay append-cheap (sort deferred to query time) and the
  // queries must still come back fully time-ordered.
  ProvenanceGraph g;
  const int kN = 1000;
  for (int i = kN - 1; i >= 0; --i) {
    ASSERT_TRUE(g.AddRecord(Rec("r" + std::to_string(i),
                                "a" + std::to_string(i % 3), 1000 + i, {},
                                {}, "doc"))
                    .ok());
  }
  auto recs = g.InRange(1000, 1000 + kN);
  ASSERT_EQ(recs.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(recs[i].timestamp, 1000 + i);
  }
  auto history = g.SubjectHistory("doc");
  ASSERT_EQ(history.size(), static_cast<size_t>(kN));
  EXPECT_EQ(history.front().record_id, "r0");
  EXPECT_EQ(history.back().record_id, "r999");
  auto by_a0 = g.ByAgent("a0");
  ASSERT_FALSE(by_a0.empty());
  for (size_t i = 1; i < by_a0.size(); ++i) {
    EXPECT_LE(by_a0[i - 1].timestamp, by_a0[i].timestamp);
  }
}

TEST(GraphOrderingTest, InRangeTiesKeepIngestOrderAfterLazyResort) {
  // Regression: out-of-order ingest dirties the global time index; the
  // lazy re-sort must still put duplicate timestamps back in ingest order
  // (the documented tie rule), not in an arbitrary or reversed order.
  ProvenanceGraph g;
  ASSERT_TRUE(g.AddRecord(Rec("d1", "a", 500, {}, {"x1"})).ok());  // tie @500
  ASSERT_TRUE(g.AddRecord(Rec("d2", "a", 100, {}, {"x2"})).ok());  // dirties
  ASSERT_TRUE(g.AddRecord(Rec("d3", "a", 500, {}, {"x3"})).ok());  // tie @500
  ASSERT_TRUE(g.AddRecord(Rec("d4", "a", 300, {}, {"x4"})).ok());  // dirties
  ASSERT_TRUE(g.AddRecord(Rec("d5", "a", 500, {}, {"x5"})).ok());  // tie @500
  auto recs = g.InRange(0, 1000);
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs[0].record_id, "d2");
  EXPECT_EQ(recs[1].record_id, "d4");
  // The three ts=500 ties must come back d1, d3, d5 — their ingest order.
  EXPECT_EQ(recs[2].record_id, "d1");
  EXPECT_EQ(recs[3].record_id, "d3");
  EXPECT_EQ(recs[4].record_id, "d5");
  // Boundary query cutting into the tie group keeps the same tie order.
  auto at_tie = g.InRange(500, 500);
  ASSERT_EQ(at_tie.size(), 3u);
  EXPECT_EQ(at_tie[0].record_id, "d1");
  EXPECT_EQ(at_tie[2].record_id, "d5");
}

TEST_F(GraphTest, CardinalityAccessors) {
  // Corpus: t1 alice, t2/t3 bob, t4 carol; subjects mid/out1/out2/final.
  EXPECT_EQ(g_.agent_count(), 3u);
  EXPECT_EQ(g_.subject_count(), 4u);
  EXPECT_EQ(g_.SubjectRecordCount("mid"), 1u);
  EXPECT_EQ(g_.SubjectRecordCount("raw"), 0u);      // input only, never subject
  EXPECT_EQ(g_.SubjectRecordCount("ghost"), 0u);    // unknown entity
  EXPECT_EQ(g_.AgentRecordCount("bob"), 2u);
  EXPECT_EQ(g_.AgentRecordCount("nobody"), 0u);
  EXPECT_EQ(g_.EntityUseCount("mid"), 2u);          // t2 and t3 consumed it
  EXPECT_EQ(g_.EntityUseCount("final"), 0u);
  EXPECT_EQ(g_.EntityGenerationCount("mid"), 1u);   // t1 produced it
  EXPECT_EQ(g_.EntityGenerationCount("raw"), 0u);
  EXPECT_EQ(g_.InRangeCount(150, 350), 2u);
  EXPECT_EQ(g_.InRangeCount(0, 1000), 4u);
  EXPECT_EQ(g_.InRangeCount(500, 100), 0u);         // inverted
  // A repeated subject does not bump the distinct-subject count.
  ASSERT_TRUE(g_.AddRecord(Rec("t5", "dave", 500, {}, {}, "mid")).ok());
  EXPECT_EQ(g_.subject_count(), 4u);
  EXPECT_EQ(g_.SubjectRecordCount("mid"), 2u);
  EXPECT_EQ(g_.agent_count(), 4u);
}

TEST(GraphDiamondTest, DiamondLineageNoDuplicates) {
  // a -> {b, c} -> d (diamond): d's lineage must contain each node once.
  ProvenanceGraph g;
  ASSERT_TRUE(g.AddRecord(Rec("t1", "x", 1, {"a"}, {"b"})).ok());
  ASSERT_TRUE(g.AddRecord(Rec("t2", "x", 2, {"a"}, {"c"})).ok());
  ASSERT_TRUE(g.AddRecord(Rec("t3", "x", 3, {"b", "c"}, {"d"})).ok());
  auto lineage = g.Lineage("d");
  EXPECT_EQ(lineage.size(), 3u);  // b, c, a — each exactly once
}

// A hand-made (checksum-valid) image whose last group repeats a name the
// first group already interned: the name resolves to its lowest id, as the
// first-seen order would have it, and the repeat keeps its own id.
TEST(RowGroupIndexTest, NameRepeatedAcrossGroupsResolvesToLowestId) {
  ProvenanceGraph live;
  for (size_t i = 0; i < 2 * kRowGroupRows + 8; ++i) {
    ProvenanceRecord rec;
    rec.record_id = "r" + std::to_string(i);
    rec.operation = "op";
    rec.subject = "s" + std::to_string(i % 40);
    rec.agent = "a" + std::to_string(i % 3);
    rec.timestamp = static_cast<Timestamp>(5'000'000 + i);
    ASSERT_TRUE(live.AddRecord(rec).ok());
  }
  GraphImage image = live.Image();
  ASSERT_EQ(image.groups.size(), 3u);
  auto last = std::make_shared<RowGroup>(*image.groups.back());
  const uint32_t repeat = last->entity_end();
  last->entity_names.AppendName("s0");
  last->subject[0] = repeat;
  image.groups.back() = last;
  Encoder enc;
  image.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  GraphImage loaded;
  ASSERT_TRUE(GraphImage::DecodeFrom(&dec, &loaded).ok());

  InternTable names;
  names.Open(loaded.groups, &RowGroup::entity_names,
             &GroupIndex::entity_names);
  EXPECT_EQ(names.size(), repeat + 1u);
  EXPECT_EQ(names.Find("s0"), 0u);
  EXPECT_EQ(names.Name(repeat), "s0");
  EXPECT_EQ(names.Name(0), "s0");
  EXPECT_EQ(names.Find("s39"), 39u);
  EXPECT_EQ(names.Find("s40"), InternTable::kNone);

  // The graph reads names the same way: "s0" is entity 0, and the row
  // moved onto the repeat (from "s8") is reachable by neither name.
  ProvenanceGraph opened;
  opened.Open(loaded);
  EXPECT_EQ(opened.entity_count(), repeat + 1u);
  EXPECT_EQ(opened.SubjectRecordCount("s0"), live.SubjectRecordCount("s0"));
  EXPECT_EQ(opened.SubjectRecordCount("s8"),
            live.SubjectRecordCount("s8") - 1);
  ProvenanceRecord more;
  more.record_id = "more";
  more.operation = "op";
  more.subject = "s0";
  more.agent = "a0";
  more.timestamp = 6'000'000;
  ASSERT_TRUE(opened.AddRecord(more).ok());
  EXPECT_EQ(opened.entity_count(), repeat + 1u);
  EXPECT_EQ(opened.SubjectRecordCount("s0"),
            live.SubjectRecordCount("s0") + 1);
  EXPECT_EQ(opened.subject_count(), live.subject_count());
}

}  // namespace
}  // namespace prov
}  // namespace provledger
