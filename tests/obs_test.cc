// Observability tests (ctest label: obs): counter/gauge/histogram cell
// semantics, label-family identity, the byte-exact Prometheus text
// exposition, JSON/text format parity, type-conflict quarantine, query
// EXPLAIN plan reporting (index choice + estimated-vs-actual rows for the
// subject, agent, and time-range plans), the store's MetricsSnapshot
// surface, and a multi-thread increment run the TSan gate replays.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "ledger/chain.h"
#include "obs/metrics.h"
#include "prov/query.h"
#include "prov/store.h"

namespace provledger {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;

TEST(CounterTest, IncrementAndResolveSameCell) {
  Registry registry;
  Counter* c = registry.GetCounter("ops_total", "ops");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same (name, labels) resolves to the same cell; help is only recorded
  // on first registration.
  EXPECT_EQ(registry.GetCounter("ops_total", "ignored"), c);
}

TEST(GaugeTest, SetAndAddSigned) {
  Registry registry;
  Gauge* g = registry.GetGauge("depth", "queue depth");
  g->Set(7);
  g->Add(-9);
  EXPECT_EQ(g->value(), -2);
  g->Set(0);
  EXPECT_EQ(g->value(), 0);
}

TEST(HistogramTest, BucketPlacementIsInclusiveOnTheBound) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram("wait_seconds", "wait", {0.001, 0.01, 0.1});
  h->Observe(0.0005);
  h->Observe(0.001);  // le=0.001 is inclusive
  h->Observe(0.05);
  h->Observe(5.0);  // overflow (+Inf) cell
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->bucket_value(0), 2u);
  EXPECT_EQ(h->bucket_value(1), 0u);
  EXPECT_EQ(h->bucket_value(2), 1u);
  EXPECT_EQ(h->bucket_value(3), 1u);
  EXPECT_NEAR(h->sum(), 5.0515, 1e-6);
}

TEST(HistogramTest, NegativeAndNanObservationsClampToZero) {
  Registry registry;
  Histogram* h = registry.GetHistogram("neg_seconds", "clamps", {1.0});
  h->Observe(-3.0);
  h->Observe(std::nan(""));
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->bucket_value(0), 2u);  // both land in the first bucket as 0
  EXPECT_EQ(h->sum(), 0.0);
}

TEST(HistogramTest, FamilyBoundsAreFixedByFirstRegistration) {
  Registry registry;
  Histogram* first =
      registry.GetHistogram("fixed_seconds", "bounds", {0.5, 1.0});
  // Same name + labels is the same cell no matter what bounds are passed.
  EXPECT_EQ(registry.GetHistogram("fixed_seconds", "bounds", {9.0}), first);
  // A new series in the family inherits the family's bounds.
  Histogram* labeled = registry.GetHistogram("fixed_seconds", "bounds", {9.0},
                                             {{"shard", "1"}});
  ASSERT_NE(labeled, first);
  EXPECT_EQ(labeled->bounds(), first->bounds());
}

TEST(HistogramTest, StandardBucketLaddersAreAscending) {
  for (const auto& bounds : {obs::LatencyBuckets(), obs::SizeBuckets()}) {
    ASSERT_EQ(bounds.size(), 13u);
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
  EXPECT_DOUBLE_EQ(obs::LatencyBuckets().front(), 1e-6);
  EXPECT_DOUBLE_EQ(obs::SizeBuckets().front(), 64.0);
}

TEST(ScopedTimerTest, ObservesElapsedOnceAndToleratesNull) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram("scope_seconds", "t", obs::LatencyBuckets());
  {
    obs::ScopedTimer timer(h);
  }
  EXPECT_EQ(h->count(), 1u);
  {
    obs::ScopedTimer noop(nullptr);  // must not crash
  }
  EXPECT_EQ(h->count(), 1u);
}

TEST(LabelFamilyTest, DistinctLabelSetsAreDistinctCells) {
  Registry registry;
  Counter* ok =
      registry.GetCounter("results_total", "r", {{"result", "ok"}});
  Counter* err =
      registry.GetCounter("results_total", "r", {{"result", "err"}});
  ASSERT_NE(ok, err);
  ok->Increment(3);
  err->Increment();
  EXPECT_EQ(ok->value(), 3u);
  EXPECT_EQ(err->value(), 1u);
  // Re-resolving an existing label set lands on the same cell.
  EXPECT_EQ(registry.GetCounter("results_total", "r", {{"result", "ok"}}), ok);
}

TEST(TypeConflictTest, QuarantineNeverClobbersAndNeverReturnsNull) {
  Registry registry;
  Counter* c = registry.GetCounter("ops_total", "ops");
  c->Increment(42);
  Gauge* conflicted = registry.GetGauge("ops_total", "oops");
  ASSERT_NE(conflicted, nullptr);
  conflicted->Set(99);  // safe to use, never exposed
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(registry.type_conflicts(), 1u);
  // The quarantined cell does not appear in the exposition.
  const std::string text = registry.TextExposition();
  EXPECT_EQ(text.find("gauge"), std::string::npos);
  EXPECT_NE(text.find("ops_total 42"), std::string::npos);
}

// Byte-exact pin of the text exposition: families sorted by name, series
// by label string, histograms as cumulative buckets + _sum + _count.
// Deliberately brittle — any format change must update this golden.
TEST(ExpositionTest, PrometheusTextGolden) {
  Registry registry;
  registry.GetCounter("alpha_total", "count of alpha")->Increment(3);
  registry.GetGauge("queue_depth", "entries queued")->Set(-4);
  Histogram* h = registry.GetHistogram("wait_seconds", "wait", {0.5, 1.0});
  h->Observe(0.25);
  h->Observe(0.75);
  h->Observe(2.0);
  registry
      .GetCounter("labeled_total", "labeled",
                  {{"result", "err"}, {"shard", "0"}})
      ->Increment();

  const std::string expected =
      "# HELP alpha_total count of alpha\n"
      "# TYPE alpha_total counter\n"
      "alpha_total 3\n"
      "# HELP labeled_total labeled\n"
      "# TYPE labeled_total counter\n"
      "labeled_total{result=\"err\",shard=\"0\"} 1\n"
      "# HELP queue_depth entries queued\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth -4\n"
      "# HELP wait_seconds wait\n"
      "# TYPE wait_seconds histogram\n"
      "wait_seconds_bucket{le=\"0.5\"} 1\n"
      "wait_seconds_bucket{le=\"1\"} 2\n"
      "wait_seconds_bucket{le=\"+Inf\"} 3\n"
      "wait_seconds_sum 3\n"
      "wait_seconds_count 3\n";
  EXPECT_EQ(registry.TextExposition(), expected);
}

TEST(ExpositionTest, LabelValuesAreEscaped) {
  Registry registry;
  registry
      .GetCounter("escaped_total", "esc", {{"path", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("escaped_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(ExpositionTest, JsonCarriesTheSameValuesAndFormatsDispatch) {
  Registry registry;
  registry.GetCounter("alpha_total", "a")->Increment(7);
  Histogram* h = registry.GetHistogram("wait_seconds", "w", {0.5});
  h->Observe(0.25);
  const std::string json = registry.JsonExposition();
  EXPECT_NE(json.find("\"name\": \"alpha_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"type_conflicts\": 0"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"count\": 1}"), std::string::npos);
  EXPECT_EQ(registry.Exposition(obs::ExpositionFormat::kJson), json);
  EXPECT_EQ(registry.Exposition(obs::ExpositionFormat::kPrometheusText),
            registry.TextExposition());
}

// ---------------------------------------------------------------------
// EXPLAIN: index choice and estimated-vs-actual row reporting for the
// three plans the acceptance bar names (subject, agent, time-range).
// ---------------------------------------------------------------------

class ExplainTest : public ::testing::Test {
 protected:
  // 64 records: subjects s0..s7 (8 each), agents a0..a3 (16 each),
  // timestamps 1000..1063 — selectivity subject < agent < full scan.
  void SetUp() override {
    chain_options_.registry = &registry_;
    chain_ = std::make_unique<ledger::Blockchain>(chain_options_);
    prov::ProvenanceStoreOptions store_options;
    store_options.registry = &registry_;
    store_ = std::make_unique<prov::ProvenanceStore>(chain_.get(), &clock_,
                                                     store_options);
    std::vector<prov::ProvenanceRecord> records;
    for (size_t i = 0; i < 64; ++i) {
      prov::ProvenanceRecord rec;
      rec.record_id = "r" + std::to_string(i);
      rec.operation = i % 3 == 0 ? "read" : "write";
      rec.subject = "s" + std::to_string(i % 8);
      rec.agent = "a" + std::to_string(i % 4);
      rec.timestamp = static_cast<Timestamp>(1000 + i);
      records.push_back(std::move(rec));
    }
    ASSERT_TRUE(store_->AnchorBatch(records).ok());
  }

  obs::Registry registry_;
  ledger::ChainOptions chain_options_;
  SimClock clock_;
  std::unique_ptr<ledger::Blockchain> chain_;
  std::unique_ptr<prov::ProvenanceStore> store_;
};

TEST_F(ExplainTest, SubjectPlanReportsIndexAndEstVsActual) {
  prov::Query query;
  query.WithSubject("s3");
  const prov::QueryExplain ex = store_->Explain(query);
  EXPECT_EQ(ex.index_used, prov::QueryIndex::kSubject);
  EXPECT_EQ(ex.estimated_candidates, 8u);
  EXPECT_EQ(ex.rows_matched, 8u);
  // A pure subject query is covered by its postings slice: the count-only
  // execution never visits candidates.
  EXPECT_TRUE(ex.covers_filters);
  EXPECT_EQ(ex.candidates_scanned, 0u);
  EXPECT_NE(ex.ToString().find("index=subject"), std::string::npos);
  EXPECT_NE(ex.ToString().find("est=8"), std::string::npos);
  EXPECT_NE(ex.ToJson().find("\"index\": \"subject\""), std::string::npos);
}

TEST_F(ExplainTest, AgentPlanReportsIndexAndEstVsActual) {
  prov::Query query;
  query.WithAgent("a1");
  const prov::QueryExplain ex = store_->Explain(query);
  EXPECT_EQ(ex.index_used, prov::QueryIndex::kAgent);
  EXPECT_EQ(ex.estimated_candidates, 16u);
  EXPECT_EQ(ex.rows_matched, 16u);
  EXPECT_TRUE(ex.covers_filters);
  EXPECT_NE(ex.ToString().find("index=agent"), std::string::npos);
}

TEST_F(ExplainTest, TimeRangePlanReportsIndexAndEstVsActual) {
  prov::Query query;
  query.Between(1010, 1019);  // inclusive: 10 records
  const prov::QueryExplain ex = store_->Explain(query);
  EXPECT_EQ(ex.index_used, prov::QueryIndex::kTimeRange);
  EXPECT_EQ(ex.estimated_candidates, 10u);
  EXPECT_EQ(ex.rows_matched, 10u);
  EXPECT_TRUE(ex.covers_filters);
  EXPECT_NE(ex.ToString().find("index=time_range"), std::string::npos);
}

TEST_F(ExplainTest, ResidualPredicateMakesThePlanNonCovering) {
  prov::Query query;
  query.WithSubject("s2").WithOperation("read");
  const prov::QueryExplain ex = store_->Explain(query);
  EXPECT_EQ(ex.index_used, prov::QueryIndex::kSubject);
  EXPECT_FALSE(ex.covers_filters);
  // The scan visits the full postings slice; the residual operation
  // filter keeps only s2's multiples of three (i = 18 and 42).
  EXPECT_EQ(ex.candidates_scanned, 8u);
  EXPECT_EQ(ex.rows_matched, 2u);
  EXPECT_NE(ex.ToString().find("covering=no"), std::string::npos);
}

TEST_F(ExplainTest, ExecuteFeedsThePlanCountersAndSnapshot) {
  prov::Query query;
  query.WithSubject("s0");
  (void)store_->Execute(query);  // testing the side effect on the counters
  const std::string text =
      store_->MetricsSnapshot(obs::ExpositionFormat::kPrometheusText);
  EXPECT_NE(text.find("query_plans_total{index=\"subject\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE query_exec_seconds histogram"),
            std::string::npos);
  // The injected registry also carries the chain's instrumentation.
  EXPECT_NE(text.find("# TYPE chain_append_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("chain_height"), std::string::npos);
  EXPECT_EQ(store_->registry(), &registry_);
}

using PublishMetricsTest = ExplainTest;

TEST_F(PublishMetricsTest, EachPublishObservesLatencyAndBytesOnce) {
  obs::Histogram* seconds = registry_.GetHistogram(
      "snapshot_publish_seconds", "", obs::LatencyBuckets());
  obs::Histogram* bytes = registry_.GetHistogram(
      "snapshot_publish_bytes", "", obs::SizeBuckets());
  EXPECT_EQ(seconds->count(), 0u);
  EXPECT_EQ(bytes->count(), 0u);

  ASSERT_TRUE(store_->PublishSnapshot().ok());
  EXPECT_EQ(seconds->count(), 1u);
  EXPECT_EQ(bytes->count(), 1u);
  const double first = bytes->sum();
  // The first epoch encodes all 64 records, then copies the open group.
  EXPECT_GT(first, 0.0);

  // Nothing new to encode: the second epoch only copies the open group.
  ASSERT_TRUE(store_->PublishSnapshot().ok());
  EXPECT_EQ(seconds->count(), 2u);
  EXPECT_EQ(bytes->count(), 2u);
  EXPECT_LT(bytes->sum() - first, first);

  const std::string text =
      store_->MetricsSnapshot(obs::ExpositionFormat::kPrometheusText);
  EXPECT_NE(text.find("# TYPE snapshot_publish_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("snapshot_publish_bytes_count 2"), std::string::npos);
}

// ---------------------------------------------------------------------
// Concurrency: cells are plain relaxed atomics — this run exists so the
// TSan gate can prove there is no locking bug hiding in the hot path.
// ---------------------------------------------------------------------

TEST(ConcurrencyTest, ParallelIncrementsAreExact) {
  Registry registry;
  Counter* counter = registry.GetCounter("threads_total", "t");
  Gauge* gauge = registry.GetGauge("threads_balance", "b");
  Histogram* hist =
      registry.GetHistogram("threads_seconds", "h", {1e-6, 1e-3});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1);
        hist->Observe(1e-6);  // exactly one microunit per observation
      }
    });
  }
  // Concurrent registration of the same family must also be safe.
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        registry.GetCounter("threads_total", "t")->Increment(0);
        (void)registry.TextExposition();  // concurrent read, value unused
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const uint64_t expected = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(counter->value(), expected);
  EXPECT_EQ(gauge->value(), static_cast<int64_t>(expected));
  EXPECT_EQ(hist->count(), expected);
  EXPECT_EQ(hist->bucket_value(0), expected);
  EXPECT_NEAR(hist->sum(), expected * 1e-6, 1e-9);
}

}  // namespace
}  // namespace provledger
