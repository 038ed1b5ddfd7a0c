// query_under_ingest: readers beside a writer. Setup anchors a base
// custody-chain DAG whose epochs are tens of MB. During the window one
// writer submits on an open-loop schedule (well under what the committer
// sustains with publication), the pipeline publishes an epoch every
// kPublishEvery batches, two reader clients send an open-loop query mix to
// the latest epoch (keeping their reader until the epoch changes) and a
// ContinuousAuditor verifies in the background. No ChainLog.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "audit/auditor.h"
#include "bench.h"
#include "common/clock.h"
#include "prov/ingest_pipeline.h"
#include "workloads.h"

namespace provbench {
namespace {

namespace obs = provledger::obs;
namespace prov = provledger::prov;
namespace ledger = provledger::ledger;
namespace audit = provledger::audit;
using provledger::Status;

constexpr size_t kChunk = 1024;
constexpr size_t kShards = 2;
constexpr size_t kBatch = 256;         // records per shard batch (block)
constexpr size_t kAgents = 64;
constexpr size_t kPublishEvery = 32;   // batches per epoch
constexpr double kWriteRate = 5000;    // records per second, open loop
constexpr double kQueryRate = 200;     // queries per second per reader
constexpr size_t kReaders = 2;
constexpr size_t kWindowRecords = 1000;  // time-window query width
constexpr size_t kLatestN = 32;

enum QueryType { kSubjectHistory, kAgentLatest, kTimeWindow, kLineage, kTypes };
const char* const kTypeName[kTypes] = {"subject_history", "agent_latest",
                                        "time_window", "lineage"};
const char* const kSpanName[kTypes] = {
    "prov.query.subject_history", "prov.query.agent_latest",
    "prov.query.time_window", "prov.graph.lineage"};
const char* const kSpanLayer[kTypes] = {"prov.query", "prov.query",
                                         "prov.query", "prov.graph"};

// The mix: 40% subject history, 25% agent latest, 20% time-window count,
// 15% lineage.
QueryType PickType(Rng* rng) {
  const uint64_t u = rng->NextBelow(100);
  if (u < 40) return kSubjectHistory;
  if (u < 65) return kAgentLatest;
  if (u < 85) return kTimeWindow;
  return kLineage;
}

// One query of the mix, as a value both an epoch reader and the live
// store can run.
struct QuerySpec {
  QueryType type = kSubjectHistory;
  std::string key;  // subject or agent
  size_t record_count = 0;  // epoch size the time window is anchored to
};

QuerySpec MakeQuery(QueryType type, Rng* rng, const Zipf& subjects,
                    const Zipf& agents, size_t record_count) {
  QuerySpec q;
  q.type = type;
  q.record_count = record_count;
  if (type == kAgentLatest) {
    q.key = CustodyDag::AgentName(agents.Sample(rng));
  } else if (type != kTimeWindow) {
    q.key = CustodyDag::SubjectName(subjects.Sample(rng));
  }
  return q;
}

prov::Query TimeWindow(size_t record_count) {
  const int64_t last = static_cast<int64_t>(record_count == 0 ? 0 : record_count - 1);
  const int64_t to = CustodyDag::kBaseTs + last * CustodyDag::kTsStep;
  const int64_t from =
      to - static_cast<int64_t>(kWindowRecords) * CustodyDag::kTsStep;
  return prov::Query().Between(from, to).CountOnly();
}

// Result identity: record ids (or ancestor entities) in result order, or
// the count for count-only queries. `Source` is an epoch's SnapshotReader
// or the live ProvenanceStore; `graph` is its graph, for lineage.
template <typename Source>
std::vector<std::string> Execute(const Source& source,
                                 const prov::ProvenanceGraph* graph,
                                 const QuerySpec& q) {
  std::vector<std::string> out;
  auto ids = [&out](const prov::QueryResult& result) {
    for (const auto& rec : result.records) out.push_back(rec.record_id);
  };
  switch (q.type) {
    case kSubjectHistory:
      ids(source.Execute(prov::Query().WithSubject(q.key)));
      break;
    case kAgentLatest:
      ids(source.Execute(
          prov::Query().WithAgent(q.key).Descending().Limit(kLatestN)));
      break;
    case kTimeWindow:
      out.push_back(
          std::to_string(source.Execute(TimeWindow(q.record_count)).count));
      break;
    case kLineage: {
      auto latest = source.Execute(
          prov::Query().WithSubject(q.key).Descending().Limit(1));
      if (!latest.records.empty() && !latest.records[0].outputs.empty()) {
        out = graph->Lineage(latest.records[0].outputs[0]);
        std::sort(out.begin(), out.end());
      }
      break;
    }
    default:
      break;
  }
  return out;
}

// Rows a result stands for (the count of a count-only query).
size_t Rows(const QuerySpec& q, const std::vector<std::string>& result) {
  if (q.type == kTimeWindow) return std::stoul(result[0]);
  return result.size();
}

struct Stack {
  obs::Registry registry;
  provledger::SystemClock clock;
  std::unique_ptr<ledger::Blockchain> chain;
  std::unique_ptr<prov::ProvenanceStore> store;
  std::unique_ptr<prov::IngestPipeline> pipeline;
  std::unique_ptr<CustodyDag> dag;
};

Status Setup(uint64_t seed, size_t base, size_t subjects,
             std::unique_ptr<Stack>* out) {
  auto s = std::make_unique<Stack>();
  ledger::ChainOptions chain_options;
  chain_options.registry = &s->registry;
  s->chain = std::make_unique<ledger::Blockchain>(chain_options);
  prov::ProvenanceStoreOptions store_options;
  store_options.registry = &s->registry;
  s->store = std::make_unique<prov::ProvenanceStore>(
      s->chain.get(), &s->clock, store_options);
  prov::IngestPipelineOptions pipe_options;
  pipe_options.shards = kShards;
  pipe_options.batch_size = kBatch;
  pipe_options.snapshot_every_batches = kPublishEvery;
  pipe_options.publish_on_flush = true;
  pipe_options.registry = &s->registry;
  s->pipeline =
      std::make_unique<prov::IngestPipeline>(s->store.get(), pipe_options);
  s->dag = std::make_unique<CustodyDag>(seed, subjects, kAgents);
  for (size_t done = 0; done < base; done += kChunk) {
    std::vector<ProvenanceRecord> chunk;
    chunk.reserve(kChunk);
    for (size_t k = 0; k < kChunk && done + k < base; ++k) {
      chunk.push_back(s->dag->Next());
    }
    PROVLEDGER_RETURN_NOT_OK(s->pipeline->SubmitBatch(std::move(chunk)));
  }
  PROVLEDGER_RETURN_NOT_OK(s->pipeline->Flush());
  *out = std::move(s);
  return Status::OK();
}

struct EpochStamp {
  uint64_t chain_height;
  double at;  // first time the writer saw it
};

struct ReaderStats {
  std::vector<double> latency_ms;  // due -> result, every query
  std::vector<double> wait_ms;     // due -> start
  std::vector<double> open_ms;
  std::vector<double> first_ms;
  std::vector<double> type_us[kTypes];
  double rows[kTypes] = {};
  uint64_t count[kTypes] = {};
  uint64_t queries = 0;
  uint64_t failures = 0;  // results larger than their epoch
  std::string error;
};

void ReaderLoop(size_t id, uint64_t seed, const prov::ProvenanceStore* store,
                const Zipf* subjects, const Zipf* agents, double t0,
                double t_end, Tracer* tracer, ReaderStats* stats) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17 * (id + 1));
  std::shared_ptr<const prov::GraphSnapshot> snap;
  std::optional<prov::SnapshotReader> reader;
  // Readers start half an interval apart so their queries interleave.
  double due = t0 + (static_cast<double>(id) + 0.5) / (kQueryRate * kReaders);
  uint64_t request = id << 48;
  for (; due < t_end; due += 1.0 / kQueryRate, ++request) {
    SleepUntilPrecise(due);
    const double start = Now();
    stats->wait_ms.push_back((start - due) * 1e3);
    bool fresh = false;
    if (snap == nullptr || store->snapshot_epoch() != snap->epoch()) {
      snap = store->AcquireSnapshot();
      const double t = Now();
      Tracer::Scope span(tracer, "prov.snapshot", "prov.snapshot.OpenReader",
                         request);
      auto opened = snap->OpenReader();
      if (!opened.ok()) {
        stats->error = "OpenReader: " + opened.status().ToString();
        return;
      }
      reader.emplace(std::move(opened).value());
      stats->open_ms.push_back((Now() - t) * 1e3);
      fresh = true;
    }
    const QueryType type = PickType(&rng);
    const QuerySpec q =
        MakeQuery(type, &rng, *subjects, *agents, snap->record_count());
    const double qs = Now();
    std::vector<std::string> result;
    {
      Tracer::Scope span(tracer, fresh ? "prov.snapshot" : kSpanLayer[type],
                         fresh ? "prov.snapshot.first_query" : kSpanName[type],
                         request);
      result = Execute(*reader, &reader->graph(), q);
    }
    const double end = Now();
    const size_t rows = Rows(q, result);
    if (rows > snap->record_count()) ++stats->failures;
    if (fresh) {
      stats->first_ms.push_back((end - qs) * 1e3);
    } else {
      stats->type_us[type].push_back((end - qs) * 1e6);
    }
    stats->rows[type] += static_cast<double>(rows);
    ++stats->count[type];
    ++stats->queries;
    stats->latency_ms.push_back((end - due) * 1e3);
  }
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0, double e = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d, e);
  return buf;
}

}  // namespace

PassResult RunQueryUnderIngest(const Args& args, double window_s, size_t rep,
                               size_t /*reps*/, Tracer* tracer) {
  PassResult r;
  const size_t base = args.smoke ? 8192 : 100000;
  const size_t subjects = args.smoke ? 2000 : 20000;
  const uint64_t seed = RepSeed(args.seed, rep);
  ReleaseFreedMemory();
  ResetPeakRss();
  const double setup_start = Now();
  std::unique_ptr<Stack> s;
  Status st = Setup(seed, base, subjects, &s);
  const double setup_s = Now() - setup_start;
  if (!st.ok()) {
    r.Check(false, "setup: " + st.ToString());
    return r;
  }
  prov::ProvenanceStore* store = s->store.get();
  prov::IngestPipeline* pipeline = s->pipeline.get();
  ledger::Blockchain* chain = s->chain.get();
  obs::Registry* reg = &s->registry;

  // Block-sink stamps, in both runs (one relaxed store per block): when
  // each block reached the chain.
  const size_t max_blocks =
      chain->height() + static_cast<size_t>(kWriteRate * window_s) + 64;
  std::unique_ptr<std::atomic<double>[]> sink_at(
      new std::atomic<double>[max_blocks + 1]);
  for (size_t h = 0; h <= max_blocks; ++h) sink_at[h].store(0);
  std::atomic<double>* stamps = sink_at.get();
  chain->SetBlockSink([stamps, max_blocks](const ledger::Block& block) {
    if (block.header.height <= max_blocks) {
      stamps[block.header.height].store(Now(), std::memory_order_relaxed);
    }
    return Status::OK();
  });

  // The auditor starts on the base chain and catches up before the window.
  audit::ContinuousAuditorOptions audit_options;
  audit_options.registry = reg;
  audit::ContinuousAuditor auditor(chain, store, audit_options);
  const double catchup_start = Now();
  auditor.Start();
  while (auditor.audited_height() < chain->height() &&
         Now() - catchup_start < 120) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double catchup_s = Now() - catchup_start;
  r.Check(auditor.audited_height() >= chain->height(),
          "auditor did not catch up with the base chain");

  const obs::Labels commit = {{"stage", "commit"}};
  const double commit0 = HistSum(reg, "ingest_stage_seconds", commit);
  const double append0 = HistSum(reg, "chain_append_seconds");
  const uint64_t append_n0 = HistCount(reg, "chain_append_seconds");
  const double validate0 = HistSum(reg, "chain_validate_seconds");
  const uint64_t validate_n0 = HistCount(reg, "chain_validate_seconds");
  const uint64_t audited0 = auditor.blocks_audited();
  const uint64_t committed0 = pipeline->committed();

  const size_t n = static_cast<size_t>(kWriteRate * window_s);
  const double t0 = Now() + 0.01;
  const double t_end = t0 + window_s;
  std::vector<double> due(n);
  for (size_t j = 0; j < n; ++j) due[j] = t0 + static_cast<double>(j) / kWriteRate;

  const Zipf subject_zipf(subjects, 0.8);
  const Zipf agent_zipf(kAgents, 0.8);
  std::vector<ReaderStats> reader_stats(kReaders);
  std::vector<std::thread> readers;
  for (size_t id = 0; id < kReaders; ++id) {
    readers.emplace_back(ReaderLoop, id, seed, store, &subject_zipf,
                         &agent_zipf, t0, t_end, tracer, &reader_stats[id]);
  }

  // The writer: one tick per millisecond stamps new epochs, samples the
  // auditor and submits every record that has come due.
  std::vector<EpochStamp> epochs;
  std::vector<double> late_ms, audit_lag_ms;
  uint64_t lag_blocks_max = 0;
  double busy_s = 0;
  size_t submitted = 0;
  Status submit_status;
  uint64_t last_epoch = store->snapshot_epoch();
  // Backlog (records submitted, not yet committed): its floor in each
  // quarter of the window. Between epochs the committer drains it down to
  // the shards' partly filled batches, so a floor that rises means the
  // committer is falling behind.
  double backlog_floor[4];
  std::fill(backlog_floor, backlog_floor + 4, static_cast<double>(n));
  std::atomic<bool> flushed{false};
  uint64_t committed_at_end = 0;
  double measured_s = window_s;
  std::thread flusher;
  Status flush_status;
  double tick = t0;
  for (;;) {
    SleepUntil(tick);
    const double now = Now();
    if (now >= t_end && !flusher.joinable()) {
      // Window over: flush the partial batches (publishing a final
      // epoch) on a helper thread while this one keeps stamping.
      committed_at_end = pipeline->committed() - committed0;
      measured_s = Now() - t0;
      flusher = std::thread([&] {
        flush_status = pipeline->Flush();
        flushed.store(true, std::memory_order_release);
      });
    }
    const bool done = flushed.load(std::memory_order_acquire);
    if (store->snapshot_epoch() != last_epoch) {
      auto snap = store->AcquireSnapshot();
      epochs.push_back({snap->chain_height(), now});
      last_epoch = snap->epoch();
    }
    if (done) break;
    if (now < t_end) {
      const uint64_t lag = auditor.lag_blocks();
      lag_blocks_max = std::max(lag_blocks_max, lag);
      const uint64_t oldest = auditor.audited_height() + 1;
      const double stamped =
          lag > 0 && oldest <= max_blocks ? sink_at[oldest].load() : 0;
      audit_lag_ms.push_back(stamped > 0 ? (now - stamped) * 1e3 : 0);
      std::vector<ProvenanceRecord> batch;
      if (submitted < n && due[submitted] <= now) {
        late_ms.push_back((now - due[submitted]) * 1e3);
      }
      while (submitted < n && due[submitted] <= now) {
        batch.push_back(s->dag->Next());
        ++submitted;
      }
      if (!batch.empty() && submit_status.ok()) {
        Tracer::Scope span(tracer, "prov.ingest_pipeline",
                           "prov.ingest_pipeline.SubmitBatch", submitted);
        submit_status = pipeline->SubmitBatch(std::move(batch));
      }
      const size_t quarter =
          std::min<size_t>(3, static_cast<size_t>((now - t0) / window_s * 4));
      backlog_floor[quarter] = std::min(
          backlog_floor[quarter],
          static_cast<double>(submitted) -
              static_cast<double>(pipeline->committed() - committed0));
    }
    busy_s += Now() - now;
    tick = std::max(tick + 0.001, Now());
  }
  flusher.join();
  for (auto& t : readers) t.join();
  const double peak_rss_mb = PeakRssMb();
  Status closed = pipeline->Close();
  const double drain_start = Now();
  while (auditor.audited_height() < chain->height() && Now() - drain_start < 60) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auditor.Stop();
  chain->SetBlockSink(nullptr);

  r.Check(submit_status.ok(), "SubmitBatch: " + submit_status.ToString());
  r.Check(flush_status.ok(), "Flush: " + flush_status.ToString());
  r.Check(closed.ok(), "Close: " + closed.ToString());
  r.Check(pipeline->failed() == 0 &&
              pipeline->committed() == pipeline->submitted(),
          "committed " + std::to_string(pipeline->committed()) + " of " +
              std::to_string(pipeline->submitted()));
  r.Check(auditor.audited_height() >= chain->height(),
          "auditor did not reach the final head");
  r.Check(backlog_floor[3] <= backlog_floor[0] + kShards * kBatch,
          Fmt("the backlog grew over the window (floor %.0f records in the "
              "first quarter, %.0f in the last): the committer fell behind",
              backlog_floor[0], backlog_floor[3]));
  const auto findings = auditor.TakeFindings();
  r.Check(findings.empty() && auditor.findings_total() == 0,
          "auditor reported " + std::to_string(auditor.findings_total()) +
              " findings" +
              (findings.empty() ? "" : ": " + findings[0].ToString()));

  // Visibility: map each window record to its block, then to the first
  // epoch stamp covering that block.
  std::vector<double> visible_ms, batch_wait_ms;
  uint64_t unmapped = 0;
  for (size_t j = 0; j < submitted; ++j) {
    auto txid = store->RecordTxId(CustodyDag::RecordId(base + j));
    auto loc = txid.ok() ? chain->FindTransaction(txid.value())
                         : provledger::Result<ledger::TxLocation>(txid.status());
    if (!loc.ok()) {
      ++unmapped;
      continue;
    }
    const uint64_t h = loc.value().height;
    auto it = std::lower_bound(
        epochs.begin(), epochs.end(), h,
        [](const EpochStamp& e, uint64_t height) { return e.chain_height < height; });
    if (it == epochs.end()) {
      ++unmapped;
      continue;
    }
    visible_ms.push_back((it->at - due[j]) * 1e3);
    if (h <= max_blocks && sink_at[h].load() > 0) {
      batch_wait_ms.push_back((sink_at[h].load() - due[j]) * 1e3);
    }
  }
  r.Check(unmapped == 0, std::to_string(unmapped) +
                             " window records never became visible");

  // Final epoch vs live store: the same queries must agree.
  auto final_snap = store->AcquireSnapshot();
  r.Check(final_snap != nullptr &&
              final_snap->record_count() == store->anchored_count() &&
              final_snap->chain_height() == chain->height(),
          "final epoch does not cover the whole chain");
  uint64_t mismatches = 0;
  const size_t final_checks = args.smoke ? 50 : 400;
  if (final_snap != nullptr) {
    auto opened = final_snap->OpenReader();
    r.Check(opened.ok(), "final OpenReader failed");
    if (opened.ok()) {
      const prov::SnapshotReader& reader = opened.value();
      Rng check_rng(seed ^ 0xC0FFEEULL);
      for (size_t k = 0; k < final_checks; ++k) {
        const QuerySpec q =
            MakeQuery(static_cast<QueryType>(k % kTypes), &check_rng,
                      subject_zipf, agent_zipf, final_snap->record_count());
        if (Execute(reader, &reader.graph(), q) !=
            Execute(*store, &store->graph(), q)) {
          ++mismatches;
        }
      }
    }
  }
  r.Check(mismatches == 0, std::to_string(mismatches) +
                               " final-epoch queries disagree with the live store");

  // Pool the readers.
  ReaderStats all;
  for (auto& rs : reader_stats) {
    r.Check(rs.error.empty(), rs.error);
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.latency_ms, rs.latency_ms);
    append(&all.wait_ms, rs.wait_ms);
    append(&all.open_ms, rs.open_ms);
    append(&all.first_ms, rs.first_ms);
    for (size_t t = 0; t < kTypes; ++t) {
      append(&all.type_us[t], rs.type_us[t]);
      all.rows[t] += rs.rows[t];
      all.count[t] += rs.count[t];
    }
    all.queries += rs.queries;
    all.failures += rs.failures;
  }
  r.Check(all.failures == 0, std::to_string(all.failures) +
                                 " queries returned more rows than their epoch");

  // Epoch publication runs on the committer and no timer covers it: each
  // epoch's share is the gap from the stamp of the block at its
  // chain_height to the epoch's first stamp (which also holds the tail of
  // that batch's indexing and up to one 1 ms tick). Every epoch of the
  // window and the flush counts.
  size_t window_epochs = 0;
  std::vector<double> publish_delay_ms;
  double publish_s = 0;
  for (const auto& e : epochs) {
    if (e.at <= t_end) ++window_epochs;
    if (e.chain_height <= max_blocks && sink_at[e.chain_height].load() > 0) {
      const double delay = e.at - sink_at[e.chain_height].load();
      publish_delay_ms.push_back(delay * 1e3);
      publish_s += delay;
    }
  }
  const double commit_s = HistSum(reg, "ingest_stage_seconds", commit) - commit0;
  const double committer_s = commit_s + publish_s;

  const double wall = window_s;
  r.window_s = wall;
  const double backlog_end = static_cast<double>(n - committed_at_end);
  r.attempted = submitted + all.queries + final_checks;
  r.failed = (pipeline->submitted() - pipeline->committed()) + all.failures +
             mismatches + unmapped;

  r.E2e("setup_s", setup_s, "s");
  r.E2e("peak_rss_mb", peak_rss_mb, "MB");
  // The writer's rate is fixed, so the rate measured here is what the
  // committer sustains with publication: window records per second of its
  // busy time, pooled over the repetitions.
  r.E2eRate("rec_per_s", "rec/s", static_cast<double>(submitted), committer_s);
  r.E2e("bytes_per_rec",
        final_snap == nullptr
            ? 0
            : static_cast<double>(final_snap->body_bytes()) /
                  static_cast<double>(final_snap->record_count()),
        "B");
  // Latency quantiles pool all repetitions: the read p99 sits among the
  // queries queued behind epoch switches, only about six per repetition.
  r.E2ePooled("write_p50_ms", 0.5, "ms", visible_ms);
  r.E2ePooled("write_p99_ms", 0.99, "ms", visible_ms);
  r.E2ePooled("read_p50_ms", 0.5, "ms", all.latency_ms);
  r.E2ePooled("read_p99_ms", 0.99, "ms", all.latency_ms);

  const double append_s = HistSum(reg, "chain_append_seconds") - append0;
  const double append_n =
      static_cast<double>(HistCount(reg, "chain_append_seconds") - append_n0);
  const double validate_s = HistSum(reg, "chain_validate_seconds") - validate0;
  const double validate_n = static_cast<double>(
      HistCount(reg, "chain_validate_seconds") - validate_n0);
  const double recs = static_cast<double>(submitted);
  r.Layer("prov.ingest_pipeline.commit_us_per_rec", commit_s / recs * 1e6,
          "us/rec");
  r.Layer("prov.ingest_pipeline.committer_busy_frac", commit_s / wall, "frac");
  r.Layer("ledger.chain.append_us_per_block", append_s / append_n * 1e6,
          "us/block");
  r.Layer("ledger.chain.validate_us_per_block", validate_s / validate_n * 1e6,
          "us/block");
  r.Layer("prov.snapshot.epochs", static_cast<double>(window_epochs), "count");
  r.Layer("prov.snapshot.body_mb",
          final_snap == nullptr ? 0 : final_snap->body_bytes() / 1048576.0,
          "MB");
  r.Layer("prov.snapshot.open_reader_ms_p50", Quantile(all.open_ms, 0.5), "ms");
  r.Layer("prov.snapshot.open_reader_ms_p99", Quantile(all.open_ms, 0.99), "ms");
  r.Layer("prov.snapshot.first_query_ms_p50", Quantile(all.first_ms, 0.5), "ms");
  r.Layer("prov.snapshot.first_query_ms_p99", Quantile(all.first_ms, 0.99), "ms");
  for (size_t t = 0; t < kTypes; ++t) {
    const std::string prefix = std::string(kSpanName[t]) + "_us_";
    r.Layer(prefix + "p50", Quantile(all.type_us[t], 0.5), "us");
    r.Layer(prefix + "p99", Quantile(all.type_us[t], 0.99), "us");
    r.Layer(std::string("prov.query.rows_per_query.") + kTypeName[t],
            all.count[t] == 0 ? 0 : all.rows[t] / static_cast<double>(all.count[t]),
            "rows");
  }
  r.Layer("prov.query.wait_ms_p99", Quantile(all.wait_ms, 0.99), "ms");
  r.Layer("audit.auditor.lag_blocks_max", static_cast<double>(lag_blocks_max),
          "blocks");
  r.Layer("audit.auditor.blocks_audited",
          static_cast<double>(auditor.blocks_audited() - audited0), "count");
  r.Layer("audit.auditor.findings",
          static_cast<double>(auditor.findings_total()), "count");
  r.Layer("generator.late_ms_p99", Quantile(late_ms, 0.99), "ms");
  r.Layer("generator.busy_frac", busy_s / wall, "frac");
  r.Layer("generator.backlog_end", backlog_end, "count");
  r.Layer("prov.ingest_pipeline.batch_wait_ms_p50",
          Quantile(batch_wait_ms, 0.5), "ms");
  r.Layer("prov.ingest_pipeline.batch_wait_ms_p99",
          Quantile(batch_wait_ms, 0.99), "ms");
  r.Layer("prov.snapshot.publish_delay_ms_p50",
          Quantile(publish_delay_ms, 0.5), "ms");
  r.Layer("prov.snapshot.publish_delay_ms_p99",
          Quantile(publish_delay_ms, 0.99), "ms");
  r.Layer("audit.auditor.lag_ms_p99", Quantile(audit_lag_ms, 0.99), "ms");
  if (tracer != nullptr) {
    r.Layer("prov.ingest_pipeline.submit_wait_s",
            tracer->Total("prov.ingest_pipeline.SubmitBatch", setup_start),
            "s");
  }
  // The committer is the serial stage: commit-stage time plus epoch
  // publication. The chain-append timer is the finer cover inside it.
  r.serial_s = committer_s;
  r.serial_covered_s = append_s;

  r.Info("input: seed=" + std::to_string(args.seed) +
         " rep_seed=" + std::to_string(seed) +
         " digest=" + s->dag->digest().Hex() +
         " records=" + std::to_string(s->dag->generated()) +
         " (base " + std::to_string(base) + ")");
  r.Info(Fmt("visible_p50_ms=%.2f visible_p99_ms=%.2f query_p50_ms=%.3f "
             "query_p99_ms=%.3f epoch_body_mb=%.2f",
             Quantile(visible_ms, 0.5), Quantile(visible_ms, 0.99),
             Quantile(all.latency_ms, 0.5), Quantile(all.latency_ms, 0.99),
             final_snap == nullptr ? 0 : final_snap->body_bytes() / 1048576.0));
  r.Info(Fmt("setup_s=%.3f auditor_catchup_s=%.3f window_epochs=%.0f "
             "queries=%.0f committer_busy=%.3f",
             setup_s, catchup_s, static_cast<double>(window_epochs),
             static_cast<double>(all.queries), committer_s / wall));
  r.Info(Fmt("committer_rec_per_s=%.0f (commit %.3f s + publication %.3f s) "
             "offered_rec_per_s=%.0f committed_by_window_end_per_s=%.0f",
             static_cast<double>(submitted) / committer_s, commit_s, publish_s,
             kWriteRate, static_cast<double>(committed_at_end) / measured_s));
  r.Info(Fmt("backlog floor (records submitted, not committed) per quarter: "
             "%.0f %.0f %.0f %.0f, at the end: %.0f",
             backlog_floor[0], backlog_floor[1], backlog_floor[2],
             backlog_floor[3], backlog_end));
  return r;
}

}  // namespace provbench
