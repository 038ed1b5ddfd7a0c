// provbench: the repository benchmark executable.
//
//   provbench --workload <iot_ingest|query_under_ingest|replicated_commit>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>]
//
// A pass splits --seconds into a few repetitions, or repeats a fixed amount
// of work until --seconds have been measured; each repetition builds its
// own starting state, measures its window and checks its outputs, and the
// pass reports the median of each metric over the repetitions (setup_s is
// thereby the median of several set-ups), for a pooled quantile the
// quantile of all repetitions' samples together, and for a pooled rate
// their summed counts over their summed seconds. --trace 0
// runs one untraced pass and reports the end-to-end metrics. --trace 1 runs
// an untraced pass and then a traced one, with spans recorded around every
// call the benchmark makes into a layer, and reports the per-layer
// metrics, each layer's self time, the share of the serial stage no timer
// or span covers, and the tracing overhead (the relative cost of tracing
// on each end-to-end number; positive is a cost). The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every output check passed.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace provbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better = false;
};

// Keep both tables in step with BENCHMARK.json (the smoke test checks).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    {"rec_per_s", "rec/s", true}, {"bytes_per_rec", "B"},
    {"write_p50_ms", "ms"},       {"write_p99_ms", "ms"},
    {"read_p50_ms", "ms"},        {"read_p99_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"prov.ingest_pipeline.submit_wait_s", "s"},
    {"prov.ingest_pipeline.prepare_us_per_rec", "us/rec"},
    {"prov.ingest_pipeline.commit_us_per_rec", "us/rec"},
    {"prov.ingest_pipeline.committer_busy_frac", "frac"},
    {"prov.ingest_pipeline.batch_wait_ms_p50", "ms"},
    {"prov.ingest_pipeline.batch_wait_ms_p99", "ms"},
    {"ledger.chain.append_us_per_block", "us/block"},
    {"ledger.chain.validate_us_per_block", "us/block"},
    {"ledger.chain.follower_validate_us_per_block", "us/block"},
    {"ledger.chain.merkle_builds_per_proof", "count"},
    {"ledger.chain.merkle_cache_hit_ratio", "frac"},
    {"crypto.merkle_root_computes_per_block", "count"},
    {"ledger.chain_log.append_us_per_block", "us/block"},
    {"ledger.chain_log.bytes_per_block", "B"},
    {"ledger.chain_log.sync_ms", "ms"},
    {"prov.snapshot.epochs", "count"},
    {"prov.snapshot.body_mb", "MB"},
    {"prov.snapshot.publish_delay_ms_p50", "ms"},
    {"prov.snapshot.publish_delay_ms_p99", "ms"},
    {"prov.snapshot.open_reader_ms_p50", "ms"},
    {"prov.snapshot.open_reader_ms_p99", "ms"},
    {"prov.snapshot.first_query_ms_p50", "ms"},
    {"prov.snapshot.first_query_ms_p99", "ms"},
    {"prov.query.subject_history_us_p50", "us"},
    {"prov.query.subject_history_us_p99", "us"},
    {"prov.query.agent_latest_us_p50", "us"},
    {"prov.query.agent_latest_us_p99", "us"},
    {"prov.query.time_window_us_p50", "us"},
    {"prov.query.time_window_us_p99", "us"},
    {"prov.graph.lineage_us_p50", "us"},
    {"prov.graph.lineage_us_p99", "us"},
    {"prov.query.rows_per_query.subject_history", "rows"},
    {"prov.query.rows_per_query.agent_latest", "rows"},
    {"prov.query.rows_per_query.time_window", "rows"},
    {"prov.query.rows_per_query.lineage", "rows"},
    {"prov.query.wait_ms_p99", "ms"},
    {"audit.auditor.lag_blocks_max", "blocks"},
    {"audit.auditor.lag_ms_p99", "ms"},
    {"audit.auditor.blocks_audited", "count"},
    {"audit.auditor.findings", "count"},
    {"audit.lineage_proof.serve_ms_p50", "ms"},
    {"audit.lineage_proof.verify_ms_p50", "ms"},
    {"audit.lineage_proof.bytes_p50", "B"},
    {"audit.lineage_proof.nodes_p50", "count"},
    {"replication.bytes_per_rec.block", "B"},
    {"replication.bytes_per_rec.status", "B"},
    {"replication.bytes_per_rec.pull", "B"},
    {"replication.bytes_per_rec.blocks", "B"},
    {"replication.messages_per_commit", "count"},
    {"replication.pull_rounds", "count"},
    {"replication.blocks_rejected", "count"},
    {"network.delivered", "count"},
    {"network.dropped", "count"},
    {"consensus.messages_per_commit", "count"},
    {"consensus.sim_ms_per_commit", "ms"},
    {"generator.late_ms_p99", "ms"},
    {"generator.busy_frac", "frac"},
    {"generator.backlog_end", "count"},
};

// Layers whose self time the traced run reports (span layer names).
constexpr const char* kSpanLayers[] = {
    "prov.ingest_pipeline", "ledger.chain_log", "prov.snapshot",
    "prov.query",           "prov.graph",       "replication",
    "audit",
};

struct WorkloadDef {
  const char* name;
  PassResult (*run)(const Args&, double window_s, size_t rep, size_t reps,
                    Tracer*);
  // Repetitions per pass, each measuring --seconds / reps. 0: repetitions
  // of a fixed amount of work, run until together they have measured
  // --seconds (the workload is then called with window_s = 0).
  size_t reps;
};

constexpr WorkloadDef kWorkloads[] = {
    {"iot_ingest", RunIotIngest, 0},
    {"query_under_ingest", RunQueryUnderIngest, 3},
    {"replicated_commit", RunReplicatedCommit, 1},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::map<std::string, Metric> ByName(const std::vector<Metric>& metrics) {
  std::map<std::string, Metric> out;
  for (const auto& m : metrics) out[m.name] = m;
  return out;
}

// A value exactly as measured; a non-finite one (which would be invalid
// JSON) is a benchmark bug and fails the run.
std::string Num(double v, bool* ok) {
  if (!std::isfinite(v)) {
    *ok = false;
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintInfo(const std::string& tag, const PassResult& r) {
  for (const auto& line : r.info) std::printf("[%s] %s\n", tag.c_str(), line.c_str());
  for (const auto& e : r.errors) {
    std::printf("[%s] CHECK FAILED: %s\n", tag.c_str(), e.c_str());
    std::fprintf(stderr, "[%s] CHECK FAILED: %s\n", tag.c_str(), e.c_str());
  }
  std::fflush(stdout);
}

// Median of each metric over the repetitions of one pass.
std::vector<Metric> MedianOver(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out;
  if (reps.empty()) return out;
  for (const auto& m : reps.front()) {
    std::vector<double> values;
    for (const auto& rep : reps) {
      for (const auto& x : rep) {
        if (x.name == m.name) values.push_back(x.value);
      }
    }
    out.push_back({m.name, Median(values), m.unit});
  }
  return out;
}

PassResult RunPass(const WorkloadDef& w, const Args& args, Tracer* tracer,
                   const char* label) {
  const bool budgeted = w.reps == 0 && !args.smoke;
  const size_t reps = args.smoke ? (w.reps == 0 ? 2 : std::min<size_t>(2, w.reps))
                                 : w.reps;
  const double window =
      w.reps == 0 ? 0 : args.seconds / static_cast<double>(reps);
  PassResult out;
  std::vector<std::vector<Metric>> e2e, layers;
  std::map<std::string, PooledQuantile> pooled;
  std::map<std::string, PooledRate> rates;
  double measured = 0;
  for (size_t k = 0; budgeted ? measured < args.seconds : k < reps; ++k) {
    const double started = Now();
    PassResult r = w.run(args, window, k, reps, tracer);
    char timing[96];
    std::snprintf(timing, sizeof(timing), "repetition_s=%.3f window_s=%.3f",
                  Now() - started, r.window_s);
    r.Info(timing);
    PrintInfo(std::string(label) + " " + std::to_string(k + 1) +
                  (budgeted ? "" : "/" + std::to_string(reps)),
              r);
    measured += r.window_s;
    out.correct = out.correct && r.correct;
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.serial_s += r.serial_s;
    out.serial_covered_s += r.serial_covered_s;
    e2e.push_back(std::move(r.e2e));
    layers.push_back(std::move(r.layers));
    for (auto& p : r.pooled) {
      PooledQuantile& all = pooled[p.name];
      if (all.name.empty()) all = {p.name, p.q, p.unit, {}};
      all.sample.insert(all.sample.end(), p.sample.begin(), p.sample.end());
    }
    for (const auto& p : r.rates) {
      PooledRate& all = rates[p.name];
      if (all.name.empty()) all = {p.name, p.unit, 0, 0};
      all.count += p.count;
      all.seconds += p.seconds;
    }
    if (!r.correct) break;  // a failed check fails the run anyway
  }
  out.e2e = MedianOver(e2e);
  out.layers = MedianOver(layers);
  for (const auto& [name, p] : pooled) {
    out.e2e.push_back({name, WeightedQuantile(p.sample, p.q), p.unit});
  }
  for (const auto& [name, p] : rates) {
    out.e2e.push_back({name, p.seconds > 0 ? p.count / p.seconds : 0, p.unit});
  }
  return out;
}

int Main(int argc, char** argv) {
  // Keep freed heap memory in the process for reuse rather than handing
  // large blocks back to the kernel on every free. Otherwise each epoch
  // publication, reader hydration and set-up faults its pages in afresh,
  // and what those faults cost on a shared virtual machine varies from
  // minute to minute (README.md, "Allocator"). Each repetition still
  // starts with ReleaseFreedMemory, so its peak RSS is its own.
  mallopt(M_MMAP_THRESHOLD, INT_MAX);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: provbench --workload <iot_ingest|query_under_ingest|"
                 "replicated_commit> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke] [--work-dir <dir>]\n");
    return 2;
  }
  const WorkloadDef* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!MakeDirs(args.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");

  PassResult untraced = RunPass(*workload, args, nullptr, "untraced");
  bool correct = untraced.correct;
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  std::vector<Metric> out;

  if (!args.trace) {
    const auto e2e = ByName(untraced.e2e);
    for (const auto& def : kEndToEnd) {
      auto it = e2e.find(def.name);
      if (it == e2e.end()) {
        std::fprintf(stderr, "workload did not report %s\n", def.name);
        return 1;
      }
      out.push_back({def.name, it->second.value, def.unit});
    }
  } else {
    Tracer tracer;
    PassResult traced = RunPass(*workload, args, &tracer, "traced");
    correct = correct && traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;

    const auto layers = ByName(traced.layers);
    for (const auto& m : traced.layers) {
      bool known = false;
      for (const auto& def : kPerLayer) known = known || m.name == def.name;
      if (!known) {
        std::fprintf(stderr, "unlisted per-layer metric %s\n", m.name.c_str());
        return 1;
      }
    }
    // A layer the workload does not exercise reports 0.
    for (const auto& def : kPerLayer) {
      auto it = layers.find(def.name);
      out.push_back(
          {def.name, it == layers.end() ? 0.0 : it->second.value, def.unit});
    }
    for (const char* layer : kSpanLayers) {
      out.push_back({std::string("trace.self_s.") + layer,
                     tracer.SelfSeconds(layer), "s"});
    }
    out.push_back({"trace.uncovered_serial_frac",
                   traced.serial_s > 0
                       ? 1.0 - traced.serial_covered_s / traced.serial_s
                       : 0.0,
                   "frac"});
    const auto base = ByName(untraced.e2e);
    const auto with_spans = ByName(traced.e2e);
    for (const auto& def : kEndToEnd) {
      double overhead = 0;
      auto b = base.find(def.name);
      auto t = with_spans.find(def.name);
      if (b != base.end() && t != with_spans.end() && b->second.value != 0 &&
          t->second.value != 0) {
        // Positive means tracing costs: a lower rate or a higher time.
        overhead = def.higher_is_better
                       ? b->second.value / t->second.value - 1.0
                       : t->second.value / b->second.value - 1.0;
      }
      out.push_back({std::string("trace.overhead.") + def.name, overhead,
                     "frac"});
    }
    const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("[traced] %zu spans written to %s\n", tracer.span_count(),
                  trace_path.c_str());
    }
  }

  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const auto& m : out) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Num(m.value, &finite) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  correct = correct && finite;
  if (!finite) std::fprintf(stderr, "a metric was not a finite number\n");
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace provbench

int main(int argc, char** argv) { return provbench::Main(argc, argv); }
