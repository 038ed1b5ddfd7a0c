// Audit-subsystem benchmark: the two costs ISSUE 9 adds to a node —
//
//   lineage proofs: BuildLineageProof over ancestry chains of increasing
//       depth (16 .. 1024 ancestors), reporting proof size in bytes and
//       build/verify latency. Verification runs against the header oracle
//       alone, exactly what a storeless light client pays per proof.
//
//   continuous audit: a background ContinuousAuditor racing a live
//       IngestPipeline over the same chain/store, reporting auditor
//       records/s and how far behind the head it sits when ingest stops
//       (it must converge to the head with zero findings).
//
// Emits BENCH_audit.json. Usage: bench_audit [json [records]]

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "audit/auditor.h"
#include "audit/lineage_proof.h"
#include "bench_env.h"
#include "must.h"
#include "prov/ingest_pipeline.h"
#include "prov/store.h"

namespace provledger {
namespace {

using BenchClock = std::chrono::steady_clock;

double ElapsedS(BenchClock::time_point t0) {
  return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

// Same layered-DAG shape as bench_recovery: each record consumes the
// previous record's output (a maximal ancestry chain) plus a mid-chain
// entity every 7th record, so proof depth == record index.
std::vector<prov::ProvenanceRecord> MakeWorkload(size_t n) {
  std::vector<prov::ProvenanceRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    prov::ProvenanceRecord rec;
    rec.record_id = "r" + std::to_string(i);
    rec.operation = "execute";
    rec.subject = "s" + std::to_string(i % 1000);
    rec.agent = "a" + std::to_string(i % 64);
    rec.timestamp = static_cast<Timestamp>(i * 16 + (i * 2654435761u) % 16);
    if (i > 0) rec.inputs.push_back("e" + std::to_string(i - 1));
    if (i % 7 == 0 && i > 1) rec.inputs.push_back("e" + std::to_string(i / 2));
    rec.outputs.push_back("e" + std::to_string(i));
    records.push_back(std::move(rec));
  }
  return records;
}

struct ProofPoint {
  size_t depth = 0;
  size_t nodes = 0;
  size_t headers = 0;
  size_t bytes = 0;
  double build_ms = 0;
  double verify_ms = 0;
};

int Run(const std::string& json_path, size_t n) {
  if (n < 2048) {
    std::fprintf(stderr, "record count must be >= 2048 (got %zu)\n", n);
    return 1;
  }
  std::printf("== Lineage proofs + continuous audit under live ingest ==\n");
  std::printf("   records: %zu\n\n", n);

  // ---------------------------------------------------- lineage proofs
  SimClock clock(1'000'000);
  ledger::Blockchain chain;
  prov::ProvenanceStore store(&chain, &clock);
  std::vector<prov::ProvenanceRecord> workload = MakeWorkload(n);

  auto t0 = BenchClock::now();
  // Blocks of 64 records: multi-leaf trees -> real Merkle paths.
  for (size_t i = 0; i < workload.size(); i += 64) {
    Must(store.AnchorBatch(std::vector<prov::ProvenanceRecord>(
        workload.begin() + i,
        workload.begin() + std::min(workload.size(), i + 64))));
  }
  double ingest_s = ElapsedS(t0);
  std::printf("  ingest: %.0f rec/s over %llu blocks\n", n / ingest_s,
              static_cast<unsigned long long>(chain.height()));

  audit::HeaderHashAt oracle = [&chain](uint64_t height) {
    return chain.BlockHashAt(height);
  };

  std::vector<ProofPoint> points;
  for (size_t depth : {size_t{16}, size_t{64}, size_t{256}, size_t{1024}}) {
    ProofPoint p;
    p.depth = depth;
    const std::string target = "r" + std::to_string(depth);
    t0 = BenchClock::now();
    auto proof = audit::BuildLineageProof(store, target);
    p.build_ms = ElapsedS(t0) * 1e3;
    Must(proof);
    Bytes encoded = proof.value().Encode();
    p.nodes = proof.value().nodes.size();
    p.headers = proof.value().headers.size();
    p.bytes = encoded.size();
    // Decode + verify, the full light-client path on received bytes.
    t0 = BenchClock::now();
    auto decoded = audit::LineageProof::Decode(encoded);
    Must(decoded);
    audit::LineageSummary summary;
    Must(audit::VerifyLineageProof(decoded.value(), target, oracle, &summary));
    p.verify_ms = ElapsedS(t0) * 1e3;
    if (summary.record_ids.size() != p.nodes) {
      std::fprintf(stderr, "verify summary disagrees with proof\n");
      return 1;
    }
    std::printf("  proof depth %4zu: %5zu nodes, %4zu headers, %8zu bytes, "
                "build %7.2f ms, verify %7.2f ms\n",
                p.depth, p.nodes, p.headers, p.bytes, p.build_ms, p.verify_ms);
    points.push_back(p);
  }

  // -------------------------------- continuous audit vs live ingest
  SystemClock live_clock;
  ledger::Blockchain live_chain;
  prov::ProvenanceStore live_store(&live_chain, &live_clock);

  audit::ContinuousAuditorOptions audit_opts;
  audit_opts.max_blocks_per_pass = 32;
  audit_opts.pass_interval_us = 100;
  audit::ContinuousAuditor auditor(&live_chain, &live_store, audit_opts);
  auditor.Start();

  prov::IngestPipelineOptions pipe_opts;
  pipe_opts.shards = 2;
  pipe_opts.batch_size = 64;
  pipe_opts.snapshot_every_batches = 4;
  pipe_opts.publish_on_flush = true;
  double live_ingest_s = 0;
  {
    prov::IngestPipeline pipeline(&live_store, pipe_opts);
    t0 = BenchClock::now();
    for (auto& rec : workload) Must(pipeline.Submit(std::move(rec)));
    Must(pipeline.Close());
    live_ingest_s = ElapsedS(t0);
  }
  const uint64_t lag_at_close =
      live_chain.height() - auditor.audited_height();
  // Drain: keep passing until the cursor reaches the final head.
  t0 = BenchClock::now();
  while (auditor.audited_height() < live_chain.height()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double drain_s = ElapsedS(t0);
  auditor.Stop();

  const uint64_t audited_records = auditor.records_audited();
  const double auditor_total_s = live_ingest_s + drain_s;
  const double auditor_rec_s = audited_records / auditor_total_s;
  if (auditor.findings_total() != 0) {
    std::fprintf(stderr, "auditor reported findings on a clean workload\n");
    return 1;
  }
  std::printf("\n  concurrent ingest: %.0f rec/s; auditor: %.0f rec/s, "
              "%llu blocks, lag at close %llu blocks, drain %.3f s, "
              "0 findings\n",
              n / live_ingest_s, auditor_rec_s,
              static_cast<unsigned long long>(auditor.blocks_audited()),
              static_cast<unsigned long long>(lag_at_close), drain_s);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteEnvFields(f);
  std::fprintf(f,
               "  \"bench\": \"bench_audit\",\n"
               "  \"records\": %zu,\n"
               "  \"lineage_proofs\": [\n",
               n);
  for (size_t i = 0; i < points.size(); ++i) {
    const ProofPoint& p = points[i];
    std::fprintf(f,
                 "    {\"depth\": %zu, \"nodes\": %zu, \"headers\": %zu, "
                 "\"proof_bytes\": %zu, \"build_ms\": %.3f, "
                 "\"verify_ms\": %.3f}%s\n",
                 p.depth, p.nodes, p.headers, p.bytes, p.build_ms,
                 p.verify_ms, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n"
      "  \"continuous_audit\": {\n"
      "    \"ingest_records_per_sec\": %.0f,\n"
      "    \"auditor_records_per_sec\": %.0f,\n"
      "    \"blocks_audited\": %llu,\n"
      "    \"lag_blocks_at_ingest_close\": %llu,\n"
      "    \"drain_seconds\": %.4f,\n"
      "    \"findings\": %llu\n"
      "  }\n"
      "}\n",
      n / live_ingest_s, auditor_rec_s,
      static_cast<unsigned long long>(auditor.blocks_audited()),
      static_cast<unsigned long long>(lag_at_close), drain_s,
      static_cast<unsigned long long>(auditor.findings_total()));
  std::fclose(f);
  std::printf("\n  wrote %s\n", json_path.c_str());
  bench::WriteMetricsSidecar(json_path);
  return 0;
}

}  // namespace
}  // namespace provledger

int main(int argc, char** argv) {
  std::string json_path = argc > 1 ? argv[1] : "BENCH_audit.json";
  size_t n = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 20000;
  return provledger::Run(json_path, n);
}
