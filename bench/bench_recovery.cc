// Recovery benchmark for the durable storage subsystem: ingests a
// 100k-record workload into a ChainLog-backed chain, then compares the
// restart strategies —
//
//   cold:     reload the chain from the block log, then a full
//             RebuildFromChain() (decode + validate + re-hash + re-index
//             every anchored record);
//   clean:    LoadSnapshot() of the shutdown snapshot — bulk-deserialize
//             the dense-id graph's row groups and the txid column,
//             derived structures hydrating lazily on first use; zero
//             chain tail to replay;
//   crash:    LoadSnapshot() of an earlier (99%) snapshot plus replay of
//             the chain tail past its height — the path taken when the
//             process died after its last periodic snapshot.
//
// Also reports Merkle-root computations per appended block on the ingest
// path (the self-produce fast path must compute exactly one root per
// block), the post-restore first-query hydration costs, and the
// AuditAll() sweep.
//
// Emits BENCH_recovery.json. Usage: bench_recovery [json [100000]]

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_env.h"
#include "ledger/chain_log.h"
#include "prov/store.h"

namespace provledger {
namespace {

using BenchClock = std::chrono::steady_clock;

double ElapsedS(BenchClock::time_point t0) {
  return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

// Same workload shape as bench_graph_scale: layered DAG with long
// derivation chains, 1k hot subjects, 64 agents.
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

int Run(const std::string& json_path, size_t n) {
  if (n < 1000) {
    std::fprintf(stderr, "record count must be >= 1000 (got %zu)\n", n);
    return 1;
  }
  std::printf("== Durable restart: snapshot restore vs RebuildFromChain ==\n");
  std::printf("   records: %zu\n\n", n);

  std::string dir = "/tmp/provledger_bench_recovery_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string chain_log_path = dir + "/chain.log";
  const std::string crash_snapshot = dir + "/crash.snap";
  const std::string clean_snapshot = dir + "/shutdown.snap";

  std::vector<prov::ProvenanceRecord> workload = MakeWorkload(n);
  const size_t crash_snapshot_at = n - n / 100;  // tail = last 1% of records

  // ------------------------------------------------------------------ ingest
  SimClock clock(1'000'000);
  ledger::Blockchain chain;
  auto log = ledger::ChainLog::Open(chain_log_path, {/*sync_writes=*/false});
  if (!log.ok()) {
    std::fprintf(stderr, "ChainLog::Open: %s\n",
                 log.status().ToString().c_str());
    return 1;
  }
  if (!(*log)->AttachTo(&chain).ok()) return 1;

  prov::ProvenanceStore store(&chain, &clock);
  // Records go in as blocks of 512; the crash snapshot cuts one short.
  constexpr size_t kBlockRecords = 512;
  std::vector<prov::ProvenanceRecord> batch;
  auto anchor_batch = [&]() {
    Status s = store.AnchorBatch(batch);
    batch.clear();
    return s;
  };

  obs::Counter* roots = obs::Registry::Default()->GetCounter(
      "merkle_root_computes_total", "");
  const uint64_t roots_before = roots->value();
  double ingest_s = 0, crash_save_s = 0, clean_save_s = 0;
  auto t0 = BenchClock::now();
  for (size_t i = 0; i < n; ++i) {
    if (i == crash_snapshot_at) {
      // The periodic snapshot a long-lived node would take mid-flight.
      ingest_s += ElapsedS(t0);
      if (!anchor_batch().ok()) return 1;  // snapshot covers anchored state
      auto ts = BenchClock::now();
      if (!store.SaveSnapshot(crash_snapshot).ok()) {
        std::fprintf(stderr, "SaveSnapshot failed\n");
        return 1;
      }
      crash_save_s = ElapsedS(ts);
      t0 = BenchClock::now();
    }
    batch.push_back(workload[i]);
    if (batch.size() == kBlockRecords && !anchor_batch().ok()) {
      std::fprintf(stderr, "anchor failed at %zu\n", i);
      return 1;
    }
  }
  if (!anchor_batch().ok() || !(*log)->Sync().ok()) return 1;
  ingest_s += ElapsedS(t0);
  // The shutdown snapshot of a clean exit: taken at the final height.
  t0 = BenchClock::now();
  if (!store.SaveSnapshot(clean_snapshot).ok()) return 1;
  clean_save_s = ElapsedS(t0);

  const uint64_t blocks = chain.height();
  const double roots_per_block =
      static_cast<double>(roots->value() - roots_before) /
      static_cast<double>(blocks);
  const uint64_t tail_blocks =
      blocks - (crash_snapshot_at + kBlockRecords - 1) / kBlockRecords;
  std::printf("  ingest: %.0f rec/s over %llu blocks, %.2f merkle roots/block"
              " (fixed from 2.00)\n",
              n / ingest_s, static_cast<unsigned long long>(blocks),
              roots_per_block);
  std::printf("  chain log: %.1f MB; snapshots: crash %.3f s, clean %.3f s\n",
              (*log)->size_bytes() / 1e6, crash_save_s, clean_save_s);

  // ----------------------------------------------------------- chain reload
  ledger::Blockchain cold_chain;
  auto reopened = ledger::ChainLog::Open(chain_log_path,
                                         {/*sync_writes=*/false});
  if (!reopened.ok()) return 1;
  t0 = BenchClock::now();
  if (!(*reopened)->Replay(&cold_chain).ok()) {
    std::fprintf(stderr, "chain replay failed\n");
    return 1;
  }
  double chain_reload_s = ElapsedS(t0);
  std::printf("  chain reload (validated): %.3f s (%.0f blocks/s)\n",
              chain_reload_s, blocks / chain_reload_s);

  // ------------------------------------------------------------ cold rebuild
  prov::ProvenanceStore rebuilt(&cold_chain, &clock);
  t0 = BenchClock::now();
  if (!rebuilt.RebuildFromChain().ok()) {
    std::fprintf(stderr, "RebuildFromChain failed\n");
    return 1;
  }
  double rebuild_s = ElapsedS(t0);

  // --------------------------------------------- snapshot restore (clean)
  prov::ProvenanceStore restored(&cold_chain, &clock);
  t0 = BenchClock::now();
  if (!restored.LoadSnapshot(clean_snapshot).ok()) {
    std::fprintf(stderr, "LoadSnapshot (clean) failed\n");
    return 1;
  }
  double clean_restore_s = ElapsedS(t0);
  // First queries pay the deferred hydration, exactly once — report it.
  t0 = BenchClock::now();
  size_t first_hits = restored.SubjectHistory("s1").size();
  double first_subject_s = ElapsedS(t0);
  t0 = BenchClock::now();
  size_t lineage_n = restored.Lineage("e" + std::to_string(n - 1)).size();
  double first_lineage_s = ElapsedS(t0);
  t0 = BenchClock::now();
  size_t hits = restored.SubjectHistory("s2").size();
  double warm_subject_s = ElapsedS(t0);
  if (first_hits == 0 || lineage_n == 0 || hits == 0) return 1;

  // --------------------------------------- snapshot restore (crash + tail)
  prov::ProvenanceStore crash_restored(&cold_chain, &clock);
  t0 = BenchClock::now();
  if (!crash_restored.LoadSnapshot(crash_snapshot).ok()) {
    std::fprintf(stderr, "LoadSnapshot (crash) failed\n");
    return 1;
  }
  double crash_restore_s = ElapsedS(t0);

  if (rebuilt.anchored_count() != n || restored.anchored_count() != n ||
      crash_restored.anchored_count() != n) {
    std::fprintf(stderr, "restore mismatch: rebuild %zu, clean %zu, crash %zu\n",
                 rebuilt.anchored_count(), restored.anchored_count(),
                 crash_restored.anchored_count());
    return 1;
  }
  double speedup = rebuild_s / clean_restore_s;
  double crash_speedup = rebuild_s / crash_restore_s;
  std::printf("  RebuildFromChain:        %8.3f s\n", rebuild_s);
  std::printf("  snapshot restore (clean):%8.3f s  (%.1fx)\n",
              clean_restore_s, speedup);
  std::printf("  snapshot + %4llu-rec tail:%7.3f s  (%.1fx)\n",
              static_cast<unsigned long long>(n / 100), crash_restore_s,
              crash_speedup);
  std::printf("  first-query hydration: subject %.4f s, lineage %.4f s, "
              "then %.6f s warm\n",
              first_subject_s, first_lineage_s, warm_subject_s);

  // ------------------------------------------------------------------ audit
  t0 = BenchClock::now();
  auto audit = restored.AuditAll();
  double audit_s = ElapsedS(t0);
  if (!audit.ok() || audit.value() != n) {
    std::fprintf(stderr, "post-restore audit failed\n");
    return 1;
  }
  std::printf("  AuditAll after restore: %zu records verified in %.3f s\n",
              audit.value(), audit_s);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteEnvFields(f);
  std::fprintf(
      f,
      "  \"bench\": \"bench_recovery\",\n"
      "  \"records\": %zu,\n"
      "  \"ingest\": {\n"
      "    \"records_per_sec\": %.0f,\n"
      "    \"blocks\": %llu,\n"
      "    \"merkle_root_computes_per_block\": %.2f\n"
      "  },\n"
      "  \"chain_reload\": {\"seconds\": %.4f, \"blocks_per_sec\": %.0f},\n"
      "  \"restore\": {\n"
      "    \"rebuild_from_chain_s\": %.4f,\n"
      "    \"snapshot_restore_s\": %.4f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"crash_restore_s\": %.4f,\n"
      "    \"crash_tail_blocks\": %llu,\n"
      "    \"crash_speedup\": %.2f,\n"
      "    \"snapshot_save_s\": %.4f,\n"
      "    \"first_query_hydration_s\": %.4f,\n"
      "    \"warm_query_s\": %.6f\n"
      "  },\n"
      "  \"audit\": {\"records_verified\": %zu, \"seconds\": %.4f}\n"
      "}\n",
      n, n / ingest_s, static_cast<unsigned long long>(blocks),
      roots_per_block, chain_reload_s, blocks / chain_reload_s, rebuild_s,
      clean_restore_s, speedup, crash_restore_s,
      static_cast<unsigned long long>(tail_blocks), crash_speedup,
      clean_save_s, first_subject_s, warm_subject_s, audit.value(), audit_s);
  std::fclose(f);
  std::printf("\n  wrote %s\n", json_path.c_str());
  bench::WriteMetricsSidecar(json_path);

  ::unlink(chain_log_path.c_str());
  ::unlink(crash_snapshot.c_str());
  ::unlink(clean_snapshot.c_str());
  ::rmdir(dir.c_str());
  return 0;
}

}  // namespace
}  // namespace provledger

int main(int argc, char** argv) {
  std::string json_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  size_t n = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 100000;
  return provledger::Run(json_path, n);
}
