// Concurrent ingest + snapshot-read benchmark for the sharded pipeline:
//
//   baseline:  single-threaded AnchorBatch loop (the store's write path
//              run inline: PrepareRecord + AnchorPrepared), one block per
//              batch;
//   pipeline:  multi-producer IngestPipeline at shard counts 1/2/4/8 —
//              same batch size, same block shape, producers submitting
//              concurrently while shard workers prepare (validate +
//              serialize + hash) and one committer anchors;
//   readers:   query latency against published snapshot epochs while the
//              pipeline ingests at full speed (snapshot isolation in
//              action — readers never lock the writer);
//   parallel:  Query::Parallel fan-out vs serial on a full-scan query
//              over the final graph.
//
// Reported throughput is end-to-end drain time (submit of the first
// record until the last record is committed), not submission rate.
// hardware_threads is in the JSON: pipeline speedups are bounded by the
// cores actually available — on a single-core container the pipeline can
// only win by doing less work per record (cached digests, moved buffers),
// while the shard fan-out needs real cores to pay off.
//
// Emits BENCH_concurrent.json. Usage: bench_concurrent [json [100000]]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "prov/ingest_pipeline.h"
#include "prov/snapshot.h"
#include "prov/store.h"

namespace provledger {
namespace {

using BenchClock = std::chrono::steady_clock;

double ElapsedS(BenchClock::time_point t0) {
  return std::chrono::duration<double>(BenchClock::now() - t0).count();
}

constexpr size_t kBatchSize = 256;
constexpr size_t kSubjects = 1000;
constexpr size_t kAgents = 64;

// Same workload shape as bench_graph_scale/bench_recovery: 1k hot
// subjects, 64 agents, derivation chains.
prov::ProvenanceRecord MakeRecord(size_t i, const char* prefix) {
  prov::ProvenanceRecord rec;
  rec.record_id = std::string(prefix) + std::to_string(i);
  rec.operation = i % 3 == 0 ? "execute" : "read";
  rec.subject = "s" + std::to_string(i % kSubjects);
  rec.agent = "a" + std::to_string(i % kAgents);
  rec.timestamp = static_cast<Timestamp>(i * 16 + (i * 2654435761u) % 16);
  if (i > 0) rec.inputs.push_back("e" + std::to_string(i - 1));
  rec.outputs.push_back("e" + std::to_string(i));
  return rec;
}

struct RunResult {
  double seconds = 0;
  uint64_t blocks = 0;
};

// The pre-pipeline write path: one thread, AnchorBatch per kBatchSize
// slice.
RunResult RunBaseline(size_t n) {
  ledger::Blockchain chain;
  SystemClock clock;
  prov::ProvenanceStore store(&chain, &clock);
  auto t0 = BenchClock::now();
  std::vector<prov::ProvenanceRecord> batch;
  batch.reserve(kBatchSize);
  for (size_t i = 0; i < n; i += kBatchSize) {
    batch.clear();
    for (size_t j = i; j < std::min(i + kBatchSize, n); ++j) {
      batch.push_back(MakeRecord(j, "r"));
    }
    if (!store.AnchorBatch(batch).ok()) {
      std::fprintf(stderr, "baseline anchor failed at %zu\n", i);
      std::exit(1);
    }
  }
  RunResult result;
  result.seconds = ElapsedS(t0);
  result.blocks = chain.height();
  if (store.anchored_count() != n) {
    std::fprintf(stderr, "baseline count mismatch\n");
    std::exit(1);
  }
  return result;
}

// The same two-phase prepared write path the pipeline uses, run on ONE
// thread with no queues: isolates the pure work reduction (cached
// digests, single encode, moved buffers) from scheduling effects, so the
// threaded speedups below can be read against it on any core count.
RunResult RunPreparedSerial(size_t n) {
  ledger::Blockchain chain;
  SystemClock clock;
  prov::ProvenanceStore store(&chain, &clock);
  auto t0 = BenchClock::now();
  uint64_t nonce = 0;
  for (size_t i = 0; i < n; i += kBatchSize) {
    prov::PreparedBatch batch;
    std::vector<crypto::Digest> leaves;
    for (size_t j = i; j < std::min(i + kBatchSize, n); ++j) {
      auto prepared = store.PrepareRecord(MakeRecord(j, "r"), ++nonce);
      if (!prepared.ok()) std::exit(1);
      leaves.push_back(prepared->leaf);
      batch.records.push_back(std::move(prepared).value());
    }
    batch.merkle_root = crypto::MerkleTree::BuildFromDigests(leaves).root();
    size_t committed = 0;
    if (!store.AnchorPrepared(&batch, &committed).ok()) {
      std::fprintf(stderr, "prepared serial anchor failed at %zu\n", i);
      std::exit(1);
    }
  }
  RunResult result;
  result.seconds = ElapsedS(t0);
  result.blocks = chain.height();
  if (store.anchored_count() != n) std::exit(1);
  return result;
}

RunResult RunPipeline(size_t n, size_t shards, size_t producers,
                      size_t snapshot_every, size_t* snapshots_out) {
  ledger::Blockchain chain;
  SystemClock clock;
  prov::ProvenanceStore store(&chain, &clock);
  prov::IngestPipelineOptions options;
  options.shards = shards;
  options.batch_size = kBatchSize;
  options.snapshot_every_batches = snapshot_every;
  auto t0 = BenchClock::now();
  prov::IngestPipeline pipeline(&store, options);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<prov::ProvenanceRecord> chunk;
      chunk.reserve(kBatchSize);
      for (size_t i = p; i < n; i += producers) {
        chunk.push_back(MakeRecord(i, "r"));
        if (chunk.size() == kBatchSize) {
          if (!pipeline.SubmitBatch(std::move(chunk)).ok()) return;
          chunk.clear();
          chunk.reserve(kBatchSize);
        }
      }
      if (!chunk.empty() && !pipeline.SubmitBatch(std::move(chunk)).ok())
            return;
    });
  }
  for (auto& t : threads) t.join();
  if (!pipeline.Close().ok() || pipeline.committed() != n) {
    std::fprintf(stderr, "pipeline run failed (shards=%zu)\n", shards);
    std::exit(1);
  }
  RunResult result;
  result.seconds = ElapsedS(t0);
  result.blocks = chain.height();
  if (snapshots_out != nullptr) {
    *snapshots_out = pipeline.snapshots_published();
  }
  return result;
}

int Run(const std::string& json_path, size_t n) {
  if (n < 2000) {
    std::fprintf(stderr, "record count must be >= 2000 (got %zu)\n", n);
    return 1;
  }
  std::printf("bench_concurrent: %zu records, batch %zu, %u hardware threads\n",
              n, kBatchSize, bench::HardwareThreads());

  RunResult baseline = RunBaseline(n);
  std::printf("  baseline AnchorBatch: %.3fs (%.0f rec/s, %llu blocks)\n",
              baseline.seconds, n / baseline.seconds,
              static_cast<unsigned long long>(baseline.blocks));
  RunResult prepared_serial = RunPreparedSerial(n);
  std::printf("  prepared path (1 thread, no queues): %.3fs (%.0f rec/s, "
              "%.2fx — pure work reduction)\n",
              prepared_serial.seconds, n / prepared_serial.seconds,
              baseline.seconds / prepared_serial.seconds);

  const size_t shard_counts[] = {1, 2, 4, 8};
  RunResult pipeline_results[4];
  for (size_t k = 0; k < 4; ++k) {
    const size_t shards = shard_counts[k];
    pipeline_results[k] =
        RunPipeline(n, shards, /*producers=*/4, /*snapshot_every=*/0,
                    nullptr);
    std::printf("  pipeline %zu shard%s:    %.3fs (%.0f rec/s, %.2fx)\n",
                shards, shards == 1 ? " " : "s",
                pipeline_results[k].seconds, n / pipeline_results[k].seconds,
                baseline.seconds / pipeline_results[k].seconds);
  }

  // Query latency while the writer runs: one pipeline ingesting at full
  // speed with periodic epoch publication, two reader threads running a
  // query mix against the freshest snapshot.
  std::printf("  query-under-write-load...\n");
  ledger::Blockchain chain;
  SystemClock clock;
  prov::ProvenanceStore store(&chain, &clock);
  prov::IngestPipelineOptions options;
  options.shards = 4;
  options.batch_size = kBatchSize;
  options.snapshot_every_batches = 8;
  std::atomic<bool> stop{false};
  std::vector<double> latencies_ms;
  std::mutex latencies_mu;
  std::atomic<uint64_t> total_reads{0};
  double load_seconds = 0;
  uint64_t final_epoch = 0;
  {
    auto t0 = BenchClock::now();
    prov::IngestPipeline pipeline(&store, options);
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&, r] {
        std::vector<double> local;
        size_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          auto snapshot = store.AcquireSnapshot();
          if (snapshot == nullptr) continue;
          auto reader = snapshot->OpenReader();
          if (!reader.ok()) std::exit(1);
          auto q0 = BenchClock::now();
          prov::Query query;
          if (i % 2 == 0) {
            query.WithSubject("s" + std::to_string((i * 7 + r) % kSubjects));
          } else {
            query.WithAgent("a" + std::to_string((i * 3 + r) % kAgents))
                .Limit(32);
          }
          size_t got = reader->Execute(query).records.size();
          local.push_back(ElapsedS(q0) * 1e3);
          if (got > n) std::exit(1);  // keep the read alive in the build
          ++i;
        }
        total_reads.fetch_add(local.size(), std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(latencies_mu);
        latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      });
    }
    std::vector<std::thread> producers;
    for (size_t p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        std::vector<prov::ProvenanceRecord> chunk;
        chunk.reserve(kBatchSize);
        for (size_t i = p; i < n; i += 4) {
          chunk.push_back(MakeRecord(i, "r"));
          if (chunk.size() == kBatchSize) {
            if (!pipeline.SubmitBatch(std::move(chunk)).ok()) return;
            chunk.clear();
            chunk.reserve(kBatchSize);
          }
        }
        if (!chunk.empty() && !pipeline.SubmitBatch(std::move(chunk)).ok())
            return;
      });
    }
    for (auto& t : producers) t.join();
    if (!pipeline.Close().ok() || pipeline.committed() != n) {
      std::fprintf(stderr, "query-load pipeline run failed\n");
      return 1;
    }
    load_seconds = ElapsedS(t0);
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    auto snapshot = store.AcquireSnapshot();
    final_epoch = snapshot != nullptr ? snapshot->epoch() : 0;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto pct = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    return latencies_ms[std::min(latencies_ms.size() - 1,
                                 static_cast<size_t>(p * latencies_ms.size()))];
  };
  std::printf(
      "    %llu snapshot reads, query p50 %.3f ms / p95 %.3f ms, ingest "
      "%.0f rec/s with readers attached\n",
      static_cast<unsigned long long>(total_reads.load()), pct(0.50),
      pct(0.95), n / load_seconds);

  // Parallel query fan-out on the final (warmed, quiescent) graph.
  store.mutable_graph()->Warm();
  prov::Query scan = prov::Query().WithOperation("execute").CountOnly();
  auto MeasureQuery = [&](const prov::Query& query) {
    // Best of 3: the comparison targets steady-state scan cost.
    double best = 1e9;
    size_t count = 0;
    for (int rep = 0; rep < 3; ++rep) {
      auto q0 = BenchClock::now();
      count = store.Execute(query).count;
      best = std::min(best, ElapsedS(q0));
    }
    if (count == 0) std::exit(1);
    return best;
  };
  double serial_s = MeasureQuery(scan);
  double parallel_s = MeasureQuery(prov::Query(scan).Parallel(4));
  std::printf("  full-scan count: serial %.3f ms, parallel(4) %.3f ms "
              "(%.2fx)\n",
              serial_s * 1e3, parallel_s * 1e3, serial_s / parallel_s);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteEnvFields(f);
  std::fprintf(
      f,
      "  \"bench\": \"bench_concurrent\",\n"
      "  \"records\": %zu,\n"
      "  \"batch_size\": %zu,\n"
      "  \"baseline_anchor_batch\": {\"seconds\": %.4f, "
      "\"records_per_sec\": %.0f, \"blocks\": %llu},\n"
      "  \"prepared_serial\": {\"seconds\": %.4f, \"records_per_sec\": "
      "%.0f, \"work_reduction_vs_baseline\": %.2f},\n"
      "  \"pipeline\": [\n",
      n, kBatchSize, baseline.seconds, n / baseline.seconds,
      static_cast<unsigned long long>(baseline.blocks),
      prepared_serial.seconds, n / prepared_serial.seconds,
      baseline.seconds / prepared_serial.seconds);
  for (size_t k = 0; k < 4; ++k) {
    std::fprintf(
        f,
        "    {\"shards\": %zu, \"producers\": 4, \"seconds\": %.4f, "
        "\"records_per_sec\": %.0f, \"speedup_vs_baseline\": %.2f}%s\n",
        shard_counts[k], pipeline_results[k].seconds,
        n / pipeline_results[k].seconds,
        baseline.seconds / pipeline_results[k].seconds, k + 1 < 4 ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n"
      "  \"query_under_write_load\": {\n"
      "    \"snapshot_every_batches\": %zu,\n"
      "    \"reader_threads\": 2,\n"
      "    \"snapshot_reads\": %llu,\n"
      "    \"query_p50_ms\": %.4f,\n"
      "    \"query_p95_ms\": %.4f,\n"
      "    \"epochs_published\": %llu,\n"
      "    \"ingest_records_per_sec_with_readers\": %.0f\n"
      "  },\n"
      "  \"parallel_query\": {\"serial_ms\": %.4f, \"parallel4_ms\": %.4f, "
      "\"speedup\": %.2f}\n"
      "}\n",
      options.snapshot_every_batches,
      static_cast<unsigned long long>(total_reads.load()), pct(0.50),
      pct(0.95), static_cast<unsigned long long>(final_epoch),
      n / load_seconds, serial_s * 1e3, parallel_s * 1e3,
      serial_s / parallel_s);
  std::fclose(f);
  std::printf("\n  wrote %s\n", json_path.c_str());
  bench::WriteMetricsSidecar(json_path);
  return 0;
}

}  // namespace
}  // namespace provledger

int main(int argc, char** argv) {
  std::string json_path = argc > 1 ? argv[1] : "BENCH_concurrent.json";
  size_t n = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 100000;
  return provledger::Run(json_path, n);
}
