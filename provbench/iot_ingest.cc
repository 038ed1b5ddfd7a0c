// iot_ingest: one producer thread feeds tiny, self-similar cold-chain
// sensor readings (the supply-chain Table-1 fields plus one reading, as in
// bench_iot_ingest) into an IngestPipeline (2 shards, batch 256) in a
// closed loop of kInFlight outstanding chunks, on a chain whose ChainLog
// stores columnar bodies and is synced once per window, after Close. No
// readers, no epochs, no replication: the write path at capacity.
//
// A repetition ingests a fixed number of records, so the store it ends
// with, and with it the cost of every later append and read-back, does
// not depend on how fast the machine happened to be; the pass repeats it
// until --seconds of window have been measured.
//
// Why one sync and not one per block: with an fsync per block, throughput
// on a shared virtual disk followed the disk, not the program (32k-54k
// records/s between consecutive 3.6 s repetitions of one run), so no
// change to the program could be told from noise.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/clock.h"
#include "domains/supplychain/supply_chain.h"
#include "ledger/chain_log.h"
#include "prov/ingest_pipeline.h"
#include "workloads.h"

namespace provbench {
namespace {

namespace obs = provledger::obs;
namespace prov = provledger::prov;
namespace ledger = provledger::ledger;
using provledger::Status;
using provledger::Timestamp;

constexpr size_t kProducts = 1000;
constexpr size_t kSensors = 16;
constexpr size_t kChunk = 1024;       // records per SubmitBatch
constexpr size_t kInFlight = 8;       // chunks submitted but not committed
constexpr size_t kWindowChunks = 96;  // chunks per repetition's window
constexpr size_t kReadWindow = 64;    // readings per read-back query
constexpr size_t kReadProducts = 256;  // distinct products read per round
constexpr int kTimedRounds = 4;        // after one untimed round
constexpr int64_t kBaseTs = 1'700'000'000'000'000LL;
constexpr int64_t kTsStep = 250;

// The seeded reading stream, plus what the checks need to know about it:
// readings per product and each product's last kReadWindow timestamps.
class SensorStream {
 public:
  explicit SensorStream(uint64_t seed)
      : rng_(seed), counts_(kProducts, 0), recent_(kProducts * kReadWindow) {}

  ProvenanceRecord Next() {
    namespace fields = prov::fields;
    const uint64_t i = next_++;
    const size_t p = static_cast<size_t>(rng_.NextBelow(kProducts));
    const size_t sensor = static_cast<size_t>(rng_.NextBelow(kSensors));
    const uint64_t reading = 2 + rng_.NextBelow(6);
    const std::string product = "pkg-" + std::to_string(p);
    ProvenanceRecord rec;
    rec.record_id = "sense-" + std::to_string(i);
    rec.domain = prov::Domain::kSupplyChain;
    rec.operation = "sensor-reading";
    rec.subject = product;
    rec.agent = "sensor-" + std::to_string(sensor);
    rec.timestamp = kBaseTs + static_cast<int64_t>(i) * kTsStep;
    rec.fields[fields::kProductId] = product;
    rec.fields[fields::kBatchNumber] = "lot-7";
    rec.fields[fields::kMfgExpiry] = "2027-01";
    rec.fields[fields::kTravelTrace] = "factory>dc>truck-12";
    rec.fields[fields::kProductType] = "vaccine";
    rec.fields[fields::kManufacturerId] = "mfg-3";
    rec.fields[fields::kQuickAccess] = "qr://pkg/" + product;
    rec.fields["reading_c"] = std::to_string(reading);
    recent_[p * kReadWindow + counts_[p] % kReadWindow] = rec.timestamp;
    ++counts_[p];
    digest_.Add(p);
    digest_.Add(sensor);
    digest_.Add(reading);
    return rec;
  }

  std::vector<ProvenanceRecord> Chunk(size_t n) {
    std::vector<ProvenanceRecord> chunk;
    chunk.reserve(n);
    for (size_t k = 0; k < n; ++k) chunk.push_back(Next());
    return chunk;
  }

  uint64_t generated() const { return next_; }
  uint64_t count(size_t p) const { return counts_[p]; }
  // Timestamp of the oldest of product p's last kReadWindow readings.
  Timestamp WindowStart(size_t p) const {
    if (counts_[p] < kReadWindow) return 0;
    return recent_[p * kReadWindow + counts_[p] % kReadWindow];
  }
  const InputDigest& digest() const { return digest_; }

 private:
  Rng rng_;
  uint64_t next_ = 0;
  std::vector<uint64_t> counts_;
  std::vector<Timestamp> recent_;
  InputDigest digest_;
};

// One node's stack. Members are destroyed in reverse order: the pipeline
// drains before the store, the store before the log and chain.
struct Stack {
  obs::Registry registry;
  provledger::SystemClock clock;
  std::string log_path;
  std::unique_ptr<ledger::Blockchain> chain;
  std::unique_ptr<ledger::ChainLog> log;
  std::unique_ptr<prov::ProvenanceStore> store;
  std::unique_ptr<prov::IngestPipeline> pipeline;
  std::unique_ptr<SensorStream> stream;
};

ledger::ChainLogOptions LogOptions(obs::Registry* registry) {
  ledger::ChainLogOptions options;  // columnar_bodies: on (the default)
  options.sync_writes = false;      // one Sync per window; see file comment
  options.registry = registry;
  return options;
}

// Builds the starting state: an empty chain with its log attached, the
// pipeline running, and `warmup` readings ingested and flushed so caches
// and lazy set-up are past their first use.
Status Setup(const Args& args, Tracer* tracer, size_t rep, size_t warmup,
             std::unique_ptr<Stack>* out) {
  auto s = std::make_unique<Stack>();
  s->log_path = args.work_dir + "/iot-" + std::to_string(args.seed) + "-" +
                std::to_string(rep) + ".chainlog";
  std::remove(s->log_path.c_str());
  ledger::ChainOptions chain_options;
  chain_options.registry = &s->registry;
  s->chain = std::make_unique<ledger::Blockchain>(chain_options);
  auto log = ledger::ChainLog::Open(s->log_path, LogOptions(&s->registry));
  if (!log.ok()) return log.status();
  s->log = std::move(log).value();
  if (tracer == nullptr) {
    PROVLEDGER_RETURN_NOT_OK(s->log->AttachTo(s->chain.get()));
  } else {
    // The same as AttachTo on a fresh log, with a span around each append.
    ledger::ChainLog* log_ptr = s->log.get();
    s->chain->SetBlockSink([log_ptr, tracer](const ledger::Block& block) {
      Tracer::Scope span(tracer, "ledger.chain_log", "ledger.chain_log.Append",
                         block.header.height);
      return log_ptr->Append(block);
    });
  }
  prov::ProvenanceStoreOptions store_options;
  store_options.registry = &s->registry;
  s->store = std::make_unique<prov::ProvenanceStore>(
      s->chain.get(), &s->clock, store_options);
  prov::IngestPipelineOptions pipe_options;
  pipe_options.shards = 2;
  pipe_options.batch_size = 256;
  pipe_options.registry = &s->registry;
  s->pipeline =
      std::make_unique<prov::IngestPipeline>(s->store.get(), pipe_options);
  s->stream = std::make_unique<SensorStream>(RepSeed(args.seed, rep));
  for (size_t done = 0; done < warmup; done += kChunk) {
    PROVLEDGER_RETURN_NOT_OK(
        s->pipeline->SubmitBatch(s->stream->Chunk(kChunk)));
  }
  PROVLEDGER_RETURN_NOT_OK(s->pipeline->Flush());
  *out = std::move(s);
  return Status::OK();
}

}  // namespace

PassResult RunIotIngest(const Args& args, double /*window_s*/, size_t rep,
                        size_t /*reps*/, Tracer* tracer) {
  PassResult r;
  const size_t warmup = args.smoke ? 4 * kChunk : 16 * kChunk;
  const size_t window_chunks = args.smoke ? 8 : kWindowChunks;
  ReleaseFreedMemory();
  ResetPeakRss();
  const double setup_start = Now();
  std::unique_ptr<Stack> s;
  Status st = Setup(args, tracer, rep, warmup, &s);
  const double setup_s = Now() - setup_start;
  if (!st.ok()) {
    r.Check(false, "setup: " + st.ToString());
    return r;
  }

  obs::Registry* reg = &s->registry;
  obs::Registry* global = obs::Registry::Default();
  const obs::Labels prepare = {{"stage", "prepare"}};
  const obs::Labels commit = {{"stage", "commit"}};
  const uint64_t committed0 = s->pipeline->committed();
  const uint64_t blocks0 = s->chain->height();
  const double prepare0 = HistSum(reg, "ingest_stage_seconds", prepare);
  const double commit0 = HistSum(reg, "ingest_stage_seconds", commit);
  const double append0 = HistSum(reg, "chain_append_seconds");
  const uint64_t append_n0 = HistCount(reg, "chain_append_seconds");
  const double validate0 = HistSum(reg, "chain_validate_seconds");
  const uint64_t validate_n0 = HistCount(reg, "chain_validate_seconds");
  const uint64_t roots0 = CounterValue(global, "merkle_root_computes_total");

  // Commit acks: the producer samples the committed count while it waits;
  // the i-th record submitted counts as acknowledged once i records have
  // committed (per-subject order is kept and chunks spread over both
  // shards, so the count is a close proxy for the record).
  std::vector<double> submitted_at(window_chunks, 0);
  std::vector<std::pair<double, uint64_t>> committed_at;  // (time, count)
  prov::IngestPipeline* pipeline = s->pipeline.get();
  auto sample_committed = [&] {
    const uint64_t done = pipeline->committed() - committed0;
    committed_at.emplace_back(Now(), done);
    return done;
  };

  const double t0 = Now();
  double generate_s = 0;
  size_t chunks = 0;
  Status submit_status;
  while (chunks < window_chunks) {
    // Closed loop: at most kInFlight chunks outstanding (well inside the
    // pipeline's queues, so their depth is set here, not by backpressure).
    while (chunks >= kInFlight &&
           sample_committed() < (chunks - kInFlight + 1) * kChunk) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double tg = Now();
    std::vector<ProvenanceRecord> chunk = s->stream->Chunk(kChunk);
    generate_s += Now() - tg;
    submitted_at[chunks] = Now();
    {
      Tracer::Scope span(tracer, "prov.ingest_pipeline",
                         "prov.ingest_pipeline.SubmitBatch", chunks);
      submit_status = pipeline->SubmitBatch(std::move(chunk));
    }
    if (!submit_status.ok()) break;
    ++chunks;
  }
  // In flight when the last chunk was submitted.
  const uint64_t in_flight = pipeline->submitted() - pipeline->committed();
  Status closed;
  {
    Tracer::Scope span(tracer, "prov.ingest_pipeline",
                       "prov.ingest_pipeline.Close");
    closed = pipeline->Close();
  }
  const double t_close = Now();
  sample_committed();  // everything has committed
  const double peak_rss_mb = PeakRssMb();
  const double sync_start = Now();
  Status synced;
  {
    Tracer::Scope span(tracer, "ledger.chain_log", "ledger.chain_log.Sync");
    synced = s->log->Sync();
  }
  const double sync_s = Now() - sync_start;
  // Registry deltas of the window, read before the output checks below
  // (the replay recomputes every block's Merkle root).
  const double prepare_s = HistSum(reg, "ingest_stage_seconds", prepare) - prepare0;
  const double commit_s = HistSum(reg, "ingest_stage_seconds", commit) - commit0;
  const double append_s = HistSum(reg, "chain_append_seconds") - append0;
  const double validate_s = HistSum(reg, "chain_validate_seconds") - validate0;
  const double append_n =
      static_cast<double>(HistCount(reg, "chain_append_seconds") - append_n0);
  const double validate_n = static_cast<double>(
      HistCount(reg, "chain_validate_seconds") - validate_n0);
  const double roots = static_cast<double>(
      CounterValue(global, "merkle_root_computes_total") - roots0);
  const double wall = t_close - t0;
  r.window_s = wall;

  r.Check(submit_status.ok(), "SubmitBatch: " + submit_status.ToString());
  r.Check(closed.ok(), "Close: " + closed.ToString());
  const uint64_t committed = pipeline->committed();
  r.Check(pipeline->failed() == 0 && committed == pipeline->submitted(),
          "committed " + std::to_string(committed) + " of " +
              std::to_string(pipeline->submitted()) + " submitted");
  const uint64_t window_records = committed - committed0;
  const uint64_t blocks = s->chain->height() - blocks0;

  // Ack latency per record: the records a poll saw newly committed waited
  // from their chunk's submission to that poll.
  std::vector<Weighted> write_ms;  // (latency, records)
  uint64_t acked = 0;
  size_t chunk = 0;
  for (const auto& [t, done] : committed_at) {
    while (acked < done && chunk < chunks) {
      const uint64_t upto = std::min<uint64_t>(done, (chunk + 1) * kChunk);
      write_ms.emplace_back((t - submitted_at[chunk]) * 1e3, upto - acked);
      acked = upto;
      if (acked == (chunk + 1) * kChunk) ++chunk;
    }
  }
  r.Check(acked == chunks * kChunk, "a submitted record was never acked");

  const double checks_start = Now();
  // Durability: the synced log reopens and (in the first repetition, as
  // replay re-validates every block) replays into a fresh chain.
  r.Check(synced.ok(), "Sync: " + synced.ToString());
  const uint64_t log_bytes = s->log->size_bytes();
  const size_t log_blocks = s->log->block_count();
  s->chain->SetBlockSink(nullptr);
  s->log.reset();
  if (rep == 0) {
    obs::Registry replay_registry;
    ledger::ChainOptions chain_options;
    chain_options.registry = &replay_registry;
    ledger::Blockchain replayed(chain_options);
    auto reopened =
        ledger::ChainLog::Open(s->log_path, LogOptions(&replay_registry));
    Status replay = reopened.ok() ? Status::OK() : reopened.status();
    if (replay.ok()) {
      Tracer::Scope span(tracer, "ledger.chain_log", "ledger.chain_log.Replay");
      replay = (*reopened)->Replay(&replayed);
    }
    r.Check(replay.ok(), "log reopen/replay: " + replay.ToString());
    r.Check(replayed.head_hash() == s->chain->head_hash() &&
                replayed.height() == s->chain->height(),
            "replayed log head differs from the live chain head");
  } else {
    auto reopened =
        ledger::ChainLog::Open(s->log_path, LogOptions(&s->registry));
    r.Check(reopened.ok() && (*reopened)->block_count() == log_blocks &&
                (*reopened)->size_bytes() == log_bytes,
            "reopened log does not hold every block");
  }
  std::remove(s->log_path.c_str());
  const double replay_s = Now() - checks_start;

  // Read-back through the supply-chain query path: exact full histories
  // for a few products, then timed reads of the last kReadWindow readings
  // of kReadProducts distinct products.
  provledger::supplychain::SupplyChain sc(s->store.get(), &s->clock);
  Rng pick(RepSeed(args.seed, rep) ^ 0x5EED5EEDULL);
  for (size_t k = 0; k < 16; ++k) {
    const size_t p = static_cast<size_t>(pick.NextBelow(kProducts));
    const size_t got = sc.SensorHistory("pkg-" + std::to_string(p), 0).size();
    r.Check(got == s->stream->count(p),
            "SensorHistory(pkg-" + std::to_string(p) + ") returned " +
                std::to_string(got) + " of " +
                std::to_string(s->stream->count(p)));
  }
  // The timed rounds follow an identical untimed one, so they read warm
  // caches rather than whatever the ingest left behind.
  const size_t reads = args.smoke ? 64 : kReadProducts;
  std::vector<size_t> sample(kProducts);
  for (size_t p = 0; p < kProducts; ++p) sample[p] = p;
  for (size_t k = 0; k < reads; ++k) {
    std::swap(sample[k], sample[k + pick.NextBelow(kProducts - k)]);
  }
  sample.resize(reads);
  std::vector<double> read_ms;
  uint64_t read_failures = 0;
  for (int round = 0; round <= kTimedRounds; ++round) {
    for (size_t p : sample) {
      const std::string product = "pkg-" + std::to_string(p);
      const Timestamp from = s->stream->WindowStart(p);
      const double t = Now();
      const size_t got = sc.SensorHistory(product, from).size();
      if (round > 0) read_ms.push_back((Now() - t) * 1e3);
      const uint64_t want =
          std::min<uint64_t>(kReadWindow, s->stream->count(p));
      if (got != want) ++read_failures;
    }
  }
  r.Check(read_failures == 0,
          std::to_string(read_failures) + " read-backs returned wrong counts");

  const double reads_s = Now() - checks_start - replay_s;
  r.attempted = s->stream->generated() + (kTimedRounds + 1) * reads;
  r.failed = (s->stream->generated() - committed) + read_failures;

  r.E2e("setup_s", setup_s, "s");
  r.E2e("peak_rss_mb", peak_rss_mb, "MB");
  r.E2eRate("rec_per_s", "rec/s", static_cast<double>(window_records), wall);
  r.E2e("bytes_per_rec",
        static_cast<double>(log_bytes) / static_cast<double>(committed), "B");
  // The rate and the write quantiles pool all repetitions: a p99 of one
  // repetition rests on a few committer stalls.
  r.E2ePooled("write_p50_ms", 0.5, "ms", write_ms);
  r.E2ePooled("write_p99_ms", 0.99, "ms", write_ms);
  // Read quantiles are per repetition (1024 timed reads, so 10 lie beyond
  // the p99), and the pass takes their median, so one repetition's slow
  // read phase (about 0.2 s) does not set the run's numbers.
  r.E2e("read_p50_ms", Quantile(read_ms, 0.5), "ms");
  r.E2e("read_p99_ms", Quantile(read_ms, 0.99), "ms");

  const double recs = static_cast<double>(window_records);
  r.Layer("prov.ingest_pipeline.prepare_us_per_rec", prepare_s / recs * 1e6,
          "us/rec");
  r.Layer("prov.ingest_pipeline.commit_us_per_rec", commit_s / recs * 1e6,
          "us/rec");
  r.Layer("prov.ingest_pipeline.committer_busy_frac", commit_s / wall, "frac");
  r.Layer("ledger.chain.append_us_per_block", append_s / append_n * 1e6,
          "us/block");
  r.Layer("ledger.chain.validate_us_per_block", validate_s / validate_n * 1e6,
          "us/block");
  r.Layer("crypto.merkle_root_computes_per_block",
          roots / static_cast<double>(blocks), "count");
  r.Layer("ledger.chain_log.bytes_per_block",
          static_cast<double>(log_bytes) / static_cast<double>(log_blocks), "B");
  r.Layer("generator.busy_frac", generate_s / wall, "frac");
  r.Layer("generator.backlog_end", static_cast<double>(in_flight), "count");
  if (tracer != nullptr) {
    size_t appends = 0;
    const double append_log_s =
        tracer->Total("ledger.chain_log.Append", setup_start, &appends);
    r.Layer("prov.ingest_pipeline.submit_wait_s",
            tracer->Total("prov.ingest_pipeline.SubmitBatch", setup_start),
            "s");
    r.Layer("ledger.chain_log.append_us_per_block",
            append_log_s / static_cast<double>(appends) * 1e6, "us/block");
    r.Layer("ledger.chain_log.sync_ms",
            tracer->Total("ledger.chain_log.Sync", setup_start) * 1e3, "ms");
  }
  // The committer is the serial stage; the chain-append timer (which
  // holds the log append) is the finer cover inside it.
  r.serial_s = commit_s;
  r.serial_covered_s = append_s;

  char line[512];
  std::snprintf(line, sizeof(line),
                "input: seed=%llu rep_seed=%llu digest=%s records=%llu "
                "(warm-up %zu)",
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(RepSeed(args.seed, rep)),
                s->stream->digest().Hex().c_str(),
                static_cast<unsigned long long>(s->stream->generated()), warmup);
  r.Info(line);
  std::snprintf(line, sizeof(line),
                "ingest_rec_per_s=%.0f disk_bytes_per_rec=%.2f blocks=%llu "
                "commit_ack_p50_ms=%.2f p99_ms=%.2f read64_p50_ms=%.3f "
                "p99_ms=%.3f setup_s=%.3f in_flight_at_last_submit=%llu "
                "close_s=%.3f sync_s=%.3f replay_s=%.3f reads_s=%.3f",
                recs / wall,
                static_cast<double>(log_bytes) / static_cast<double>(committed),
                static_cast<unsigned long long>(blocks),
                WeightedQuantile(write_ms, 0.5),
                WeightedQuantile(write_ms, 0.99),
                Quantile(read_ms, 0.5), Quantile(read_ms, 0.99),
                setup_s,
                static_cast<unsigned long long>(in_flight),
                t_close - submitted_at[chunks > 0 ? chunks - 1 : 0],
                sync_s, replay_s, reads_s);
  r.Info(line);
  return r;
}

}  // namespace provbench
