// Shared pieces of the repository benchmark: command-line arguments, the
// result every workload fills in, sample percentiles, registry reads, the
// in-memory span tracer of the traced mode, seeded input generators and the
// input-stream digest.
//
// Thread safety: Tracer::Scope may be opened from any thread (each thread
// appends to its own buffer); everything else is single-owner.

#ifndef PROVBENCH_BENCH_H_
#define PROVBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "prov/record.h"

namespace provbench {

using provledger::Rng;
using provledger::prov::ProvenanceRecord;

/// Seconds on the steady clock since the first call in this process.
double Now();
/// Sleep until Now() reaches `t` (returns at once when it already has).
void SleepUntil(double t);
/// SleepUntil, but spin through the last 200 us, so an open-loop client
/// starts on time instead of whenever the scheduler wakes it.
void SleepUntilPrecise(double t);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small sizes for the smoke test: every phase runs, in seconds.
  bool smoke = false;
  /// Directory for files the workloads write (chain logs, span dumps).
  std::string work_dir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A sample value and how many operations it stands for.
using Weighted = std::pair<double, uint64_t>;

/// An end-to-end quantile the pass takes over the samples of all its
/// repetitions together, not as the median of per-repetition quantiles.
struct PooledQuantile {
  std::string name;
  double q = 0.5;
  std::string unit;
  std::vector<Weighted> sample;
};

/// An end-to-end rate the pass takes as the sum of its repetitions' counts
/// over the sum of their seconds, so every measured second weighs the same.
struct PooledRate {
  std::string name;
  std::string unit;
  double count = 0;
  double seconds = 0;
};

/// What one pass of a workload measured and checked.
struct PassResult {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The eight end-to-end metrics, in BENCHMARK.json order.
  std::vector<Metric> e2e;
  /// End-to-end metrics reported as pooled quantiles instead.
  std::vector<PooledQuantile> pooled;
  /// End-to-end metrics reported as pooled rates instead.
  std::vector<PooledRate> rates;
  /// Seconds of measured window in this repetition.
  double window_s = 0;
  /// Per-layer metrics this workload exercises (the rest print as 0).
  std::vector<Metric> layers;
  /// Serial-stage time, and the part of it finer timers or spans cover.
  double serial_s = 0;
  double serial_covered_s = 0;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> info;

  void Check(bool ok, const std::string& what);
  void E2e(const std::string& name, double value, const std::string& unit);
  void E2ePooled(const std::string& name, double q, const std::string& unit,
                 const std::vector<double>& sample);
  void E2ePooled(const std::string& name, double q, const std::string& unit,
                 std::vector<Weighted> sample);
  void E2eRate(const std::string& name, const std::string& unit, double count,
               double seconds);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& line) { info.push_back(line); }
};

/// q-quantile (0..1) of `v` by nearest rank; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
/// The same over values given with weights.
double WeightedQuantile(std::vector<Weighted> v, double q);
double Median(std::vector<double> v);

/// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb();
/// Reset the kernel's peak-RSS mark so PeakRssMb() covers only what
/// follows (best effort: a kernel without clear_refs keeps the old peak).
void ResetPeakRss();

/// Hand freed heap pages back to the kernel, so a repetition's peak RSS
/// does not start from the previous one's leftovers.
void ReleaseFreedMemory();

/// Input seed of repetition `rep` of a run with seed `seed`: each
/// repetition sees different (but reproducible) data.
uint64_t RepSeed(uint64_t seed, size_t rep);

/// \name Registry reads (cells are find-or-create, so reading a metric a
/// layer never registered yields 0).
/// @{
double HistSum(provledger::obs::Registry* r, const std::string& name,
               const provledger::obs::Labels& labels = {});
uint64_t HistCount(provledger::obs::Registry* r, const std::string& name,
                   const provledger::obs::Labels& labels = {});
uint64_t CounterValue(provledger::obs::Registry* r, const std::string& name,
                      const provledger::obs::Labels& labels = {});
/// @}

struct ThreadBuf;

/// \brief In-memory span recorder of the traced mode: name, layer, start,
/// end, parent span and request id, kept per thread and written out as
/// Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    double start;
    double end;
    int64_t parent;  // index into the same thread's spans, -1 = root
    uint64_t request;
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. A null tracer makes it a no-op (the untraced run).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name,
          uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuf* buf_ = nullptr;
    size_t index_ = 0;
  };

  /// The readers below must run after every thread that opened spans has
  /// finished with them (joined, or past its last span).
  /// Sum of the durations (seconds) of spans named `name` that started at
  /// or after `since`, and their count.
  double Total(const char* name, double since, size_t* count = nullptr) const;
  /// Self time by layer: each span's duration minus its children's.
  double SelfSeconds(const char* layer) const;
  size_t span_count() const;
  /// Write every span as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  ThreadBuf* Local();

  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
};

/// Running digest of a generated input stream (FNV-1a over the strings
/// each input is built from), so two runs can show they saw the same data.
class InputDigest {
 public:
  void Add(const std::string& s);
  void Add(uint64_t v);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// \brief Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// \brief Seeded custody-chain DAG of small records (two fields), shared by
/// the query and replication workloads. Record i belongs to a Zipf-skewed
/// subject, consumes that subject's previous output (a lot of kLotLength
/// custody steps, then a fresh lot starts), and with probability
/// 1/kCrossEvery also the latest output of a uniformly chosen other
/// subject. Ancestry therefore stays bounded (a subcritical branching
/// walk) however long the run, while subject histories grow with the
/// graph. Record i's timestamp is kBaseTs + i * kTsStep.
class CustodyDag {
 public:
  static constexpr size_t kLotLength = 32;
  static constexpr uint64_t kCrossEvery = 32;
  static constexpr int64_t kBaseTs = 1'700'000'000'000'000LL;
  static constexpr int64_t kTsStep = 1000;

  CustodyDag(uint64_t seed, size_t subjects, size_t agents);
  ProvenanceRecord Next();
  uint64_t generated() const { return next_; }
  const InputDigest& digest() const { return digest_; }
  static std::string SubjectName(size_t s);
  static std::string AgentName(size_t a);
  static std::string RecordId(uint64_t i);
  static std::string EntityName(uint64_t i);

 private:
  Rng rng_;
  size_t subjects_;
  size_t agents_;
  Zipf subject_zipf_;
  // Per subject: index of its latest record + 1 (0 = none), and the step
  // within its current lot.
  std::vector<uint64_t> last_;
  std::vector<uint32_t> step_;
  uint64_t next_ = 0;
  InputDigest digest_;
};

}  // namespace provbench

#endif  // PROVBENCH_BENCH_H_
