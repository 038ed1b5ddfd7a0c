#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace provbench {

namespace obs = provledger::obs;

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void SleepUntilPrecise(double t) {
  SleepUntil(t - 200e-6);
  while (Now() < t) {
  }
}

void PassResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void PassResult::E2e(const std::string& name, double value,
                     const std::string& unit) {
  e2e.push_back({name, value, unit});
}

void PassResult::E2ePooled(const std::string& name, double q,
                           const std::string& unit,
                           const std::vector<double>& sample) {
  std::vector<Weighted> weighted;
  weighted.reserve(sample.size());
  for (double v : sample) weighted.emplace_back(v, 1);
  E2ePooled(name, q, unit, std::move(weighted));
}

void PassResult::E2ePooled(const std::string& name, double q,
                           const std::string& unit,
                           std::vector<Weighted> sample) {
  pooled.push_back({name, q, unit, std::move(sample)});
}

void PassResult::E2eRate(const std::string& name, const std::string& unit,
                         double count, double seconds) {
  rates.push_back({name, unit, count, seconds});
}

void PassResult::Layer(const std::string& name, double value,
                       const std::string& unit) {
  layers.push_back({name, value, unit});
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= v.size()) index = v.size() - 1;
  return v[index];
}

double WeightedQuantile(std::vector<Weighted> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  uint64_t total = 0;
  for (const auto& x : v) total += x.second;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (const auto& x : v) {
    seen += x.second;
    if (static_cast<double>(seen) >= target) return x.first;
  }
  return v.back().first;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

void ReleaseFreedMemory() { ::malloc_trim(0); }

uint64_t RepSeed(uint64_t seed, size_t rep) {
  Rng rng(seed);
  for (size_t k = 0; k < rep; ++k) rng.NextU64();
  return rng.NextU64();
}

double HistSum(obs::Registry* r, const std::string& name,
               const obs::Labels& labels) {
  return r->GetHistogram(name, "", obs::LatencyBuckets(), labels)->sum();
}

uint64_t HistCount(obs::Registry* r, const std::string& name,
                   const obs::Labels& labels) {
  return r->GetHistogram(name, "", obs::LatencyBuckets(), labels)->count();
}

uint64_t CounterValue(obs::Registry* r, const std::string& name,
                      const obs::Labels& labels) {
  return r->GetCounter(name, "", labels)->value();
}

// ---------------------------------------------------------------- tracer

struct ThreadBuf {
  uint32_t thread_index = 0;
  std::vector<Tracer::Span> spans;
  std::vector<int64_t> open;  // stack of open span indexes
};

namespace {
// Each tracer gets a fresh id, so a thread's cached buffer can never be
// mistaken for one belonging to an earlier tracer at the same address.
std::atomic<uint64_t> next_tracer_id{1};
thread_local uint64_t tls_tracer_id = 0;
thread_local ThreadBuf* tls_buf = nullptr;
}  // namespace

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}
Tracer::~Tracer() = default;

ThreadBuf* Tracer::Local() {
  if (tls_tracer_id == id_) return tls_buf;
  auto buf = std::make_unique<ThreadBuf>();
  buf->spans.reserve(1 << 14);
  std::lock_guard<std::mutex> lock(mu_);
  buf->thread_index = static_cast<uint32_t>(threads_.size());
  tls_buf = buf.get();
  tls_tracer_id = id_;
  threads_.push_back(std::move(buf));
  return tls_buf;
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name,
                     uint64_t request) {
  if (tracer == nullptr) return;
  buf_ = tracer->Local();
  index_ = buf_->spans.size();
  const int64_t parent = buf_->open.empty() ? -1 : buf_->open.back();
  buf_->spans.push_back({name, layer, Now(), 0, parent, request});
  buf_->open.push_back(static_cast<int64_t>(index_));
}

Tracer::Scope::~Scope() {
  if (buf_ == nullptr) return;
  buf_->spans[index_].end = Now();
  buf_->open.pop_back();
}

double Tracer::Total(const char* name, double since, size_t* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  size_t n = 0;
  for (const auto& t : threads_) {
    for (const auto& s : t->spans) {
      if (s.start < since || std::strcmp(s.name, name) != 0) continue;
      total += s.end - s.start;
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

double Tracer::SelfSeconds(const char* layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  double self = 0;
  for (const auto& t : threads_) {
    std::vector<double> children(t->spans.size(), 0.0);
    for (const auto& s : t->spans) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const auto& s = t->spans[i];
      if (std::strcmp(s.layer, layer) == 0) {
        self += (s.end - s.start) - children[i];
      }
    }
  }
  return self;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& t : threads_) n += t->spans.size();
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const auto& s = t->spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"span\":%zu,\"parent\":%lld,\"request\":%llu}}",
                   first ? "" : ",\n", s.name, s.layer, s.start * 1e6,
                   (s.end - s.start) * 1e6, t->thread_index, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- inputs

void InputDigest::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;
  h_ *= 1099511628211ULL;
}

void InputDigest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

std::string InputDigest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return k < cdf_.size() ? k : cdf_.size() - 1;
}

CustodyDag::CustodyDag(uint64_t seed, size_t subjects, size_t agents)
    : rng_(seed),
      subjects_(subjects),
      agents_(agents),
      subject_zipf_(subjects, 0.8),
      last_(subjects, 0),
      step_(subjects, 0) {}

std::string CustodyDag::SubjectName(size_t s) {
  return "pkg-" + std::to_string(s);
}
std::string CustodyDag::AgentName(size_t a) {
  return "org-" + std::to_string(a);
}
std::string CustodyDag::RecordId(uint64_t i) {
  return "r" + std::to_string(i);
}
std::string CustodyDag::EntityName(uint64_t i) {
  return "e" + std::to_string(i);
}

ProvenanceRecord CustodyDag::Next() {
  const uint64_t i = next_++;
  const size_t s = subject_zipf_.Sample(&rng_);
  const size_t agent = static_cast<size_t>(rng_.NextBelow(agents_));
  const bool cross = rng_.NextBelow(kCrossEvery) == 0;
  const size_t other = static_cast<size_t>(rng_.NextBelow(subjects_));

  ProvenanceRecord rec;
  rec.record_id = RecordId(i);
  rec.domain = provledger::prov::Domain::kGeneric;
  rec.subject = SubjectName(s);
  rec.agent = AgentName(agent);
  rec.timestamp = kBaseTs + static_cast<int64_t>(i) * kTsStep;
  rec.operation = step_[s] == 0 ? "manufacture" : "transfer";
  if (step_[s] != 0) rec.inputs.push_back(EntityName(last_[s] - 1));
  if (cross && other != s && last_[other] != 0) {
    rec.inputs.push_back(EntityName(last_[other] - 1));
  }
  rec.outputs.push_back(EntityName(i));
  rec.fields["lot"] = "lot-" + std::to_string(i / 4096);
  rec.fields["site"] = "dc-" + std::to_string(agent % 8);

  step_[s] = static_cast<uint32_t>((step_[s] + 1) % kLotLength);
  last_[s] = i + 1;
  digest_.Add(i);
  digest_.Add(s);
  digest_.Add(agent);
  for (const auto& in : rec.inputs) digest_.Add(in);
  return rec;
}

}  // namespace provbench
