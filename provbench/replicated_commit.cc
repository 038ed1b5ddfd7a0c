// replicated_commit: the multi-organisation path on one thread. A volatile
// 4-node raft Cluster (SimNetwork's default 500 us + up to 200 us simulated
// one-way delay, plus a seeded 1% drop on replication links so
// anti-entropy catch-up runs) commits 64 custody-DAG records per step.
// After each commit the client asks random nodes for kProofsPerCommit
// lineage proofs over repl/proof and verifies each against another node's
// headers; half the targets are recent, half uniform over history, and the
// chain grows past the 1024-block Merkle proof cache.
//
// One repetition measures the whole window. The slowest commits are the
// ones where the nodes' containers grow (at fixed record counts, about one
// commit in 200 here); a window of 600 commits put the 99th percentile on
// the edge of that population and it jumped between 15 and 22 ms, while
// the 1150-1450 commits of an 18 s window keep it among ordinary commits.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "audit/lineage_proof.h"
#include "bench.h"
#include "replication/cluster.h"
#include "workloads.h"

namespace provbench {
namespace {

namespace obs = provledger::obs;
namespace audit = provledger::audit;
namespace replication = provledger::replication;
using provledger::Status;

constexpr uint32_t kNodes = 4;
constexpr size_t kRecordsPerCommit = 64;
constexpr size_t kSubjects = 20000;
constexpr size_t kAgents = 64;
constexpr size_t kRecentBlocks = 16;
// Proofs requested after each commit, half of recent records: enough that
// read_p99_ms rests on about 50 samples of a run's slowest proofs.
constexpr size_t kProofsPerCommit = 4;
constexpr int kMaxProofAttempts = 8;
constexpr size_t kSetups = 3;
// peak_rss_mb is read after this many window commits (or at the end of a
// shorter window), so it does not grow with throughput.
constexpr uint64_t kRssProbeCommits = 900;
const char* const kWireTypes[] = {"block", "status", "pull", "blocks"};

// Per-node registry and protocol counters, read before and after the
// window.
struct NodeSample {
  double append_s = 0, validate_s = 0;
  uint64_t append_n = 0, validate_n = 0;
  uint64_t merkle_builds = 0;
  uint64_t wire_bytes[4] = {};
  uint64_t wire_messages[4] = {};
  replication::NodeMetrics metrics;
};

NodeSample Sample(replication::Cluster* cluster, uint32_t id) {
  NodeSample s;
  obs::Registry* reg = cluster->registry(id);
  s.append_s = HistSum(reg, "chain_append_seconds");
  s.append_n = HistCount(reg, "chain_append_seconds");
  s.validate_s = HistSum(reg, "chain_validate_seconds");
  s.validate_n = HistCount(reg, "chain_validate_seconds");
  s.merkle_builds = CounterValue(reg, "chain_merkle_tree_builds_total");
  for (size_t t = 0; t < 4; ++t) {
    s.wire_bytes[t] = CounterValue(reg, "repl_bytes_total", {{"type", kWireTypes[t]}});
    s.wire_messages[t] =
        CounterValue(reg, "repl_messages_total", {{"type", kWireTypes[t]}});
  }
  s.metrics = cluster->node(id)->metrics();
  return s;
}

replication::ClusterOptions Options(uint64_t seed) {
  replication::ClusterOptions options;
  options.num_nodes = kNodes;
  options.seed = seed;
  options.consensus = "raft";
  options.net.drop_rate = 0.01;  // base latency and jitter: defaults
  return options;
}

// Starting state: the cluster plus `warmup` committed steps.
Status Setup(uint64_t seed, size_t warmup,
             std::unique_ptr<replication::Cluster>* cluster,
             std::unique_ptr<CustodyDag>* dag) {
  auto created = replication::Cluster::Create(Options(seed));
  if (!created.ok()) return created.status();
  *cluster = std::move(created).value();
  *dag = std::make_unique<CustodyDag>(seed, kSubjects, kAgents);
  for (size_t step = 0; step < warmup; ++step) {
    for (size_t k = 0; k < kRecordsPerCommit; ++k) {
      PROVLEDGER_RETURN_NOT_OK((*cluster)->Submit((*dag)->Next()));
    }
    PROVLEDGER_RETURN_NOT_OK((*cluster)->CommitPending());
  }
  return Status::OK();
}

}  // namespace

PassResult RunReplicatedCommit(const Args& args, double window_s, size_t rep,
                               size_t reps, Tracer* tracer) {
  PassResult r;
  const bool last_rep = rep + 1 == reps;
  const size_t warmup = args.smoke ? 16 : 320;
  const uint64_t seed = RepSeed(args.seed, rep);
  // Set up several times, keep the last cluster and report the median.
  std::vector<double> setup_times;
  std::unique_ptr<replication::Cluster> cluster;
  std::unique_ptr<CustodyDag> dag;
  for (size_t k = 0; k < kSetups; ++k) {
    cluster.reset();
    dag.reset();
    ReleaseFreedMemory();
    ResetPeakRss();
    const double setup_start = Now();
    Status st = Setup(seed, warmup, &cluster, &dag);
    setup_times.push_back(Now() - setup_start);
    if (!st.ok()) {
      r.Check(false, "setup: " + st.ToString());
      return r;
    }
  }
  const double setup_s = Median(setup_times);

  std::vector<NodeSample> before;
  for (uint32_t id = 0; id < kNodes; ++id) before.push_back(Sample(cluster.get(), id));
  const auto net0 = cluster->net()->metrics();
  const auto cm0 = cluster->metrics();
  const uint64_t records0 = dag->generated();

  Rng rng(seed ^ 0xB10CB10CULL);
  std::vector<double> commit_ms, proof_ms, serve_ms, verify_ms, proof_bytes,
      proof_nodes;
  double commit_s = 0, generate_s = 0;
  uint64_t commits = 0, commit_failures = 0, proofs = 0, proof_failures = 0,
           proof_retries = 0, ancestors = 0;
  std::string first_error;
  double peak_rss_mb = 0;
  const double t0 = Now();
  const double deadline = t0 + window_s;
  while (Now() < deadline) {
    const uint64_t step = commits;
    const double tg = Now();
    std::vector<ProvenanceRecord> records;
    for (size_t k = 0; k < kRecordsPerCommit; ++k) records.push_back(dag->Next());
    generate_s += Now() - tg;
    Status st;
    {
      Tracer::Scope span(tracer, "replication", "replication.Submit", step);
      for (auto& rec : records) {
        if (st.ok()) st = cluster->Submit(std::move(rec));
      }
    }
    const double tc = Now();
    if (st.ok()) {
      Tracer::Scope span(tracer, "replication", "replication.CommitPending",
                         step);
      st = cluster->CommitPending();
    }
    const double took = Now() - tc;
    if (!st.ok()) {
      ++commit_failures;
      first_error = "commit: " + st.ToString();
      break;
    }
    ++commits;
    commit_s += took;
    commit_ms.push_back(took * 1e3);
    if (commits == kRssProbeCommits) peak_rss_mb = PeakRssMb();

    // Lineage proofs: alternately of a recent record and of one drawn
    // uniformly over history.
    for (size_t j = 0; j < kProofsPerCommit; ++j) {
      const uint64_t total = dag->generated();
      const uint64_t recent = std::min<uint64_t>(total, kRecentBlocks * kRecordsPerCommit);
      const uint64_t target = j % 2 == 0 ? total - recent + rng.NextBelow(recent)
                                         : rng.NextBelow(total);
      const std::string id = CustodyDag::RecordId(target);
      std::vector<uint32_t> servers;
      for (uint32_t n = 0; n < kNodes; ++n) {
        if (cluster->node(n)->store()->HasRecord(id)) servers.push_back(n);
      }
      ++proofs;
      if (servers.empty()) {
        ++proof_failures;
        first_error = "no node holds " + id;
        continue;
      }
      const uint32_t server = servers[rng.NextBelow(servers.size())];
      auto txid = cluster->node(server)->store()->RecordTxId(id);
      auto loc = txid.ok() ? cluster->node(server)->chain()->FindTransaction(txid.value())
                           : provledger::Result<provledger::ledger::TxLocation>(
                                 txid.status());
      std::vector<uint32_t> verifiers;
      for (uint32_t n = 0; n < kNodes; ++n) {
        if (n != server && loc.ok() && cluster->node(n)->height() >= loc.value().height) {
          verifiers.push_back(n);
        }
      }
      const uint32_t verifier =
          verifiers.empty() ? server : verifiers[rng.NextBelow(verifiers.size())];
      replication::ReplicatedNode* client = cluster->node(verifier);
      const double tp = Now();
      bool received = false;
      for (int attempt = 0; attempt < kMaxProofAttempts && !received; ++attempt) {
        if (attempt > 0) ++proof_retries;
        const double ts = Now();
        Tracer::Scope span(tracer, "audit", "audit.lineage_proof.request", step);
        client->RequestLineageProof(server, id);
        cluster->RunUntilIdle();
        received = client->last_proof().received;
        serve_ms.push_back((Now() - ts) * 1e3);
      }
      const auto& reply = client->last_proof();
      Status verified = Status::Corruption("no proof received");
      if (received && reply.ok) {
        const double tv = Now();
        Tracer::Scope span(tracer, "audit", "audit.lineage_proof.verify", step);
        auto proof = audit::LineageProof::Decode(reply.proof);
        verified = proof.ok() ? Status::OK() : proof.status();
        if (verified.ok()) {
          verified = audit::VerifyLineageProof(
              proof.value(), id,
              [client](uint64_t h) { return client->chain()->BlockHashAt(h); });
          proof_nodes.push_back(static_cast<double>(proof.value().nodes.size()));
          ancestors += proof.value().nodes.size();
        }
        verify_ms.push_back((Now() - tv) * 1e3);
      } else if (received) {
        verified = Status::Internal("server could not prove " + id + ": " +
                                    reply.message);
      }
      if (!verified.ok()) {
        ++proof_failures;
        first_error = "proof of " + id + ": " + verified.ToString();
        continue;
      }
      proof_bytes.push_back(static_cast<double>(reply.proof.size()));
      proof_ms.push_back((Now() - tp) * 1e3);
    }
  }
  const double wall = Now() - t0;
  r.window_s = wall;
  if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
  const uint64_t window_records = dag->generated() - records0;

  std::vector<NodeSample> after;
  for (uint32_t id = 0; id < kNodes; ++id) after.push_back(Sample(cluster.get(), id));
  const auto net1 = cluster->net()->metrics();
  const auto cm1 = cluster->metrics();

  // Checks: convergence after a final anti-entropy round, every node's
  // audit covers every record, every proof verified.
  {
    Tracer::Scope span(tracer, "replication", "replication.AntiEntropy");
    cluster->AntiEntropy();
  }
  r.Check(cluster->Converged(), "cluster did not converge");
  // Every node re-verifies every record (in the last repetition, when a
  // pass has several).
  for (uint32_t id = 0; last_rep && id < kNodes; ++id) {
    Tracer::Scope span(tracer, "replication", "prov.store.AuditAll");
    auto audited = cluster->node(id)->store()->AuditAll();
    r.Check(audited.ok() && audited.value() == dag->generated(),
            "node " + std::to_string(id) + " audit covered " +
                (audited.ok() ? std::to_string(audited.value())
                              : audited.status().ToString()) +
                " of " + std::to_string(dag->generated()) + " records");
  }
  r.Check(commit_failures == 0 && proof_failures == 0, first_error);

  r.attempted = window_records + commits + proofs;
  r.failed = (commit_failures > 0 ? kRecordsPerCommit : 0) + commit_failures +
             proof_failures;

  uint64_t wire_bytes[4] = {}, wire_messages = 0, builds = 0, pulls = 0,
           rejected = 0;
  double lead_append_s = 0, lead_validate_s = 0, follow_validate_s = 0,
         append_all_s = 0;
  uint64_t lead_append_n = 0, lead_validate_n = 0, follow_validate_n = 0;
  for (uint32_t id = 0; id < kNodes; ++id) {
    const NodeSample& a = after[id];
    const NodeSample& b = before[id];
    const uint64_t proposed = a.metrics.blocks_proposed - b.metrics.blocks_proposed;
    const uint64_t applied = a.metrics.blocks_applied - b.metrics.blocks_applied;
    uint64_t node_bytes = 0;
    for (size_t t = 0; t < 4; ++t) {
      wire_bytes[t] += a.wire_bytes[t] - b.wire_bytes[t];
      node_bytes += a.wire_bytes[t] - b.wire_bytes[t];
      wire_messages += a.wire_messages[t] - b.wire_messages[t];
    }
    builds += a.merkle_builds - b.merkle_builds;
    pulls += a.metrics.pulls_sent - b.metrics.pulls_sent;
    rejected += a.metrics.blocks_rejected - b.metrics.blocks_rejected;
    append_all_s += a.append_s - b.append_s;
    if (proposed > 0 && applied == 0) {
      lead_append_s += a.append_s - b.append_s;
      lead_append_n += a.append_n - b.append_n;
      lead_validate_s += a.validate_s - b.validate_s;
      lead_validate_n += a.validate_n - b.validate_n;
    } else if (proposed == 0) {
      follow_validate_s += a.validate_s - b.validate_s;
      follow_validate_n += a.validate_n - b.validate_n;
    }
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "node=%u proposed=%llu applied=%llu pulls=%llu rejected=%llu "
        "validate_us_per_block=%.1f wire_bytes_in=%llu merkle_builds=%llu",
        id, static_cast<unsigned long long>(proposed),
        static_cast<unsigned long long>(applied),
        static_cast<unsigned long long>(a.metrics.pulls_sent - b.metrics.pulls_sent),
        static_cast<unsigned long long>(a.metrics.blocks_rejected -
                                        b.metrics.blocks_rejected),
        a.validate_n > b.validate_n
            ? (a.validate_s - b.validate_s) /
                  static_cast<double>(a.validate_n - b.validate_n) * 1e6
            : 0.0,
        static_cast<unsigned long long>(node_bytes),
        static_cast<unsigned long long>(a.merkle_builds - b.merkle_builds));
    r.Info(line);
  }
  const double recs = static_cast<double>(window_records);
  const double n_commits = static_cast<double>(commits);
  const uint64_t wire_total = wire_bytes[0] + wire_bytes[1] + wire_bytes[2] + wire_bytes[3];

  r.E2e("setup_s", setup_s, "s");
  r.E2e("peak_rss_mb", peak_rss_mb, "MB");
  r.E2e("rec_per_s", recs / commit_s, "rec/s");
  r.E2e("bytes_per_rec", static_cast<double>(wire_total) / recs, "B");
  r.E2e("write_p50_ms", Quantile(commit_ms, 0.5), "ms");
  r.E2e("write_p99_ms", Quantile(commit_ms, 0.99), "ms");
  r.E2e("read_p50_ms", Quantile(proof_ms, 0.5), "ms");
  r.E2e("read_p99_ms", Quantile(proof_ms, 0.99), "ms");

  r.Layer("ledger.chain.append_us_per_block",
          lead_append_n ? lead_append_s / static_cast<double>(lead_append_n) * 1e6 : 0,
          "us/block");
  r.Layer("ledger.chain.validate_us_per_block",
          lead_validate_n ? lead_validate_s / static_cast<double>(lead_validate_n) * 1e6
                          : 0,
          "us/block");
  r.Layer("ledger.chain.follower_validate_us_per_block",
          follow_validate_n
              ? follow_validate_s / static_cast<double>(follow_validate_n) * 1e6
              : 0,
          "us/block");
  r.Layer("ledger.chain.merkle_builds_per_proof",
          static_cast<double>(builds) / static_cast<double>(proofs), "count");
  r.Layer("ledger.chain.merkle_cache_hit_ratio",
          ancestors ? 1.0 - static_cast<double>(builds) / static_cast<double>(ancestors)
                    : 0,
          "frac");
  r.Layer("audit.lineage_proof.serve_ms_p50", Quantile(serve_ms, 0.5), "ms");
  r.Layer("audit.lineage_proof.verify_ms_p50", Quantile(verify_ms, 0.5), "ms");
  r.Layer("audit.lineage_proof.bytes_p50", Quantile(proof_bytes, 0.5), "B");
  r.Layer("audit.lineage_proof.nodes_p50", Quantile(proof_nodes, 0.5), "count");
  for (size_t t = 0; t < 4; ++t) {
    r.Layer(std::string("replication.bytes_per_rec.") + kWireTypes[t],
            static_cast<double>(wire_bytes[t]) / recs, "B");
  }
  r.Layer("replication.messages_per_commit",
          static_cast<double>(wire_messages) / n_commits, "count");
  r.Layer("replication.pull_rounds", static_cast<double>(pulls), "count");
  r.Layer("replication.blocks_rejected", static_cast<double>(rejected), "count");
  r.Layer("network.delivered",
          static_cast<double>(net1.messages_delivered - net0.messages_delivered),
          "count");
  r.Layer("network.dropped",
          static_cast<double>(net1.messages_dropped - net0.messages_dropped),
          "count");
  r.Layer("consensus.messages_per_commit",
          static_cast<double>(cm1.consensus_messages - cm0.consensus_messages) /
              n_commits,
          "count");
  r.Layer("consensus.sim_ms_per_commit",
          static_cast<double>(cm1.consensus_latency_us - cm0.consensus_latency_us) /
              n_commits / 1e3,
          "ms");
  r.Layer("generator.busy_frac", generate_s / wall, "frac");
  r.Layer("generator.backlog_end", static_cast<double>(cluster->pending_count()),
          "count");
  // The client thread is the serial stage; every node's chain-append
  // timer is the finer cover inside its commits.
  r.serial_s = commit_s;
  r.serial_covered_s = append_all_s;

  char line[512];
  r.Info("input: seed=" + std::to_string(args.seed) +
         " rep_seed=" + std::to_string(seed) +
         " digest=" + dag->digest().Hex() +
         " records=" + std::to_string(dag->generated()) + " (warm-up " +
         std::to_string(warmup * kRecordsPerCommit) + ")");
  std::snprintf(line, sizeof(line),
                "repl_rec_per_s=%.0f wire_bytes_per_rec=%.2f commit_p50_ms=%.3f "
                "commit_p99_ms=%.3f proof_p50_ms=%.3f proof_p99_ms=%.3f "
                "commits=%llu proofs=%llu proof_retries=%llu chain_height=%llu "
                "setup_s=%.3f",
                recs / commit_s, static_cast<double>(wire_total) / recs,
                Quantile(commit_ms, 0.5), Quantile(commit_ms, 0.99),
                Quantile(proof_ms, 0.5), Quantile(proof_ms, 0.99),
                static_cast<unsigned long long>(commits),
                static_cast<unsigned long long>(proofs),
                static_cast<unsigned long long>(proof_retries),
                static_cast<unsigned long long>(cluster->node(0)->height()),
                setup_s);
  r.Info(line);
  return r;
}

}  // namespace provbench
