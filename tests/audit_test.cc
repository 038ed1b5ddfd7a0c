// Continuous-audit and lineage-proof tests (ctest label: audit):
// adversarial proof decoding (truncation, trailing garbage, swapped
// sibling steps, wrong roots, smuggled unrelated ancestors, every
// single-byte mutation), proof round-trips across all seven record
// domains, tamper localization (live block, chain-log frame — each
// injected via tests/tamper.h and pinned to the exact block/tx or
// file/offset), and the auditor-vs-live-ingest convergence run that the
// TSan gate replays.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "audit/auditor.h"
#include "audit/lineage_proof.h"
#include "common/fileio.h"
#include "obs/metrics.h"
#include "ledger/chain_log.h"
#include "prov/ingest_pipeline.h"
#include "prov/store.h"
#include "tamper.h"
#include "temp_dir.h"

namespace provledger {
namespace {

using audit::AuditFinding;
using audit::AuditReport;
using audit::AuditSource;
using audit::ContinuousAuditor;
using audit::ContinuousAuditorOptions;
using audit::LineageProof;
using audit::LineageSummary;

prov::ProvenanceRecord Rec(const std::string& id, const std::string& subject,
                           const std::string& agent, Timestamp ts,
                           std::vector<std::string> inputs = {},
                           std::vector<std::string> outputs = {},
                           prov::Domain domain = prov::Domain::kGeneric) {
  prov::ProvenanceRecord rec;
  rec.record_id = id;
  rec.domain = domain;
  rec.operation = "execute";
  rec.subject = subject;
  rec.agent = agent;
  rec.timestamp = ts;
  rec.inputs = std::move(inputs);
  rec.outputs = std::move(outputs);
  return rec;
}

/// A header-hash oracle over a chain — what a full node passes.
audit::HeaderHashAt OracleFor(const ledger::Blockchain& chain) {
  return [&chain](uint64_t h) { return chain.BlockHashAt(h); };
}

/// A seven-domain ancestry chain r0 -> r1 -> ... -> r6 (one record per
/// domain, each consuming the previous record's output entity), plus one
/// anchored record x0 unrelated to any of them. Each record lands in its
/// own block except r3+r4, which share one (header dedup coverage).
class LineageFixture : public ::testing::Test {
 protected:
  LineageFixture() : clock_(1'000'000), store_(&chain_, &clock_) {
    auto link = [](prov::ProvenanceRecord rec, int i) {
      if (i > 0) rec.inputs = {"e" + std::to_string(i - 1)};
      rec.outputs = {"e" + std::to_string(i)};
      return rec;
    };
    EXPECT_TRUE(store_
                    .Anchor(link(Rec("r0", "s0", "alice", 100, {"raw"}, {}),
                                 0))
                    .ok());
    EXPECT_TRUE(store_
                    .Anchor(link(Rec("r1", "vm1", "bob", 110, {}, {},
                                     prov::Domain::kCloud),
                                 1))
                    .ok());
    EXPECT_TRUE(
        store_
            .Anchor(link(prov::MakeSupplyChainRecord(
                             "r2", "transfer", "p-9", "carol", 120, "b-1",
                             "2027-01", "plant>dc", "widget", "mfg-7", "qr"),
                         2))
            .ok());
    EXPECT_TRUE(
        store_
            .AnchorBatch(
                {link(prov::MakeForensicsRecord("r3", "examine", "ev-1",
                                                "dana", 130, "case-5",
                                                "analysis", "2026-01",
                                                "", "img", "ro", "none"),
                      3),
                 link(prov::MakeScientificRecord("r4", "execute", "t-1",
                                                 "erin", 140, "wf-2", "3s",
                                                 "u-9", "d1", "d2", ""),
                      4)})
            .ok());
    EXPECT_TRUE(store_
                    .Anchor(link(Rec("r5", "patient-3", "frank", 150, {}, {},
                                     prov::Domain::kHealthcare),
                                 5))
                    .ok());
    // r6 shares its block with unrelated fillers so its Merkle proof has
    // multiple sibling steps (the swapped-steps test needs depth).
    EXPECT_TRUE(store_
                    .AnchorBatch({link(Rec("r6", "model-1", "grace", 160, {},
                                           {}, prov::Domain::kMachineLearning),
                                       6),
                                  Rec("f0", "noise", "grace", 161),
                                  Rec("f1", "noise", "grace", 162),
                                  Rec("f2", "noise", "grace", 163)})
                    .ok());
    EXPECT_TRUE(
        store_.Anchor(Rec("x0", "bystander", "mallory", 170, {}, {"z0"}))
            .ok());
  }

  SimClock clock_;
  ledger::Blockchain chain_;
  prov::ProvenanceStore store_;
};

TEST_F(LineageFixture, ProofCoversAllSevenDomainsAndRoundTrips) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof->nodes.size(), 7u);   // r0..r6, not x0
  EXPECT_EQ(proof->headers.size(), 6u); // r3+r4 share one block

  // Canonical wire round trip: decode(encode(p)) re-encodes bit-identical.
  Bytes wire = proof->Encode();
  auto decoded = LineageProof::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Encode(), wire);

  LineageSummary summary;
  ASSERT_TRUE(
      audit::VerifyLineageProof(*decoded, "r6", OracleFor(chain_), &summary)
          .ok());
  ASSERT_EQ(summary.record_ids.size(), 7u);
  EXPECT_EQ(summary.record_ids[0], "r6");
  // The one input no proven ancestor produces is the DAG's source.
  ASSERT_EQ(summary.frontier_inputs.size(), 1u);
  EXPECT_EQ(summary.frontier_inputs[0], "raw");
}

TEST_F(LineageFixture, ProofVerifiesFromHeadersAloneNoStoreNoGraph) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  Bytes wire = proof->Encode();

  // A storeless light client: nothing but the synced main-chain hashes.
  std::vector<crypto::Digest> hashes;
  for (uint64_t h = 0; h <= chain_.height(); ++h) {
    hashes.push_back(chain_.BlockHashAt(h).value());
  }
  audit::HeaderHashAt oracle =
      [hashes](uint64_t h) -> Result<crypto::Digest> {
    if (h >= hashes.size()) return Status::NotFound("past head");
    return hashes[h];
  };
  auto decoded = LineageProof::Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(audit::VerifyLineageProof(*decoded, "r6", oracle).ok());
  // The same bytes must not verify as a proof of a different record.
  EXPECT_TRUE(audit::VerifyLineageProof(*decoded, "r5", oracle)
                  .IsCorruption());
}

TEST_F(LineageFixture, ProofFailsOnEverySingleByteMutation) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  const Bytes wire = proof->Encode();
  const audit::HeaderHashAt oracle = OracleFor(chain_);
  for (size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0x01;
    auto decoded = LineageProof::Decode(mutated);
    if (!decoded.ok()) continue;  // rejected at the structural layer
    EXPECT_FALSE(audit::VerifyLineageProof(*decoded, "r6", oracle).ok())
        << "byte " << i << " flipped yet the proof still verified";
  }
}

TEST_F(LineageFixture, TruncatedAndTrailingGarbageRejected) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  const Bytes wire = proof->Encode();
  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes prefix(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(LineageProof::Decode(prefix).ok())
        << "truncated proof of " << len << " bytes decoded";
  }
  Bytes trailing = wire;
  trailing.push_back(0x00);
  EXPECT_FALSE(LineageProof::Decode(trailing).ok());
}

TEST_F(LineageFixture, SwappedSiblingStepsRejected) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  bool swapped_one = false;
  for (auto& node : proof->nodes) {
    if (node.merkle_proof.steps.size() >= 2) {
      std::swap(node.merkle_proof.steps[0], node.merkle_proof.steps[1]);
      swapped_one = true;
      break;
    }
  }
  ASSERT_TRUE(swapped_one) << "fixture produced no multi-step proof";
  EXPECT_TRUE(audit::VerifyLineageProof(*proof, "r6", OracleFor(chain_))
                  .IsCorruption());
}

TEST_F(LineageFixture, WrongRootAndForeignChainRejected) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  // Verifier on a different (genesis-only) chain: no header anchors.
  ledger::Blockchain other;
  EXPECT_TRUE(audit::VerifyLineageProof(*proof, "r6", OracleFor(other))
                  .IsCorruption());
  // A header whose merkle_root is rewritten no longer hashes to the
  // main-chain hash at its height — root swaps cannot hide.
  LineageProof tampered = *proof;
  tampered.headers[0].merkle_root = crypto::Sha256::Hash(Bytes{1, 2, 3});
  EXPECT_TRUE(audit::VerifyLineageProof(tampered, "r6", OracleFor(chain_))
                  .IsCorruption());
}

TEST_F(LineageFixture, SmuggledValidButUnrelatedAncestorRejected) {
  auto proof = audit::BuildLineageProof(store_, "r6");
  ASSERT_TRUE(proof.ok());
  auto alien = audit::BuildLineageProof(store_, "x0");
  ASSERT_TRUE(alien.ok());
  ASSERT_EQ(alien->nodes.size(), 1u);
  // x0 is genuinely anchored and its inclusion proof is genuine — but it
  // produces nothing r6's DAG consumes, so closure must reject it.
  LineageProof stuffed = *proof;
  ASSERT_GT(alien->headers[0].height, stuffed.headers.back().height);
  stuffed.headers.push_back(alien->headers[0]);
  audit::LineageProofNode node = alien->nodes[0];
  node.header_index = static_cast<uint32_t>(stuffed.headers.size() - 1);
  stuffed.nodes.push_back(std::move(node));
  Status st = audit::VerifyLineageProof(stuffed, "r6", OracleFor(chain_));
  ASSERT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("not an ancestor"), std::string::npos)
      << st.message();
}

TEST(StoredLeafProofTest, RebuiltTreesNeverMaskTampering) {
  // A one-block proof cache: records in id order live in different
  // blocks, so proving them in that order misses on every proof and
  // rebuilds each tree from the stored leaf digests rather than from the
  // transaction bytes.
  ledger::ChainOptions chain_options;
  chain_options.merkle_cache_blocks = 1;
  ledger::Blockchain chain(chain_options);
  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  constexpr int kBlocks = 4;
  constexpr int kRecords = 12;
  auto id_of = [](int i) {
    return std::string("k") + (i < 10 ? "0" : "") + std::to_string(i);
  };
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<prov::ProvenanceRecord> batch;
    for (int i = b; i < kRecords; i += kBlocks) {
      batch.push_back(Rec(id_of(i), "s" + std::to_string(i), "alice",
                          100 + i));
    }
    ASSERT_TRUE(store.AnchorBatch(batch).ok());
  }
  obs::Counter* builds = obs::Registry::Default()->GetCounter(
      "chain_merkle_tree_builds_total", "");
  uint64_t builds_before = builds->value();
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(store.ProveRecord(id_of(i)).ok()) << id_of(i);
  }
  EXPECT_EQ(builds->value() - builds_before, static_cast<uint64_t>(kRecords));
  // AuditAll walks rows in anchoring order: one build per block.
  builds_before = builds->value();
  auto audited = store.AuditAll();
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  EXPECT_EQ(audited.value(), static_cast<size_t>(kRecords));
  EXPECT_EQ(builds->value() - builds_before, static_cast<uint64_t>(kBlocks));
  auto clean = audit::BuildLineageProof(store, "k05");
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(audit::VerifyLineageProof(*clean, "k05", OracleFor(chain)).ok());

  // Tamper k05's transaction. Its stored leaf still holds the accepted
  // digest, but every verifier re-hashes the bytes it is handed.
  auto txid = store.RecordTxId("k05");
  ASSERT_TRUE(txid.ok());
  auto loc = chain.FindTransaction(txid.value());
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(chain.TamperForTesting(loc->height, loc->index, 0x01).ok());
  EXPECT_TRUE(store.AuditAll().status().IsCorruption());
  auto tampered = audit::BuildLineageProof(store, "k05");
  ASSERT_TRUE(tampered.ok());
  EXPECT_TRUE(audit::VerifyLineageProof(*tampered, "k05", OracleFor(chain))
                  .IsCorruption());
  EXPECT_TRUE(chain.VerifyIntegrity().IsCorruption());
}

TEST_F(LineageFixture, ServedOverReplicationWire) {
  // BuildLineageProof is what repl/proof invokes server-side; this pins
  // the request/verify contract end to end without a cluster: bytes out
  // of Encode() are exactly what repl/proofr carries.
  auto proof = audit::BuildLineageProof(store_, "r4");
  ASSERT_TRUE(proof.ok());
  auto parsed = LineageProof::Decode(proof->Encode());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(
      audit::VerifyLineageProof(*parsed, "r4", OracleFor(chain_)).ok());
  // Proofs for unknown records must fail to build, not fabricate.
  EXPECT_FALSE(audit::BuildLineageProof(store_, "no-such-record").ok());
}

// ---------------------------------------------------------------------------
// ContinuousAuditor: localization + incremental cursor.
// ---------------------------------------------------------------------------

class AuditorFixture : public ::testing::Test {
 protected:
  AuditorFixture() : clock_(1'000'000), store_(&chain_, &clock_) {}

  void Ingest(int blocks, int txs_per_block) {
    for (int b = 0; b < blocks; ++b) {
      std::vector<prov::ProvenanceRecord> batch;
      for (int j = 0; j < txs_per_block; ++j) {
        const int i = b * txs_per_block + j;
        batch.push_back(Rec("r" + std::to_string(i),
                            "s" + std::to_string(i % 5), "agent", 100 + i,
                            i > 0 ? std::vector<std::string>{
                                        "e" + std::to_string(i - 1)}
                                  : std::vector<std::string>{},
                            {"e" + std::to_string(i)}));
      }
      ASSERT_TRUE(store_.AnchorBatch(batch).ok());
    }
    ASSERT_TRUE(store_.PublishSnapshot().ok());
  }

  SimClock clock_;
  ledger::Blockchain chain_;
  prov::ProvenanceStore store_;
};

TEST_F(AuditorFixture, CleanChainAuditsCleanAndCursorAdvances) {
  Ingest(10, 3);
  ContinuousAuditorOptions options;
  options.max_blocks_per_pass = 4;
  ContinuousAuditor auditor(&chain_, &store_, options);
  size_t passes = 0;
  while (auditor.audited_height() < chain_.height()) {
    AuditReport report = auditor.RunPass();
    EXPECT_TRUE(report.clean()) << report.findings[0].ToString();
    ASSERT_LT(++passes, 100u);
  }
  EXPECT_EQ(auditor.audited_height(), chain_.height());
  EXPECT_EQ(auditor.blocks_audited(), chain_.height());
  EXPECT_EQ(auditor.records_audited(), 30u);
  // Caught up: further passes are empty, not re-audits.
  AuditReport idle = auditor.RunPass();
  EXPECT_EQ(idle.blocks_audited, 0u);
  EXPECT_GT(idle.from_height, idle.to_height);
}

TEST_F(AuditorFixture, LocalizesLiveTamperToExactBlockAndTx) {
  Ingest(10, 3);
  const uint64_t k = 4;   // tampered block height
  const size_t j = 2;     // tampered tx index within it
  ASSERT_TRUE(testutil::TamperChainTx(&chain_, k, j).ok());

  ContinuousAuditor auditor(&chain_, &store_, ContinuousAuditorOptions());
  AuditReport report = auditor.RunPass();
  ASSERT_FALSE(report.clean());
  // Every finding names block k and nothing but block k...
  for (const AuditFinding& finding : report.findings) {
    EXPECT_EQ(finding.height, k) << finding.ToString();
  }
  // ...the Merkle root over the block no longer matches...
  bool merkle = false, record = false;
  for (const AuditFinding& finding : report.findings) {
    if (finding.source == AuditSource::kMerkleRoot) merkle = true;
    // ...and the damaged payload pins the exact transaction, via the
    // codec check or the snapshot round-trip.
    if ((finding.source == AuditSource::kRecordCodec ||
         finding.source == AuditSource::kStoreIndex) &&
        finding.tx_index == static_cast<int32_t>(j)) {
      record = true;
    }
  }
  EXPECT_TRUE(merkle);
  EXPECT_TRUE(record);
  EXPECT_EQ(auditor.findings_total(), report.findings.size());
  EXPECT_EQ(auditor.TakeFindings().size(), report.findings.size());
  EXPECT_TRUE(auditor.TakeFindings().empty());  // drained
}

// Regression: watching the auditor's lag must be a pure read. The first
// monitoring hook drained state a dashboard poll must never touch —
// lag_blocks() now reads only the published chain view and the atomic
// cursor, so polling it drains no findings and takes no lock.
TEST_F(AuditorFixture, LagObservableWithoutDrainingFindings) {
  Ingest(10, 3);
  ASSERT_TRUE(testutil::TamperChainTx(&chain_, 2, 1).ok());

  obs::Registry registry;
  ContinuousAuditorOptions options;
  options.max_blocks_per_pass = 4;
  options.registry = &registry;
  ContinuousAuditor auditor(&chain_, &store_, options);

  // Nothing audited yet: the whole chain is lag.
  EXPECT_EQ(auditor.lag_blocks(), chain_.height());

  AuditReport first = auditor.RunPass();
  ASSERT_FALSE(first.clean());
  const uint64_t expected_lag = chain_.height() - 4;
  // Poll the lag repeatedly — a monitoring loop, not a consumer.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(auditor.lag_blocks(), expected_lag);
  }
  // The registry gauge and findings counter mirror the pass.
  EXPECT_EQ(registry.GetGauge("audit_lag_blocks", "")->value(),
            static_cast<int64_t>(expected_lag));
  EXPECT_EQ(registry.GetCounter("audit_findings_total", "")->value(),
            first.findings.size());
  // Every finding is still there for the real consumer to take.
  EXPECT_EQ(auditor.TakeFindings().size(), first.findings.size());

  size_t passes = 0;
  while (auditor.lag_blocks() > 0) {
    (void)auditor.RunPass();  // only the lag converging to 0 matters here
    ASSERT_LT(++passes, 100u);
  }
  EXPECT_EQ(auditor.lag_blocks(), 0u);
  EXPECT_EQ(registry.GetGauge("audit_lag_blocks", "")->value(), 0);

  // New blocks re-open the gap without any auditor involvement.
  std::vector<prov::ProvenanceRecord> extra;
  extra.push_back(Rec("lag-x0", "s0", "agent", 900));
  extra.push_back(Rec("lag-x1", "s1", "agent", 901));
  ASSERT_TRUE(store_.AnchorBatch(extra).ok());
  EXPECT_EQ(auditor.lag_blocks(), 1u);
}

TEST_F(AuditorFixture, RewindReauditsAndChainOnlyModeWorks) {
  Ingest(6, 2);
  ContinuousAuditor chain_only(&chain_, nullptr,
                               ContinuousAuditorOptions());
  AuditReport first = chain_only.RunPass();
  EXPECT_TRUE(first.clean());
  EXPECT_EQ(first.blocks_audited, chain_.height());
  EXPECT_EQ(first.records_checked, 0u);  // no store attached
  chain_only.Rewind();
  EXPECT_EQ(chain_only.audited_height(), 0u);
  AuditReport again = chain_only.RunPass();
  EXPECT_EQ(again.blocks_audited, chain_.height());
}

TEST_F(AuditorFixture, OfflineChainLogTamperLocalizedToFrame) {
  const std::string dir = testutil::MakeTempDir();
  const std::string path = dir + "/chain.log";
  {
    ledger::Blockchain durable;
    auto log = ledger::ChainLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AttachTo(&durable).ok());
    prov::ProvenanceStore store(&durable, &clock_);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          store.Anchor(Rec("d" + std::to_string(i), "s", "a", 100 + i)).ok());
    }
  }
  // Clean file first: every frame valid, heights contiguous.
  AuditReport clean = ContinuousAuditor::AuditChainLogFile(path);
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.blocks_audited, 8u);
  EXPECT_EQ(clean.from_height, 1u);
  EXPECT_EQ(clean.to_height, 8u);

  // Tamper frame 3 (block height 4): the finding carries that frame's
  // exact byte offset and segment.
  auto offset = testutil::CorruptFrame(path, 3, /*payload_offset=*/12);
  ASSERT_TRUE(offset.ok());
  AuditReport report = ContinuousAuditor::AuditChainLogFile(path);
  ASSERT_FALSE(report.clean());
  bool crc_at_frame = false;
  for (const AuditFinding& finding : report.findings) {
    if (finding.source == AuditSource::kChainLog &&
        finding.offset == offset.value() && finding.segment == path &&
        finding.detail.find("frame 3") != std::string::npos) {
      crc_at_frame = true;
    }
    // Localization never smears onto other frames' offsets.
    if (finding.source == AuditSource::kChainLog) {
      EXPECT_EQ(finding.offset, offset.value()) << finding.ToString();
    }
  }
  EXPECT_TRUE(crc_at_frame);

  // A torn tail (crash artifact) is reported as torn, not corrupt.
  auto data = ReadFileToBytes(path);
  ASSERT_TRUE(data.ok());
  Bytes torn(data->begin(), data->end() - 5);
  ASSERT_TRUE(WriteFileAtomic(path, torn).ok());
  AuditReport torn_report = ContinuousAuditor::AuditChainLogFile(path);
  bool torn_found = false;
  for (const AuditFinding& finding : torn_report.findings) {
    if (finding.source == AuditSource::kChainLog &&
        finding.detail.find("torn") != std::string::npos) {
      torn_found = true;
    }
  }
  EXPECT_TRUE(torn_found);
  testutil::RemoveTree(dir);
}

// The TSan-gated run: a background auditor against a live pipeline must
// report nothing and converge to the head epoch once ingest stops.
TEST(AuditConcurrencyTest, AuditorNeverFalselyAccusesLiveIngest) {
  SystemClock clock;
  ledger::Blockchain chain;
  prov::ProvenanceStore store(&chain, &clock);

  ContinuousAuditorOptions audit_options;
  audit_options.max_blocks_per_pass = 8;
  audit_options.pass_interval_us = 200;
  ContinuousAuditor auditor(&chain, &store, audit_options);
  auditor.Start();

  {
    prov::IngestPipelineOptions options;
    options.shards = 2;
    options.batch_size = 16;
    options.snapshot_every_batches = 2;
    options.publish_on_flush = true;
    prov::IngestPipeline pipeline(&store, options);
    constexpr int kProducers = 2;
    constexpr int kPerProducer = 300;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pipeline, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int n = p * kPerProducer + i;
          prov::ProvenanceRecord rec;
          rec.record_id = "c" + std::to_string(n);
          rec.operation = "execute";
          rec.subject = "s" + std::to_string(n % 7);
          rec.agent = "producer" + std::to_string(p);
          rec.timestamp = 1'000 + n;
          rec.outputs = {"e" + std::to_string(n)};
          EXPECT_TRUE(pipeline.Submit(std::move(rec)).ok());
        }
      });
    }
    for (auto& t : producers) t.join();
    ASSERT_TRUE(pipeline.Close().ok());
    ASSERT_EQ(pipeline.committed(), uint64_t{kProducers * kPerProducer});
  }

  auditor.Stop();
  // Drain to the head: the final flush published an epoch at the head
  // height, so the cursor can reach it in bounded passes.
  size_t passes = 0;
  while (auditor.audited_height() < chain.height()) {
    (void)auditor.RunPass();  // findings checked in aggregate below
    ASSERT_LT(++passes, 1000u);
  }
  EXPECT_EQ(auditor.audited_height(), chain.height());
  EXPECT_EQ(auditor.findings_total(), 0u)
      << auditor.TakeFindings()[0].ToString();
  EXPECT_EQ(auditor.blocks_audited(), chain.height());
}

}  // namespace
}  // namespace provledger
