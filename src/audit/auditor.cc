#include "audit/auditor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/fileio.h"
#include "common/framed_log.h"
#include "prov/columnar.h"

namespace provledger {
namespace audit {

namespace {

/// A per-frame finding of the offline chain-log audit.
void AddFrameFinding(AuditReport* report, const std::string& segment,
                     uint64_t offset, uint64_t frame_index,
                     const std::string& what) {
  AuditFinding finding;
  finding.source = AuditSource::kChainLog;
  finding.segment = segment;
  finding.offset = offset;
  finding.detail = "frame " + std::to_string(frame_index) + ": " + what;
  report->findings.push_back(std::move(finding));
}

/// Per-transaction canonical record checks over a decoded block,
/// localizing to (height, tx index, record id). `segment`/`offset` carry
/// through for offline findings.
void CheckBlockRecords(const ledger::Block& block, const std::string& segment,
                       uint64_t offset, std::vector<AuditFinding>* out) {
  for (size_t j = 0; j < block.transactions.size(); ++j) {
    const ledger::Transaction& tx = block.transactions[j];
    if (tx.type != "prov/record") continue;
    AuditFinding finding;
    finding.source = AuditSource::kRecordCodec;
    finding.height = block.header.height;
    finding.tx_index = static_cast<int32_t>(j);
    finding.segment = segment;
    finding.offset = offset;
    auto rec = prov::ProvenanceRecord::Decode(tx.payload);
    if (!rec.ok()) {
      finding.detail = "record payload does not decode: " +
                       rec.status().message();
      out->push_back(std::move(finding));
    } else if (rec->Encode() != tx.payload) {
      finding.record_id = rec->record_id;
      finding.detail = "record payload is not canonical";
      out->push_back(std::move(finding));
    }
  }
}

}  // namespace

const char* AuditSourceName(AuditSource source) {
  switch (source) {
    case AuditSource::kChainHeader:
      return "chain-header";
    case AuditSource::kMerkleRoot:
      return "merkle-root";
    case AuditSource::kSignature:
      return "signature";
    case AuditSource::kRecordCodec:
      return "record-codec";
    case AuditSource::kStoreIndex:
      return "store-index";
    case AuditSource::kColumnarCodec:
      return "columnar-codec";
    case AuditSource::kChainLog:
      return "chain-log";
  }
  return "unknown";
}

std::string AuditFinding::ToString() const {
  std::string out = AuditSourceName(source);
  out += "@" + std::to_string(height);
  if (tx_index >= 0) out += "/tx" + std::to_string(tx_index);
  if (!record_id.empty()) out += " record=" + record_id;
  if (!segment.empty()) {
    out += " " + segment + "+" + std::to_string(offset);
  }
  out += ": " + detail;
  return out;
}

ContinuousAuditor::ContinuousAuditor(const ledger::Blockchain* chain,
                                     const prov::ProvenanceStore* store,
                                     ContinuousAuditorOptions options)
    : chain_(chain), store_(store), options_(std::move(options)) {
  obs::Registry* registry = options_.registry != nullptr
                                ? options_.registry
                                : obs::Registry::Default();
  lag_gauge_ = registry->GetGauge(
      "audit_lag_blocks", "Blocks between chain head and the audited cursor");
  findings_counter_ = registry->GetCounter(
      "audit_findings_total", "Integrity violations found across passes");
  auto view = chain_->AcquireChainView();
  std::lock_guard<std::mutex> lock(run_mu_);
  cursor_hash_ = view->hash(0);
}

ContinuousAuditor::~ContinuousAuditor() { Stop(); }

ContinuousAuditor::BlockCheck ContinuousAuditor::AuditBlock(
    const ledger::ChainView& view, uint64_t height) const {
  BlockCheck out;
  const ledger::Block& b = view.block(height);
  const ledger::Block& parent = view.block(height - 1);
  out.txs = b.transactions.size();
  auto add = [&out, height](AuditSource source, int32_t tx_index,
                            std::string record_id, std::string detail) {
    AuditFinding finding;
    finding.source = source;
    finding.height = height;
    finding.tx_index = tx_index;
    finding.record_id = std::move(record_id);
    finding.detail = std::move(detail);
    out.findings.push_back(std::move(finding));
  };

  if (b.header.height != height) {
    add(AuditSource::kChainHeader, -1, "",
        "header height " + std::to_string(b.header.height) +
            " does not match chain position");
  }
  if (b.header.Hash() != view.hash(height)) {
    add(AuditSource::kChainHeader, -1, "",
        "header does not hash to its installed block hash");
  }
  if (b.header.prev_hash != view.hash(height - 1)) {
    add(AuditSource::kChainHeader, -1, "",
        "prev_hash does not match the parent block");
  }
  if (b.header.timestamp < parent.header.timestamp) {
    add(AuditSource::kChainHeader, -1, "",
        "block timestamp precedes its parent");
  }
  if (ledger::Block::ComputeMerkleRoot(b.transactions) !=
      b.header.merkle_root) {
    add(AuditSource::kMerkleRoot, -1, "",
        "merkle root does not match the transactions");
  }

  const std::string* channel =
      store_ != nullptr ? &store_->options().channel : nullptr;
  for (size_t j = 0; j < b.transactions.size(); ++j) {
    const ledger::Transaction& tx = b.transactions[j];
    Status sig = tx.VerifySignature();
    if (!sig.ok()) {
      add(AuditSource::kSignature, static_cast<int32_t>(j), "",
          sig.message());
    }
    if (tx.type != "prov/record") continue;
    auto rec = prov::ProvenanceRecord::Decode(tx.payload);
    if (!rec.ok()) {
      add(AuditSource::kRecordCodec, static_cast<int32_t>(j), "",
          "record payload does not decode: " + rec.status().message());
      continue;
    }
    if (rec->Encode() != tx.payload) {
      add(AuditSource::kRecordCodec, static_cast<int32_t>(j),
          rec->record_id, "record payload is not canonical");
      continue;
    }
    // Only the store's own channel round-trips against the snapshot.
    if (channel == nullptr || tx.channel == *channel) {
      out.records.emplace_back(static_cast<uint32_t>(j),
                               std::move(rec).value());
    }
  }

  if (!out.records.empty()) {
    std::vector<prov::ProvenanceRecord> batch;
    batch.reserve(out.records.size());
    for (const auto& entry : out.records) batch.push_back(entry.second);
    Bytes encoded = prov::columnar::EncodeRecordBatch(batch);
    auto decoded = prov::columnar::DecodeRecordBatch(encoded);
    if (!decoded.ok()) {
      add(AuditSource::kColumnarCodec, -1, "",
          "columnar batch does not round-trip: " +
              decoded.status().message());
    } else if (decoded->size() != batch.size()) {
      add(AuditSource::kColumnarCodec, -1, "",
          "columnar round trip changed the record count");
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        if ((*decoded)[i].Encode() != batch[i].Encode()) {
          add(AuditSource::kColumnarCodec,
              static_cast<int32_t>(out.records[i].first),
              batch[i].record_id,
              "columnar round trip is not bit-identical");
        }
      }
    }
  }
  return out;
}

AuditReport ContinuousAuditor::RunPass() {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  AuditReport report;
  auto view = chain_->AcquireChainView();
  report.head_height = view->height();

  // Reorg rewind: the block the cursor stopped at must still be the
  // main-chain block at that height; otherwise the audited prefix was
  // abandoned and the adopted chain is re-audited from genesis.
  if (cursor_height_ > view->height() ||
      view->hash(cursor_height_) != cursor_hash_) {
    report.reorg_rewound = true;
    cursor_height_ = 0;
    cursor_hash_ = view->hash(0);
  }

  // Cap at the snapshot's reflected height so every audited block can be
  // round-tripped against an epoch that already includes it.
  uint64_t limit = view->height();
  std::shared_ptr<const prov::GraphSnapshot> snap;
  if (store_ != nullptr) {
    snap = store_->AcquireSnapshot();
    if (snap != nullptr) {
      report.epoch = snap->epoch();
      limit = std::min(limit, snap->chain_height());
    }
  }

  report.from_height = cursor_height_ + 1;
  report.to_height =
      std::min(limit, cursor_height_ + options_.max_blocks_per_pass);
  if (report.from_height > report.to_height) {
    lag_gauge_->Set(static_cast<int64_t>(report.head_height - cursor_height_));
    passes_.fetch_add(1, std::memory_order_relaxed);
    return report;
  }

  const uint64_t from = report.from_height;
  const size_t count =
      static_cast<size_t>(report.to_height - report.from_height + 1);
  std::vector<BlockCheck> checks(count);
  for (size_t i = 0; i < count; ++i) {
    checks[i] = AuditBlock(*view, from + i);
    ++report.blocks_audited;
    report.txs_audited += checks[i].txs;
    for (auto& finding : checks[i].findings) {
      report.findings.push_back(std::move(finding));
    }
  }

  // Record <-> index round-trip, serial with one reader per pass. Record
  // ids resolve through the groups' shared name tables (built once per
  // group, shared with every query reader); decoded records are per-reader
  // state, which one pass shares across blocks.
  if (snap != nullptr) {
    auto reader = snap->OpenReader();
    if (!reader.ok()) {
      AuditFinding finding;
      finding.source = AuditSource::kStoreIndex;
      finding.detail =
          "snapshot epoch " + std::to_string(snap->epoch()) +
          " does not open: " + reader.status().message();
      report.findings.push_back(std::move(finding));
    } else {
      for (size_t i = 0; i < count; ++i) {
        for (const auto& entry : checks[i].records) {
          ++report.records_checked;
          AuditFinding finding;
          finding.source = AuditSource::kStoreIndex;
          finding.height = from + i;
          finding.tx_index = static_cast<int32_t>(entry.first);
          finding.record_id = entry.second.record_id;
          auto stored = reader->graph().GetRecord(entry.second.record_id);
          if (!stored.ok()) {
            finding.detail = "on-chain record missing from snapshot epoch " +
                             std::to_string(snap->epoch());
            report.findings.push_back(std::move(finding));
          } else if (stored->Encode() != entry.second.Encode()) {
            finding.detail =
                "snapshot record disagrees with the on-chain encoding";
            report.findings.push_back(std::move(finding));
          }
        }
      }
    }
  }

  cursor_height_ = report.to_height;
  cursor_hash_ = view->hash(cursor_height_);
  audited_height_.store(cursor_height_, std::memory_order_release);
  lag_gauge_->Set(static_cast<int64_t>(report.head_height - cursor_height_));
  passes_.fetch_add(1, std::memory_order_relaxed);
  blocks_total_.fetch_add(report.blocks_audited, std::memory_order_relaxed);
  records_total_.fetch_add(report.records_checked,
                           std::memory_order_relaxed);
  if (!report.findings.empty()) {
    findings_total_.fetch_add(report.findings.size(),
                              std::memory_order_relaxed);
    findings_counter_->Increment(report.findings.size());
    std::lock_guard<std::mutex> lock(findings_mu_);
    for (const auto& finding : report.findings) {
      findings_.push_back(finding);
    }
  }
  return report;
}

uint64_t ContinuousAuditor::lag_blocks() const {
  const uint64_t head = chain_->AcquireChainView()->height();
  const uint64_t audited = audited_height_.load(std::memory_order_acquire);
  // A reorg can briefly leave the cursor above the adopted head; the next
  // pass rewinds it, and until then the lag is simply "nothing to do".
  return head > audited ? head - audited : 0;
}

void ContinuousAuditor::Rewind() {
  std::lock_guard<std::mutex> lock(run_mu_);
  cursor_height_ = 0;
  cursor_hash_ = chain_->AcquireChainView()->hash(0);
  audited_height_.store(0, std::memory_order_release);
}

std::vector<AuditFinding> ContinuousAuditor::TakeFindings() {
  std::lock_guard<std::mutex> lock(findings_mu_);
  std::vector<AuditFinding> out;
  out.swap(findings_);
  return out;
}

void ContinuousAuditor::BackgroundLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    (void)RunPass();  // findings are accumulated for TakeFindings()
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.pass_interval_us));
  }
}

void ContinuousAuditor::Start() {
  if (running_) return;
  stop_.store(false, std::memory_order_release);
  background_ = std::thread([this] { BackgroundLoop(); });
  running_ = true;
}

void ContinuousAuditor::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  background_.join();
  running_ = false;
}

AuditReport ContinuousAuditor::AuditChainLogFile(const std::string& path) {
  AuditReport report;
  auto data = ReadFileToBytes(path);
  if (!data.ok()) {
    AuditFinding finding;
    finding.source = AuditSource::kChainLog;
    finding.segment = path;
    finding.detail = data.status().ToString();
    report.findings.push_back(std::move(finding));
    return report;
  }
  const Bytes& buf = data.value();
  size_t pos = 0;
  uint64_t frame_index = 0;
  uint64_t prev_height = 0;
  crypto::Digest prev_hash = crypto::ZeroDigest();
  bool have_prev = false;
  while (pos < buf.size()) {
    size_t payload_len = 0;
    FrameScan scan = ScanFrameAt(buf, pos, &payload_len);
    if (scan == FrameScan::kTorn) {
      AddFrameFinding(&report, path, pos, frame_index,
                      "torn tail frame (crash artifact; recoverable)");
      break;
    }
    Bytes payload(buf.begin() + pos + kFrameHeaderBytes,
                  buf.begin() + pos + kFrameHeaderBytes + payload_len);
    auto block = prov::columnar::DecodeBlock(payload);
    if (scan == FrameScan::kCorrupt) {
      AddFrameFinding(&report, path, pos, frame_index, "crc mismatch");
      // Best-effort localization inside the damaged frame: the payload
      // often still decodes structurally, pointing at the block/tx whose
      // bytes changed.
      if (block.ok()) {
        if (ledger::Block::ComputeMerkleRoot(block->transactions) !=
            block->header.merkle_root) {
          AuditFinding finding;
          finding.source = AuditSource::kMerkleRoot;
          finding.height = block->header.height;
          finding.segment = path;
          finding.offset = pos;
          finding.detail = "merkle root does not match the transactions";
          report.findings.push_back(std::move(finding));
        }
        CheckBlockRecords(*block, path, pos, &report.findings);
      }
    } else if (!block.ok()) {
      AddFrameFinding(&report, path, pos, frame_index,
                      "block does not decode: " + block.status().message());
    } else {
      ++report.blocks_audited;
      report.txs_audited += block->transactions.size();
      if (report.blocks_audited == 1) report.from_height =
          block->header.height;
      report.to_height = block->header.height;
      if (have_prev && block->header.height != prev_height + 1) {
        AuditFinding finding;
        finding.source = AuditSource::kChainHeader;
        finding.height = block->header.height;
        finding.segment = path;
        finding.offset = pos;
        finding.detail = "height discontinuity after " +
                         std::to_string(prev_height);
        report.findings.push_back(std::move(finding));
      }
      if (have_prev && block->header.prev_hash != prev_hash) {
        AuditFinding finding;
        finding.source = AuditSource::kChainHeader;
        finding.height = block->header.height;
        finding.segment = path;
        finding.offset = pos;
        finding.detail = "prev_hash does not match the previous logged block";
        report.findings.push_back(std::move(finding));
      }
      if (ledger::Block::ComputeMerkleRoot(block->transactions) !=
          block->header.merkle_root) {
        AuditFinding finding;
        finding.source = AuditSource::kMerkleRoot;
        finding.height = block->header.height;
        finding.segment = path;
        finding.offset = pos;
        finding.detail = "merkle root does not match the transactions";
        report.findings.push_back(std::move(finding));
      }
      CheckBlockRecords(*block, path, pos, &report.findings);
      prev_height = block->header.height;
      prev_hash = block->header.Hash();
      have_prev = true;
    }
    pos += kFrameHeaderBytes + payload_len;
    ++frame_index;
  }
  report.head_height = prev_height;
  return report;
}

}  // namespace audit
}  // namespace provledger
