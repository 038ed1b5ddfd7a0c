// ContinuousAuditor: incremental, tamper-localizing integrity verification
// that runs *while the system ingests*. Where Blockchain::VerifyIntegrity
// and ProvenanceStore::AuditAll are stop-the-world yes/no sweeps, the
// auditor works from a cursor: each pass covers only the blocks accepted
// since the last audited height, reading an immutable ChainView + the
// store's published GraphSnapshot epoch, so it never touches live
// single-owner state and never blocks the committer.
//
// Per-block work items, run inline on the auditing thread:
//   * header link + installed-hash + height + timestamp monotonicity
//   * Merkle root recompute over the transaction leaves
//   * per-transaction signature verification
//   * record decode + canonical re-encode of every prov/record payload
//   * columnar batch encode/decode bit-identity over the block's records
// plus, serially against the snapshot epoch:
//   * record <-> index round-trip (each on-chain record must be present
//     in, and byte-identical to, the published snapshot)
//
// Every violation becomes a structured AuditFinding that localizes the
// damage — block height, transaction index, record id, or chain-log file +
// byte offset — instead of a bare Corruption (the issues+
// confidence reporting surface of the provenance-integrity literature).
//
// Thread safety: RunPass()/Start()/Stop()/Rewind() are serialized
// internally (one pass at a time); the counters and TakeFindings() are
// safe from any thread. The auditor only ever *reads* published immutable
// views, so it coexists with a live committer with no coordination —
// that is the point.

#ifndef PROVLEDGER_AUDIT_AUDITOR_H_
#define PROVLEDGER_AUDIT_AUDITOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "ledger/chain.h"
#include "prov/store.h"

namespace provledger {
namespace audit {

/// \brief Which integrity surface a finding came from.
enum class AuditSource : uint8_t {
  kChainHeader = 0,    // height / hash link / installed hash / timestamp
  kMerkleRoot = 1,     // root recompute mismatch
  kSignature = 2,      // transaction signature failure
  kRecordCodec = 3,    // record decode or canonical re-encode failure
  kStoreIndex = 4,     // chain record vs snapshot round-trip mismatch
  kColumnarCodec = 5,  // columnar batch round-trip not bit-identical
  kChainLog = 6,       // durable chain-log frame (offline audit)
};

const char* AuditSourceName(AuditSource source);

/// \brief One localized integrity violation.
struct AuditFinding {
  AuditSource source = AuditSource::kChainHeader;
  /// Block height the finding localizes to (0 when unknown/not a block).
  uint64_t height = 0;
  /// Transaction index within the block; -1 = whole block.
  int32_t tx_index = -1;
  /// Record id, when the damage localizes to one record.
  std::string record_id;
  /// Chain-log file for offline findings.
  std::string segment;
  /// Byte offset of the damaged frame within `segment`.
  uint64_t offset = 0;
  std::string detail;

  /// "source@height[/tx][ record][ segment+offset]: detail".
  std::string ToString() const;
};

/// \brief Outcome of one incremental pass.
struct AuditReport {
  /// Heights covered this pass, inclusive; from > to means an empty pass
  /// (already caught up to the auditable limit).
  uint64_t from_height = 1;
  uint64_t to_height = 0;
  /// Snapshot epoch the store checks ran against (0 = none acquired).
  uint64_t epoch = 0;
  /// Chain head height in the acquired view.
  uint64_t head_height = 0;
  size_t blocks_audited = 0;
  size_t txs_audited = 0;
  size_t records_checked = 0;
  /// True when the cursor hash no longer matched the view (reorg): the
  /// cursor was rewound to genesis and the adopted chain re-audits.
  bool reorg_rewound = false;
  std::vector<AuditFinding> findings;

  bool clean() const { return findings.empty(); }
};

/// \brief Auditor configuration.
struct ContinuousAuditorOptions {
  /// Cap on blocks verified per pass — the incremental-work knob that
  /// bounds how long a pass can hold the calling thread.
  size_t max_blocks_per_pass = 64;
  /// Background mode: sleep between passes (microseconds).
  uint64_t pass_interval_us = 1000;
  /// Metric registry for the cursor-lag gauge and findings counter
  /// (nullptr = obs::Registry::Default()).
  obs::Registry* registry = nullptr;
};

/// \brief Cursor-driven incremental chain/store auditor; see file comment.
class ContinuousAuditor {
 public:
  /// `store` may be nullptr (chain-only auditing). Neither pointer is
  /// owned; both must outlive the auditor.
  ContinuousAuditor(
      const ledger::Blockchain* chain, const prov::ProvenanceStore* store,
      ContinuousAuditorOptions options = ContinuousAuditorOptions());
  ~ContinuousAuditor();

  ContinuousAuditor(const ContinuousAuditor&) = delete;
  ContinuousAuditor& operator=(const ContinuousAuditor&) = delete;

  /// One incremental pass over at most max_blocks_per_pass blocks past
  /// the cursor, capped at the snapshot epoch's height when a store is
  /// attached (so chain and store are always compared at the same instant).
  /// Advances the cursor past every block that produced no finding; a
  /// block with findings is not re-audited either — the cursor records
  /// it as covered, the findings record the damage.
  AuditReport RunPass() PROV_EXCLUDES(run_mu_);

  /// Start the background loop: RunPass every pass_interval_us on a
  /// dedicated thread. No-op when already running.
  void Start() PROV_EXCLUDES(run_mu_);
  /// Stop and join the background loop (idempotent).
  void Stop();

  /// Reset the cursor to genesis so the next pass re-audits the whole
  /// chain (post-incident sweeps, tamper drills).
  void Rewind() PROV_EXCLUDES(run_mu_);

  /// \name Monitoring counters — safe from any thread.
  /// @{
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  /// Highest height the cursor has covered.
  uint64_t audited_height() const {
    return audited_height_.load(std::memory_order_acquire);
  }
  uint64_t blocks_audited() const {
    return blocks_total_.load(std::memory_order_relaxed);
  }
  uint64_t records_audited() const {
    return records_total_.load(std::memory_order_relaxed);
  }
  uint64_t findings_total() const {
    return findings_total_.load(std::memory_order_relaxed);
  }
  /// Blocks between the current chain head and the audited cursor — how
  /// far behind the auditor is right now. Reads the published chain view
  /// and the atomic cursor only: monitoring this does NOT drain the
  /// findings channel (TakeFindings()) or take the pass lock.
  uint64_t lag_blocks() const;
  /// @}

  /// Drain the findings accumulated across passes (background mode's
  /// reporting channel). Safe from any thread.
  std::vector<AuditFinding> TakeFindings() PROV_EXCLUDES(findings_mu_);

  /// Offline one-shot audit of a ChainLog file, frame by frame: CRC every
  /// frame, decode every block (legacy or columnar body), re-check header
  /// continuity, Merkle roots, and record canonicality. Damage localizes
  /// to file + byte offset + frame index — and, when a damaged frame still
  /// decodes, down to block/tx.
  static AuditReport AuditChainLogFile(const std::string& path);

 private:
  /// Chain-side checks for the block at `height` in `view`; decoded
  /// records are handed back for the serial store phase.
  struct BlockCheck {
    std::vector<AuditFinding> findings;
    /// (tx index, decoded record) for each canonical prov/record payload.
    std::vector<std::pair<uint32_t, prov::ProvenanceRecord>> records;
    size_t txs = 0;
  };
  BlockCheck AuditBlock(const ledger::ChainView& view, uint64_t height) const;
  void BackgroundLoop();

  const ledger::Blockchain* chain_;
  const prov::ProvenanceStore* store_;
  ContinuousAuditorOptions options_;

  // One pass at a time; also guards the cursor.
  std::mutex run_mu_;
  uint64_t cursor_height_ PROV_GUARDED_BY(run_mu_) = 0;
  crypto::Digest cursor_hash_ PROV_GUARDED_BY(run_mu_);

  std::mutex findings_mu_;
  std::vector<AuditFinding> findings_ PROV_GUARDED_BY(findings_mu_);

  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> audited_height_{0};
  std::atomic<uint64_t> blocks_total_{0};
  std::atomic<uint64_t> records_total_{0};
  std::atomic<uint64_t> findings_total_{0};

  std::atomic<bool> stop_{false};
  std::thread background_;
  bool running_ = false;

  // Cached registry cells (resolved once in the constructor).
  obs::Gauge* lag_gauge_;
  obs::Counter* findings_counter_;
};

}  // namespace audit
}  // namespace provledger

#endif  // PROVLEDGER_AUDIT_AUDITOR_H_
