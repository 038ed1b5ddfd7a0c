// Snapshot-isolated reads: an epoch-tagged, immutable view of the
// provenance graph that readers query while the writer keeps appending.
//
// An epoch is a GraphImage (prov/row_group.h): the graph's append-only row
// groups plus a small header (invalidations, edge/subject counters).
// Publishing encodes only the rows committed since the last publication
// into the writer's open row group, seals that group once it holds
// kRowGroupRows rows, and hands the epoch the sealed groups by shared_ptr
// plus a copy of the open group — O(new rows + one group), not O(graph).
// Consecutive epochs therefore share every sealed group's memory, and its
// index too: each group builds one immutable index (postings, usage and
// derivation lists, time order, name tables) on first use, under
// std::call_once, and every reader of every epoch that holds the group
// reads it. A sealed group is indexed once per process, an epoch's copy of
// the open group once per epoch; publishing never builds one. Every reader
// *thread* opens its own cheap ProvenanceGraph over the image (O(groups),
// no per-record work, no private index); records decode into the reader
// only when a query materializes them, so switching epochs frees O(groups)
// buffers plus those records. No lock is taken on the read path beyond
// the one-time index builds: acquiring the current snapshot is one atomic
// shared_ptr load, and everything behind it is immutable.
//
//   writer (committer thread)            readers (any threads)
//   ─────────────────────────            ─────────────────────
//   AnchorPrepared(batch)                auto snap = store.AcquireSnapshot();
//   ...                                  auto reader = snap->OpenReader();
//   store.PublishSnapshot()  ──────────▶ reader->Execute(query);
//   AnchorPrepared(batch)                // still sees the published epoch
//
// Readers therefore observe only fully-committed batches (publication
// happens strictly after a batch commits) and a snapshot acquired once
// stays stable for the whole read transaction, however long the writer
// runs ahead — classic snapshot isolation, at the cost of staleness
// bounded by the publication cadence.

#ifndef PROVLEDGER_PROV_SNAPSHOT_H_
#define PROVLEDGER_PROV_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "prov/graph.h"

namespace provledger {
namespace prov {

class SnapshotReader;

/// \brief One published epoch of the provenance graph: an immutable
/// GraphImage bound to the chain position it was taken at.
///
/// Thread safety: fully immutable after construction — every method is
/// safe from any number of threads concurrently. Holding the shared_ptr
/// keeps the epoch's row groups alive regardless of what the writer
/// publishes next.
class GraphSnapshot {
 public:
  /// Built by ProvenanceStore::PublishSnapshot from
  /// ProvenanceGraph::Image().
  GraphSnapshot(uint64_t epoch, uint64_t chain_height, GraphImage image)
      : epoch_(epoch),
        chain_height_(chain_height),
        image_(std::move(image)),
        record_count_(image_.record_count()),
        body_bytes_(image_.bytes()) {}

  /// Publication sequence number (1 = first publish; strictly increasing).
  uint64_t epoch() const { return epoch_; }
  /// Main-chain height at publication: every block up to and including
  /// this height is reflected in the snapshot, nothing after it.
  uint64_t chain_height() const { return chain_height_; }
  /// Records visible in this epoch.
  size_t record_count() const { return record_count_; }
  /// Every byte backing this epoch: all its row groups, shared ones
  /// included, plus the header.
  size_t body_bytes() const { return body_bytes_; }
  /// The image itself (row groups + header).
  const GraphImage& image() const { return image_; }

  /// \brief Open a reader over this epoch. Each reader owns a graph view
  /// over the shared row groups and their shared indexes, so a reader is
  /// cheap to open (O(groups), no record decoding or indexing up front)
  /// but is NOT itself thread-safe — its decoded-record cache is private;
  /// open one per reader thread, or call
  /// SnapshotReader::Warm() once and share it read-only. Never fails on an
  /// image the store published; the Result is kept for callers that treat
  /// opening as fallible.
  Result<SnapshotReader> OpenReader() const;

 private:
  uint64_t epoch_;
  uint64_t chain_height_;
  GraphImage image_;
  size_t record_count_;
  size_t body_bytes_;
};

/// \brief A queryable view of one snapshot epoch.
///
/// Thread safety: thread-compatible, like any opened ProvenanceGraph — one
/// thread per reader (records decode into the reader on first use). To
/// share a single reader across threads (e.g. for Query::Parallel
/// fan-out), call Warm() first and mutate nothing afterwards; a warmed
/// reader's const methods are pure reads.
class SnapshotReader {
 public:
  /// The epoch this reader sees (never changes, whatever the writer does).
  uint64_t epoch() const { return epoch_; }
  uint64_t chain_height() const { return chain_height_; }

  /// Execute a query against the snapshot (same semantics as
  /// ProvenanceStore::Execute, minus anything newer than the epoch).
  QueryResult Execute(const Query& query) const { return graph_.Run(query); }
  /// Zero-copy streaming overload; the visitor runs on the calling thread.
  size_t Execute(const Query& query,
                 const std::function<bool(const ProvenanceRecord&)>& visit)
      const {
    return graph_.Run(query, visit);
  }

  /// Full graph surface (lineage, cardinality accessors, ...) over the
  /// snapshot.
  const ProvenanceGraph& graph() const { return graph_; }

  /// Materialize everything now (every group index, every record). Trades
  /// the lazy open for concurrent shareability and Query::Parallel
  /// eligibility — see ProvenanceGraph::Warm.
  void Warm() { graph_.Warm(); }

 private:
  friend class GraphSnapshot;
  SnapshotReader(uint64_t epoch, uint64_t chain_height)
      : epoch_(epoch), chain_height_(chain_height) {}

  uint64_t epoch_;
  uint64_t chain_height_;
  ProvenanceGraph graph_;
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_SNAPSHOT_H_
