// The provenance graph: a PROV-DM-style DAG (entities, activities, agents;
// used / wasGeneratedBy / wasDerivedFrom / wasAssociatedWith edges) built
// from anchored records, with the query and invalidation machinery the
// paper's §6.1 "Provenance Query" axis calls for:
//
//   * lineage (ancestor entities) and descendants,
//   * composable filtered queries (prov/query.h) executed by a planner
//     that scans only the most selective index,
//   * per-agent, per-subject, and time-range queries (thin Query wrappers),
//   * SciBlock-style timestamp invalidation with downstream cascade
//     (the Figure 4 lifecycle's "invalidate + selective re-execution").
//
// Engine layout (dense-id rewrite): every entity, agent, and record id is
// interned to a contiguous uint32_t on ingest (see prov/intern.h). Rows
// come from two places. Rows of the image a graph was opened from (its
// base) stay in their shared row groups, and every index over them —
// postings, usage and derivation lists, time order, name tables — is the
// group's own immutable GroupIndex (prov/row_group.h), built once per
// group and shared by every graph that reads it. Rows added in memory keep
// per-id vectors of ids: derivation edges as sorted, deduplicated vectors
// (CSR-style), subject/agent postings and a global time list kept in
// (timestamp, row) order with a lazy re-sort. A query reads one slice per
// group plus the in-memory list and merges them by (timestamp, row);
// traversals (Lineage / Descendants / Invalidate / ReexecutionSet) run BFS
// over integer adjacency with bitset visited-sets; strings are only
// touched when materializing results. The public API is unchanged and
// string-based.

#ifndef PROVLEDGER_PROV_GRAPH_H_
#define PROVLEDGER_PROV_GRAPH_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "prov/intern.h"
#include "prov/query.h"
#include "prov/record.h"
#include "prov/row_group.h"

namespace provledger {
namespace prov {

/// \brief PROV-DM node kinds.
enum class NodeKind : uint8_t { kEntity = 0, kActivity = 1, kAgent = 2 };

/// \brief PROV-DM relation kinds (activity-centric subset).
enum class RelationKind : uint8_t {
  kUsed = 0,              // activity  -> entity (input)
  kWasGeneratedBy = 1,    // entity    -> activity
  kWasDerivedFrom = 2,    // entity    -> entity
  kWasAssociatedWith = 3  // activity  -> agent
};

/// \brief In-memory provenance DAG over anchored records.
///
/// Thread safety: NOT internally synchronized — one thread (or external
/// locking) must own all access to a *live* graph. Const query methods may
/// decode records and re-sort the in-memory time lists (mutable state), so
/// even concurrent read-only use of an arbitrary graph requires external
/// synchronization. The exception that makes concurrent reads possible:
/// after Warm() — and with no mutation afterwards — every const method is
/// a pure read, so any number of threads may query the same instance
/// concurrently. The snapshot-isolation machinery (prov/snapshot.h) builds
/// on exactly that contract; alternatively each reader thread opens its own
/// cheap graph over a shared immutable GraphImage and skips Warm()
/// entirely. Row-group indexes are shared between graphs and safe to build
/// from any thread.
class ProvenanceGraph {
 public:
  /// Ingest a (validated) record, creating entity/activity/agent nodes and
  /// PROV edges. Records must have unique ids. Writer-thread only.
  Status AddRecord(const ProvenanceRecord& record);
  /// Move-in overload: the pipeline commit path hands records through
  /// without another deep copy. Same semantics; `record` is consumed only
  /// on success.
  Status AddRecord(ProvenanceRecord&& record);

  bool HasRecord(const std::string& record_id) const;
  /// Dense row of `record_id` — its position in ingest order — or
  /// InternTable::kNone when the graph does not hold it.
  uint32_t RecordRow(const std::string& record_id) const;
  Result<ProvenanceRecord> GetRecord(const std::string& record_id) const;
  size_t record_count() const { return base_rows_ + records_.size(); }
  size_t entity_count() const { return entities_.size(); }
  /// Distinct PROV edges: used + wasGeneratedBy + wasAssociatedWith per
  /// record, plus *deduplicated* derivation pairs — a derivation asserted
  /// by several records counts once (the pre-rewrite engine counted each
  /// assertion).
  size_t edge_count() const { return edge_count_; }

  /// \name Composable queries (§6.1 "Provenance Query").
  /// @{
  /// Execute a Query: a small planner picks the most selective index
  /// (subject/agent postings, input/output usage postings, the global
  /// timestamp index, or a full scan over it), checks the remaining
  /// predicates per candidate, and materializes matches in timestamp order
  /// (ties in ingest order; Descending() reverses). Count-only queries
  /// skip materialization entirely and, when the chosen index already
  /// guarantees every filter, skip the scan too. With Query::Parallel(n)
  /// the candidate scan fans out across the shared thread pool when the
  /// planner estimates it pays (see ShouldFanOut) — results are identical
  /// to serial execution. Safe to call concurrently from many threads only
  /// on a warmed, unmutated graph (see class comment).
  QueryResult Run(const Query& query) const;
  /// EXPLAIN: plan the query, run its candidate scan in count-only mode,
  /// and report the planner's choice — chosen index, candidate estimate at
  /// plan time vs candidates actually scanned and rows matched, plus
  /// per-phase timing. No records are materialized; limit/offset do not
  /// apply. Same thread-safety contract as Run().
  QueryExplain Explain(const Query& query) const;
  /// Zero-copy streaming overload: `visit` receives each match by const
  /// reference, in order, with offset/limit applied; returning false stops
  /// the scan early. Returns the number of records visited. The count_only
  /// modifier is ignored (visiting IS the result). The visitor must not
  /// mutate this graph (no AddRecord/Invalidate): the scan holds pointers
  /// into the index vectors, which mutation may reallocate.
  size_t Run(const Query& query,
             const std::function<bool(const ProvenanceRecord&)>& visit) const;
  /// @}

  /// \name Fixed-shape queries (thin wrappers over Run()).
  /// @{
  /// All ancestor entities `entity` transitively derives from.
  std::vector<std::string> Lineage(const std::string& entity) const;
  /// All entities transitively derived from `entity`.
  std::vector<std::string> Descendants(const std::string& entity) const;
  /// Records touching `subject`, in timestamp order.
  std::vector<ProvenanceRecord> SubjectHistory(
      const std::string& subject) const;
  /// Records performed by `agent`, in timestamp order.
  std::vector<ProvenanceRecord> ByAgent(const std::string& agent) const;
  /// Records with timestamp in [from, to], in timestamp order. Equal
  /// timestamps come back in ingest order even when records were ingested
  /// out of timestamp order: the lazy re-sort orders by (timestamp, dense
  /// record id), and dense ids are assigned in ingest order.
  std::vector<ProvenanceRecord> InRange(Timestamp from, Timestamp to) const;
  /// @}

  /// \name Planner cardinality accessors.
  /// One index lookup per base group plus O(1) for the rows added in
  /// memory; InRangeCount is O(log n) per group and may pay the deferred
  /// in-memory time sort. These are what the query planner reads to
  /// estimate selectivity; exposed for tests, benchmarks, and future
  /// sharded planning.
  /// @{
  /// Distinct agents seen so far.
  size_t agent_count() const { return agents_.size(); }
  /// Distinct entities that have appeared as a record subject.
  size_t subject_count() const { return subject_count_; }
  /// Records whose subject is `subject` (0 if unknown).
  size_t SubjectRecordCount(const std::string& subject) const;
  /// Records performed by `agent` (0 if unknown).
  size_t AgentRecordCount(const std::string& agent) const;
  /// Records that consumed `entity` as an input.
  size_t EntityUseCount(const std::string& entity) const;
  /// Records that produced `entity` (including implicit subject versions).
  size_t EntityGenerationCount(const std::string& entity) const;
  /// Records with timestamp in [from, to].
  size_t InRangeCount(Timestamp from, Timestamp to) const;
  /// @}

  /// \name Invalidation (SciBlock / Figure 4).
  /// @{
  /// Invalidate a record; every record that transitively used its outputs
  /// is cascade-invalidated. Returns the ids invalidated (including the
  /// root), in cascade order.
  Result<std::vector<std::string>> Invalidate(const std::string& record_id,
                                              Timestamp at,
                                              const std::string& reason);
  bool IsInvalidated(const std::string& record_id) const;
  Result<Invalidation> GetInvalidation(const std::string& record_id) const;
  size_t invalidated_count() const {
    return invalidations_ == nullptr ? 0 : invalidations_->size();
  }
  /// Records that would be re-executed to repair the graph after the given
  /// record's invalidation (= the cascade set minus the root).
  std::vector<std::string> ReexecutionSet(const std::string& record_id) const;
  /// @}

  /// \name Row groups (epoch publication and the durable restart path).
  /// Besides its in-memory indexes, the graph keeps its rows as
  /// append-only row groups (prov/row_group.h). Image() brings them up to
  /// date and hands out an immutable GraphImage; Open() turns an image
  /// back into a queryable graph in O(groups). The opened graph never
  /// copies a base-row index into private memory: its rows are read from
  /// the groups' columns, and each group's index (postings, usage and
  /// derivation lists, time order, name tables) is built once, on the
  /// first query that needs that group, and shared with every other graph
  /// over the same group. Records decode when first materialized.
  /// @{
  /// Image of the graph as of now: encodes the rows added since the last
  /// call into the open row group (sealing it, and opening the next, at
  /// kRowGroupRows rows), then returns the sealed groups — shared, never
  /// copied — plus a copy of the open group and the per-epoch header.
  /// O(new rows + one group); builds no group index. `bytes_written`
  /// (optional) receives the bytes encoded or copied. Writer thread only
  /// (the group builder is mutable state).
  GraphImage Image(size_t* bytes_written = nullptr) const;
  /// Replace the whole graph by a view of `image`. O(groups): no record is
  /// decoded, no index is built and no per-record allocation happens here.
  /// Later AddRecord calls index only the rows they add.
  void Open(const GraphImage& image);
  /// @}

  /// \brief Force every deferred structure into its fully-materialized,
  /// canonically-sorted form: build every base group's index, decode every
  /// row-group record, and pay every pending sort of the in-memory lists.
  /// Afterwards — until the next mutation — every const method on this
  /// graph is a pure read, safe to call from any number of threads
  /// concurrently, and parallel query execution (Query::Parallel) becomes
  /// eligible. Idempotent; a no-op on a graph that was never opened from an
  /// image and has no pending sorts.
  void Warm();

 private:
  /// Word-granular visited bitset sized for `n` ids.
  class Bitset {
   public:
    explicit Bitset(size_t n) : words_((n + 63) / 64, 0) {}
    /// Marks `id`; true when it was not yet set.
    bool TestAndSet(uint32_t id) {
      uint64_t& w = words_[id >> 6];
      uint64_t bit = uint64_t{1} << (id & 63);
      if (w & bit) return false;
      w |= bit;
      return true;
    }

   private:
    std::vector<uint64_t> words_;
  };

  /// A planned candidate scan: slices of rid lists, each in (timestamp,
  /// rid) order — one per base group plus one over the in-memory rows —
  /// that together form the candidate list. Input/output plans own their
  /// one sorted, deduplicated list (`owned`). `covers_filters` means every
  /// query predicate is already guaranteed by the index + slices, so
  /// count-only queries need no scan. Plans point into themselves, so a
  /// plan is filled in place and never copied.
  struct QueryPlan {
    QueryIndex index = QueryIndex::kFullScan;
    std::vector<IdSpan> slices;
    std::vector<uint32_t> owned;
    size_t total = 0;
    bool covers_filters = false;
    /// The winning index's candidate estimate when it won the selectivity
    /// contest (before time-window narrowing) — what Explain reports
    /// against the actual scan size.
    size_t estimate = 0;

    size_t size() const { return total; }
    void Add(IdSpan slice) {
      if (slice.empty()) return;
      slices.push_back(slice);
      total += slice.size();
    }
  };

  /// Walks a plan's slices as one list in (timestamp, rid) order,
  /// ascending or descending, by a k-way merge over the slice heads.
  class PlanCursor {
   public:
    PlanCursor(const ProvenanceGraph& graph, const QueryPlan& plan,
               bool descending);
    /// The next rid in order; false once every slice is exhausted.
    bool Next(uint32_t* rid);
    /// Step over the next `n` rids (slice arithmetic for one slice).
    void Skip(size_t n);

   private:
    struct Head {
      Timestamp ts;
      uint32_t rid;
      const uint32_t* next;  // the rid after the head, in walk order
      const uint32_t* stop;
    };
    void Load(Head* head) const;

    const ProvenanceGraph& graph_;
    bool descending_;
    std::vector<Head> heads_;
  };

  /// Pick the most selective index for `query` (estimates = candidate
  /// counts from the cardinality accessors) and fill `plan`. A filter
  /// naming an unknown subject/agent/entity yields an empty plan.
  void PlanQuery(const Query& query, QueryPlan* plan) const;
  /// True when Run should fan the candidate scan out across the shared
  /// thread pool: the query asks for it, the planner's candidate estimate
  /// says the scan is big enough to amortize the thread handoff, the plan
  /// needs per-candidate predicate checks at all, and every record is
  /// already decoded (concurrent workers would race on first-touch decoding
  /// of row-group records).
  bool ShouldFanOut(const Query& query, const QueryPlan& plan) const;
  /// Parallel candidate scan: rids of plan positions whose record passes
  /// every predicate, in ascending (timestamp, rid) order. Only called when
  /// ShouldFanOut — all state it touches is read-only by then.
  std::vector<uint32_t> ParallelMatch(const Query& query,
                                      const QueryPlan& plan) const;
  /// Narrow a (timestamp, rid)-ordered rid list to the query's window.
  IdSpan NarrowByTime(std::optional<Timestamp> from,
                      std::optional<Timestamp> to, IdSpan list) const;
  /// Every row with a timestamp in the window, as one slice per group
  /// (groups whose time bounds miss the window are skipped) plus the
  /// in-memory slice; empty slices are left out.
  void TimeSlices(std::optional<Timestamp> from, std::optional<Timestamp> to,
                  std::vector<IdSpan>* out) const;

  /// \name Row access: base rows read their group, rows added in memory
  /// the in-memory columns.
  /// @{
  const RowGroup& GroupOf(uint32_t rid) const {
    return *base_[rid / kRowGroupRows];
  }
  Timestamp TimeOf(uint32_t rid) const {
    return rid < base_rows_ ? GroupOf(rid).timestamp[rid % kRowGroupRows]
                            : ts_[rid - base_rows_];
  }
  IdSpan Inputs(uint32_t rid) const {
    if (rid < base_rows_) return GroupOf(rid).inputs_of(rid % kRowGroupRows);
    const size_t row = rid - base_rows_;
    return {in_ids_.data() + (row == 0 ? 0 : in_end_[row - 1]),
            in_ids_.data() + in_end_[row]};
  }
  IdSpan Outputs(uint32_t rid) const {
    if (rid < base_rows_) return GroupOf(rid).outputs_of(rid % kRowGroupRows);
    const size_t row = rid - base_rows_;
    return {out_ids_.data() + (row == 0 ? 0 : out_end_[row - 1]),
            out_ids_.data() + out_end_[row]};
  }
  /// The record for `rid`: rows of an opened image decode from their row
  /// group on first access, rows added in memory are plain reads.
  const ProvenanceRecord& RecordAt(uint32_t rid) const {
    if (rid >= base_rows_) return records_[rid - base_rows_];
    if (rid < base_slot_.size() && base_slot_[rid] != 0) {
      const size_t slot = base_slot_[rid] - 1;
      return decoded_[slot / kDecodedChunk][slot % kDecodedChunk];
    }
    return DecodeBaseRecord(rid);
  }
  const ProvenanceRecord& DecodeBaseRecord(uint32_t rid) const;
  bool IsInvalid(uint32_t rid) const {
    return invalidations_ != nullptr && invalidations_->count(rid) > 0;
  }
  /// @}

  /// \name Per-id lookups over base groups and in-memory rows.
  /// @{
  /// Append `key`'s non-empty list in `lists` of every base group that may
  /// hold it (`agent_key`: an agent id, else an entity id), oldest group
  /// first.
  void BaseLists(IdLists GroupIndex::*lists, uint32_t key, bool agent_key,
                 std::vector<IdSpan>* out) const;
  /// `key`'s in-memory postings in `lists`, sorted first; empty if none.
  IdSpan MemoryPostings(std::vector<std::vector<uint32_t>>* lists,
                        std::vector<uint8_t>* dirty, uint32_t key) const;
  /// Whether the base rows already hold `eid` as a subject, or the
  /// derivation pair (out <- in).
  bool BaseHasSubject(uint32_t eid) const;
  bool BaseHasDerivation(uint32_t out, uint32_t in) const;
  /// @}

  /// \name Per-row index maintenance for rows added in memory.
  /// @{
  void IndexUsage(uint32_t rid);
  /// Returns the derivation pairs that were new to the whole graph.
  size_t IndexDerivations(uint32_t rid);
  /// @}

  /// \name Row-group builder (Image()).
  /// @{
  /// Adopt an opened image's groups as the builder state (first Image()
  /// after Open()).
  void EnsureBuilder() const;
  /// Encode rows [from, to) into open_group_; they must fit in it.
  void EncodeRows(uint32_t from, uint32_t to) const;
  /// @}

  uint32_t InternEntity(std::string_view entity);
  /// Direct downstream consumers of `rid`'s outputs, appended to `out`
  /// (deduplicated via `seen`) in ingest order; `lists` is scratch.
  void AppendDownstream(uint32_t rid, Bitset* seen, std::vector<IdSpan>* lists,
                        std::vector<uint32_t>* out) const;
  /// BFS closure of records downstream of `rid` (excluding `rid`), in
  /// cascade order — shared by Invalidate and ReexecutionSet so their
  /// orders always agree.
  std::vector<uint32_t> DownstreamClosure(uint32_t rid) const;
  /// BFS over derivations (`ancestors`: derived_from, else derivations),
  /// visiting each entity's neighbours in ascending id.
  std::vector<std::string> EntityClosure(bool ancestors,
                                         const std::string& start) const;
  /// Append `rid` to an in-memory list kept in (timestamp, rid) order; an
  /// out-of-order timestamp just flags the list dirty so ingest stays O(1)
  /// and the sort is paid once, on the next query of that list.
  void AppendByTime(std::vector<uint32_t>* list, uint32_t rid,
                    uint8_t* dirty);
  /// Sort-on-demand counterpart of AppendByTime.
  void EnsureTimeSorted(std::vector<uint32_t>* list, uint8_t* dirty) const;
  /// Sort rids into (timestamp, rid) order.
  void SortByTime(std::vector<uint32_t>* list) const;

  InternTable record_ids_;
  InternTable entities_;
  InternTable agents_;

  /// Rows [0, base_rows_) live in base_ (the image this graph was opened
  /// from); later rows were added in memory and live in records_.
  std::vector<std::shared_ptr<const RowGroup>> base_;
  size_t base_rows_ = 0;
  /// Decoded base records, in decode order, in chunks of kDecodedChunk
  /// (contiguous records served reads measurably faster than a heap cell
  /// per record; chunks keep references stable). base_slot_[rid] is 1 +
  /// the record's decode index, 0 while undecoded; it is sized on the
  /// first decode, never at Open().
  static constexpr size_t kDecodedChunk = 1024;
  mutable std::vector<uint32_t> base_slot_;
  mutable std::vector<std::unique_ptr<ProvenanceRecord[]>> decoded_;
  mutable size_t base_decoded_ = 0;
  /// Rows added in memory, by rid - base_rows_.
  std::vector<ProvenanceRecord> records_;

  // Per-row columns of the rows added in memory, by rid - base_rows_:
  // traversals and time narrowing never touch strings.
  std::vector<uint32_t> subject_col_;
  std::vector<uint32_t> agent_col_;
  std::vector<Timestamp> ts_;
  std::vector<uint32_t> in_end_, in_ids_;
  std::vector<uint32_t> out_end_, out_ids_;

  // Per-entity adjacency of the rows added in memory, indexed by entity id
  // (sized by AddRecord only; a reader never allocates them).
  std::vector<std::vector<uint32_t>> generated_by_;  // record ids
  std::vector<std::vector<uint32_t>> used_by_;       // record ids
  std::vector<std::vector<uint32_t>> derived_from_;  // entity ids, sorted
  std::vector<std::vector<uint32_t>> derivations_;   // entity ids, sorted

  // Time-ordered lists of the rows added in memory (subject / agent /
  // global). Lists touched by an out-of-order ingest carry a dirty flag
  // and are re-sorted lazily on query, hence mutable.
  mutable std::vector<std::vector<uint32_t>> by_subject_;
  mutable std::vector<uint8_t> subject_dirty_;
  mutable std::vector<std::vector<uint32_t>> by_agent_;
  mutable std::vector<uint8_t> agent_dirty_;
  mutable std::vector<uint32_t> by_time_;
  mutable uint8_t time_dirty_ = 0;

  /// Immutable and shared with published images; Invalidate() swaps in a
  /// new map. nullptr = nothing invalidated.
  std::shared_ptr<const InvalidationMap> invalidations_;
  size_t edge_count_ = 0;
  /// Distinct entities that have appeared as a subject (kept incrementally
  /// so the planner accessor stays O(1)).
  size_t subject_count_ = 0;

  // Row-group builder: rows [0, encoded_rows_) are in sealed_groups_ +
  // open_group_. Image() is logically const (it caches encodings of
  // existing rows), hence mutable.
  mutable std::vector<std::shared_ptr<const RowGroup>> sealed_groups_;
  mutable RowGroup open_group_;
  mutable uint32_t encoded_rows_ = 0;
  mutable bool builder_ready_ = true;
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_GRAPH_H_
