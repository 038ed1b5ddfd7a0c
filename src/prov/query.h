// Composable provenance queries (§6.1 "Provenance Query").
//
// A Query is a declarative, AND-composed filter over anchored records —
// subject, agent, domain, operation(s), time range, validity, input/output
// entity, Table 1 field equality — plus result modifiers (limit, offset,
// ascending/descending, count-only). It is a plain value type: build one
// with the fluent setters, hand it to ProvenanceGraph::Run() or
// ProvenanceStore::Execute(), reuse or copy it freely.
//
//   prov::Query q;
//   q.WithAgent("alice").Between(t0, t1).WithOperation("update").Limit(20);
//   auto page = store.Execute(q);
//
// Execution is index-backed: a small planner (see graph.cc) estimates the
// candidate count behind each applicable index — subject postings, agent
// postings, input/output usage postings, the global timestamp index — and
// scans only the most selective one, checking the remaining predicates per
// candidate. Results materialize in timestamp order (ties in ingest order),
// or stream through a visitor without copying any record. Against a
// published snapshot (prov/snapshot.h) the same Query runs lock-free while
// the writer keeps anchoring; concurrent readers each open their own
// SnapshotReader.

#ifndef PROVLEDGER_PROV_QUERY_H_
#define PROVLEDGER_PROV_QUERY_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "prov/record.h"

namespace provledger {
namespace prov {

/// \brief Index the planner selected for a query (introspection for tests
/// and benchmarks; callers never need to pick one themselves).
enum class QueryIndex : uint8_t {
  kSubject = 0,    // per-subject postings (time-sorted)
  kAgent = 1,      // per-agent postings (time-sorted)
  kInput = 2,      // used-by postings of the input entity
  kOutput = 3,     // generated-by postings of the output entity
  kTimeRange = 4,  // global timestamp index, binary-searched
  kFullScan = 5,   // global timestamp index, whole extent
};

/// Canonical lowercase name ("subject", "time_range", ...).
const char* QueryIndexName(QueryIndex index);

/// \brief A composable filter + modifier set over provenance records.
///
/// All filters are optional and AND-composed; an empty Query matches every
/// record. Setters return *this so they chain.
///
/// Thread safety: a Query is a plain value — distinct instances are
/// independent, and one instance may be shared across threads once no one
/// mutates it (Run()/Execute() take it by const reference and never write
/// to it).
struct Query {
  /// Sentinel for "no limit".
  static constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

  /// \name Filters.
  /// @{
  /// Exact subject entity.
  std::optional<std::string> subject;
  /// Subject prefix ("case-" matches "case-7/ev1"); composes with
  /// `subject` (exact match is checked first, then the prefix).
  std::optional<std::string> subject_prefix;
  /// Exact agent id (pass the on-chain/anonymized id in privacy mode).
  std::optional<std::string> agent;
  std::optional<Domain> domain;
  /// Operations OR-ed together (empty = any operation).
  std::vector<std::string> operations;
  /// Inclusive time range; either bound may be open.
  std::optional<Timestamp> from;
  std::optional<Timestamp> to;
  /// Validity state: true = only invalidated records, false = only valid.
  std::optional<bool> invalidated;
  /// Records that consumed this entity (PROV `used`).
  std::optional<std::string> input;
  /// Records that produced this entity (PROV `wasGeneratedBy`, including
  /// the implicit subject-version output of output-less records).
  std::optional<std::string> output;
  /// Table 1 / domain field equality, AND-composed (key -> required value).
  std::map<std::string, std::string> field_equals;
  /// @}

  /// \name Modifiers.
  /// @{
  size_t limit = kNoLimit;
  size_t offset = 0;
  /// False = ascending timestamp order (ties in ingest order).
  bool descending = false;
  /// Count matches without materializing records. Limit/offset/order are
  /// ignored; Run() returns the total match count.
  bool count_only = false;
  /// @}

  /// \name Fluent setters.
  /// @{
  Query& WithSubject(std::string s) {
    subject = std::move(s);
    return *this;
  }
  Query& WithSubjectPrefix(std::string prefix) {
    subject_prefix = std::move(prefix);
    return *this;
  }
  Query& WithAgent(std::string a) {
    agent = std::move(a);
    return *this;
  }
  Query& WithDomain(Domain d) {
    domain = d;
    return *this;
  }
  /// Adds one accepted operation (repeat to OR several).
  Query& WithOperation(std::string op) {
    operations.push_back(std::move(op));
    return *this;
  }
  Query& After(Timestamp t) {
    from = t;
    return *this;
  }
  Query& Before(Timestamp t) {
    to = t;
    return *this;
  }
  /// Inclusive [range_from, range_to].
  Query& Between(Timestamp range_from, Timestamp range_to) {
    from = range_from;
    to = range_to;
    return *this;
  }
  Query& OnlyValid() {
    invalidated = false;
    return *this;
  }
  Query& OnlyInvalidated() {
    invalidated = true;
    return *this;
  }
  Query& WithInput(std::string entity) {
    input = std::move(entity);
    return *this;
  }
  Query& WithOutput(std::string entity) {
    output = std::move(entity);
    return *this;
  }
  Query& WithField(std::string key, std::string value) {
    field_equals[std::move(key)] = std::move(value);
    return *this;
  }
  Query& Limit(size_t n) {
    limit = n;
    return *this;
  }
  Query& Offset(size_t n) {
    offset = n;
    return *this;
  }
  Query& Descending() {
    descending = true;
    return *this;
  }
  Query& Ascending() {
    descending = false;
    return *this;
  }
  Query& CountOnly() {
    count_only = true;
    return *this;
  }
  /// @}

  /// True when the record passes every *residual* (non-index) predicate.
  /// The executor re-checks all predicates here — an index only narrows the
  /// candidate set, it never stands in for the check.
  bool Matches(const ProvenanceRecord& record, bool record_invalidated) const;
};

/// \brief Plan trace from ProvenanceGraph::Explain() / ProvenanceStore::
/// Explain(): which index the planner chose, its candidate estimate at
/// plan time vs what the scan actually visited and matched, and per-phase
/// timing. Explain executes the query in count-only mode — no records are
/// materialized and limit/offset do not apply — so rows_matched is the
/// total match count.
struct QueryExplain {
  /// The index the planner chose.
  QueryIndex index_used = QueryIndex::kFullScan;
  /// The planner's candidate estimate for the chosen index when it won
  /// the selectivity contest (before time-window narrowing).
  size_t estimated_candidates = 0;
  /// Candidates the scan actually visited (0 when covers_filters let a
  /// count-only execution skip the scan entirely).
  size_t candidates_scanned = 0;
  /// Records that passed every predicate.
  size_t rows_matched = 0;
  /// The chosen index slice alone guaranteed every filter.
  bool covers_filters = false;
  /// Time spent picking the index and narrowing the slice.
  double plan_seconds = 0;
  /// Time spent scanning candidates (0 when the scan was skipped).
  double scan_seconds = 0;

  /// One-line human form: "index=subject est=120 scanned=87 matched=12
  /// covering=no plan_us=3.1 scan_us=42.0".
  std::string ToString() const;
  /// The same fields as one JSON object.
  std::string ToJson() const;
};

/// \brief Result of a materializing Run()/Execute().
struct QueryResult {
  /// Matching records in the requested order (empty for count-only).
  std::vector<ProvenanceRecord> records;
  /// Count-only queries: total matches. Otherwise records.size().
  size_t count = 0;
  /// The index the planner chose.
  QueryIndex index_used = QueryIndex::kFullScan;
  /// Candidates the chosen index yielded (scanned, not necessarily
  /// matched) — the planner's selectivity in action.
  size_t candidates_scanned = 0;
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_QUERY_H_
