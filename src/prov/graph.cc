#include "prov/graph.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/thread_pool.h"

namespace provledger {
namespace prov {

uint32_t ProvenanceGraph::InternEntity(std::string_view entity) {
  uint32_t eid = entities_.Intern(entity);
  if (eid >= generated_by_.size()) {
    generated_by_.resize(eid + 1);
    used_by_.resize(eid + 1);
    derived_from_.resize(eid + 1);
    derivations_.resize(eid + 1);
    by_subject_.resize(eid + 1);
    subject_dirty_.resize(eid + 1, 0);
  }
  return eid;
}

namespace {
// Sorted-vector set insert; true when `x` was newly added.
bool InsertSortedUnique(std::vector<uint32_t>* v, uint32_t x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}
}  // namespace

void ProvenanceGraph::AppendByTime(std::vector<uint32_t>* postings,
                                   uint32_t rid, uint8_t* dirty) {
  if (!postings->empty() && ts_[postings->back()] > ts_[rid]) {
    *dirty = 1;
  }
  postings->push_back(rid);
}

void ProvenanceGraph::EnsureTimeSorted(std::vector<uint32_t>* postings,
                                       uint8_t* dirty) const {
  if (!*dirty) return;
  // Record ids increase in ingest order, so sorting (timestamp, rid)
  // reproduces the documented "(timestamp, ingest)" tie order.
  std::sort(postings->begin(), postings->end(),
            [this](uint32_t a, uint32_t b) {
              Timestamp ta = ts_[a], tb = ts_[b];
              return ta != tb ? ta < tb : a < b;
            });
  *dirty = 0;
}

Status ProvenanceGraph::AddRecord(const ProvenanceRecord& record) {
  return AddRecord(ProvenanceRecord(record));
}

Status ProvenanceGraph::AddRecord(ProvenanceRecord&& record) {
  PROVLEDGER_RETURN_NOT_OK(record.Validate());
  if (record_ids_.Find(record.record_id) != InternTable::kNone) {
    return Status::AlreadyExists("record already in graph: " +
                                 record.record_id);
  }

  // An opened graph must rebuild everything before its first mutation:
  // ingest appends into every derived structure.
  EnsureUsageLoaded();
  EnsureDerivationsLoaded();
  EnsurePostingsLoaded();
  EnsureTimeIndexLoaded();

  uint32_t rid = record_ids_.Intern(record.record_id);
  records_.push_back(std::move(record));
  // The moved-in record's strings stay valid inside records_; index off
  // that resting place instead of the consumed parameter.
  const ProvenanceRecord& rec = records_.back();
  ts_.push_back(rec.timestamp);
  const uint32_t subject = InternEntity(rec.subject);
  subject_col_.push_back(subject);
  for (const auto& in : rec.inputs) in_ids_.push_back(InternEntity(in));
  in_end_.push_back(static_cast<uint32_t>(in_ids_.size()));
  // Effective outputs: if none are declared, the operation produces a new
  // logical version of the subject entity.
  if (rec.outputs.empty()) {
    out_ids_.push_back(subject);
  } else {
    for (const auto& out : rec.outputs) out_ids_.push_back(InternEntity(out));
  }
  out_end_.push_back(static_cast<uint32_t>(out_ids_.size()));
  const uint32_t aid = agents_.Intern(rec.agent);
  agent_col_.push_back(aid);
  if (aid >= by_agent_.size()) {
    by_agent_.resize(aid + 1);
    agent_dirty_.resize(aid + 1, 0);
  }

  // used + wasGeneratedBy per input/output, wasDerivedFrom per new
  // (output, input) pair, wasAssociatedWith (activity -> agent) once.
  IndexUsage(rid);
  edge_count_ += Inputs(rid).size() + Outputs(rid).size() +
                 IndexDerivations(rid) + 1;
  if (by_subject_[subject].empty()) ++subject_count_;
  AppendByTime(&by_subject_[subject], rid, &subject_dirty_[subject]);
  AppendByTime(&by_agent_[aid], rid, &agent_dirty_[aid]);
  IndexTime(rid);
  return Status::OK();
}

bool ProvenanceGraph::HasRecord(const std::string& record_id) const {
  return RecordRow(record_id) != InternTable::kNone;
}

uint32_t ProvenanceGraph::RecordRow(const std::string& record_id) const {
  return record_ids_.Find(record_id);
}

Result<ProvenanceRecord> ProvenanceGraph::GetRecord(
    const std::string& record_id) const {
  uint32_t rid = record_ids_.Find(record_id);
  if (rid == InternTable::kNone) {
    return Status::NotFound("no such record: " + record_id);
  }
  return RecordAt(rid);
}

std::vector<std::string> ProvenanceGraph::EntityClosure(
    const std::vector<std::vector<uint32_t>>& adjacency,
    const std::string& start) const {
  std::vector<std::string> out;
  uint32_t s = entities_.Find(start);
  if (s == InternTable::kNone) return out;

  Bitset seen(entities_.size());
  seen.TestAndSet(s);
  // `reached` doubles as the BFS queue: ids are only appended, and `head`
  // walks it front to back.
  std::vector<uint32_t> reached;
  reached.push_back(s);
  for (size_t head = 0; head < reached.size(); ++head) {
    for (uint32_t next : adjacency[reached[head]]) {
      if (seen.TestAndSet(next)) reached.push_back(next);
    }
  }
  out.reserve(reached.size() - 1);
  for (size_t i = 1; i < reached.size(); ++i) {
    out.emplace_back(entities_.Name(reached[i]));
  }
  return out;
}

std::vector<std::string> ProvenanceGraph::Lineage(
    const std::string& entity) const {
  EnsureDerivationsLoaded();
  return EntityClosure(derived_from_, entity);
}

std::vector<std::string> ProvenanceGraph::Descendants(
    const std::string& entity) const {
  EnsureDerivationsLoaded();
  return EntityClosure(derivations_, entity);
}

std::vector<ProvenanceRecord> ProvenanceGraph::SubjectHistory(
    const std::string& subject) const {
  return Run(Query().WithSubject(subject)).records;
}

std::vector<ProvenanceRecord> ProvenanceGraph::ByAgent(
    const std::string& agent) const {
  return Run(Query().WithAgent(agent)).records;
}

std::vector<ProvenanceRecord> ProvenanceGraph::InRange(Timestamp from,
                                                       Timestamp to) const {
  return Run(Query().Between(from, to)).records;
}

// ---------------------------------------------------------------------------
// Composable query execution.
// ---------------------------------------------------------------------------

void ProvenanceGraph::EnsureGlobalTimeSorted() const {
  EnsureTimeIndexLoaded();
  if (!time_dirty_) return;
  // Pair order (timestamp, rid) reproduces the documented tie order: rids
  // are assigned in ingest order, so equal timestamps stay ingest-ordered.
  std::sort(by_time_.begin(), by_time_.end());
  time_dirty_ = 0;
}

std::pair<size_t, size_t> ProvenanceGraph::TimeIndexSlice(
    std::optional<Timestamp> from, std::optional<Timestamp> to) const {
  EnsureGlobalTimeSorted();
  size_t lo =
      from ? static_cast<size_t>(
                 std::lower_bound(by_time_.begin(), by_time_.end(),
                                  std::pair<Timestamp, uint32_t>{*from, 0}) -
                 by_time_.begin())
           : 0;
  size_t hi = to ? static_cast<size_t>(
                       std::upper_bound(
                           by_time_.begin(), by_time_.end(),
                           std::pair<Timestamp, uint32_t>{*to,
                                                          InternTable::kNone}) -
                       by_time_.begin())
                 : by_time_.size();
  if (hi < lo) hi = lo;
  return {lo, hi};
}

void ProvenanceGraph::NarrowByTime(const Query& query,
                                   const std::vector<uint32_t>& list,
                                   size_t* lo, size_t* hi) const {
  if (query.from) {
    *lo = std::lower_bound(list.begin(), list.end(), *query.from,
                           [this](uint32_t rid, Timestamp t) {
                             return ts_[rid] < t;
                           }) -
          list.begin();
  }
  if (query.to) {
    *hi = std::upper_bound(list.begin() + *lo, list.end(), *query.to,
                           [this](Timestamp t, uint32_t rid) {
                             return t < ts_[rid];
                           }) -
          list.begin();
  }
  if (*hi < *lo) *hi = *lo;
}

ProvenanceGraph::QueryPlan ProvenanceGraph::PlanQuery(
    const Query& query) const {
  QueryPlan plan;
  EnsureColumns();  // time narrowing and postings sorts read ts_
  // An impossible time range matches nothing regardless of indexes.
  if (query.from && query.to && *query.from > *query.to) return plan;

  // Candidate estimates per applicable index; a filter naming an unknown
  // key is an immediate empty result. kNone marks "not applicable".
  constexpr size_t kNotApplicable = std::numeric_limits<size_t>::max();
  size_t subject_n = kNotApplicable, agent_n = kNotApplicable;
  size_t input_n = kNotApplicable, output_n = kNotApplicable;
  size_t range_n = kNotApplicable;
  uint32_t subject_eid = InternTable::kNone, agent_aid = InternTable::kNone;
  uint32_t input_eid = InternTable::kNone, output_eid = InternTable::kNone;
  size_t range_lo = 0, range_hi = 0;

  if (query.subject) {
    EnsurePostingsLoaded();
    subject_eid = entities_.Find(*query.subject);
    if (subject_eid == InternTable::kNone) return plan;
    subject_n = by_subject_[subject_eid].size();
  }
  if (query.agent) {
    EnsurePostingsLoaded();
    agent_aid = agents_.Find(*query.agent);
    if (agent_aid == InternTable::kNone || agent_aid >= by_agent_.size()) {
      return plan;
    }
    agent_n = by_agent_[agent_aid].size();
  }
  if (query.input) {
    EnsureUsageLoaded();
    input_eid = entities_.Find(*query.input);
    if (input_eid == InternTable::kNone) return plan;
    input_n = used_by_[input_eid].size();
  }
  if (query.output) {
    EnsureUsageLoaded();
    output_eid = entities_.Find(*query.output);
    if (output_eid == InternTable::kNone) return plan;
    output_n = generated_by_[output_eid].size();
  }
  if (query.from || query.to) {
    std::tie(range_lo, range_hi) = TimeIndexSlice(query.from, query.to);
    range_n = range_hi - range_lo;
  }

  // Most selective index wins; ties break toward the cheaper scan shape
  // (postings lists are already time-sorted, input/output lists need a
  // sort, the time index needs no per-candidate key check).
  struct Option {
    QueryIndex index;
    size_t estimate;
  };
  const Option options[] = {{QueryIndex::kSubject, subject_n},
                            {QueryIndex::kAgent, agent_n},
                            {QueryIndex::kTimeRange, range_n},
                            {QueryIndex::kInput, input_n},
                            {QueryIndex::kOutput, output_n}};
  QueryIndex best = QueryIndex::kFullScan;
  size_t best_n = record_count();
  for (const Option& option : options) {
    if (option.estimate < best_n) {
      best = option.index;
      best_n = option.estimate;
    }
  }

  plan.index = best;
  plan.estimate = best_n;
  switch (best) {
    case QueryIndex::kSubject:
      EnsureTimeSorted(&by_subject_[subject_eid], &subject_dirty_[subject_eid]);
      plan.list = &by_subject_[subject_eid];
      break;
    case QueryIndex::kAgent:
      EnsureTimeSorted(&by_agent_[agent_aid], &agent_dirty_[agent_aid]);
      plan.list = &by_agent_[agent_aid];
      break;
    case QueryIndex::kInput:
    case QueryIndex::kOutput: {
      // Usage postings are appended in ingest order with one entry per
      // mention (a record can list an entity twice); the owned copy is
      // sorted into the canonical (timestamp, rid) order and deduplicated
      // so each record appears once.
      plan.owned = best == QueryIndex::kInput ? used_by_[input_eid]
                                              : generated_by_[output_eid];
      std::sort(plan.owned.begin(), plan.owned.end(),
                [this](uint32_t a, uint32_t b) {
                  Timestamp ta = ts_[a], tb = ts_[b];
                  return ta != tb ? ta < tb : a < b;
                });
      plan.owned.erase(std::unique(plan.owned.begin(), plan.owned.end()),
                       plan.owned.end());
      plan.use_owned = true;
      break;
    }
    case QueryIndex::kTimeRange:
      plan.lo = range_lo;
      plan.hi = range_hi;
      break;
    case QueryIndex::kFullScan:
      EnsureGlobalTimeSorted();
      plan.hi = by_time_.size();
      break;
  }
  if (plan.use_owned || plan.list != nullptr) {
    const std::vector<uint32_t>& candidates =
        plan.use_owned ? plan.owned : *plan.list;
    plan.hi = candidates.size();
    NarrowByTime(query, candidates, &plan.lo, &plan.hi);
  }

  // Does the slice alone guarantee every filter? (Time bounds are always
  // honored: postings slices are narrowed above, and a present time range
  // beats a full scan in the selectivity contest.)
  plan.covers_filters =
      !query.subject_prefix && !query.domain && query.operations.empty() &&
      !query.invalidated && query.field_equals.empty() &&
      (!query.subject || best == QueryIndex::kSubject) &&
      (!query.agent || best == QueryIndex::kAgent) &&
      (!query.input || best == QueryIndex::kInput) &&
      (!query.output || best == QueryIndex::kOutput);
  return plan;
}

// Fan-out only pays once each worker has a few thousand candidates to
// check: below that, the queue handoff and wake-up dominate the scan.
static constexpr size_t kMinCandidatesPerWorker = 2048;

bool ProvenanceGraph::ShouldFanOut(const Query& query,
                                   const QueryPlan& plan) const {
  if (query.parallelism <= 1) return false;
  // A covering plan needs no per-candidate checks — offset/limit become
  // slice arithmetic, which no thread pool can beat.
  if (plan.covers_filters) return false;
  // Row-group records decode on first touch; concurrent workers would
  // race on that mutation. Warm() lifts the restriction.
  if (base_decoded_ < base_rows_) return false;
  if (plan.size() < 2 * kMinCandidatesPerWorker) return false;
  // Parallel workers cannot stop early, so a query satisfied by a small
  // result prefix usually does better with the serial early-exit —
  // unless its page reaches deep into the candidate range anyway.
  if (!query.count_only && query.limit != Query::kNoLimit) {
    const size_t wanted = query.offset > Query::kNoLimit - query.limit
                              ? Query::kNoLimit
                              : query.offset + query.limit;
    if (wanted < plan.size() / 4) return false;
  }
  return true;
}

std::vector<uint32_t> ProvenanceGraph::ParallelMatch(
    const Query& query, const QueryPlan& plan) const {
  // Planning already hydrated and sorted everything this scan reads (the
  // chosen index, the global time index, record metadata), so the workers
  // below only perform pure reads — no locks needed.
  common::ThreadPool& pool = common::ThreadPool::Shared();
  const size_t n = plan.size();
  size_t workers = std::min(query.parallelism, pool.size() + 1);
  workers = std::min(workers, n / kMinCandidatesPerWorker);
  workers = std::max<size_t>(workers, 1);
  const size_t chunk = (n + workers - 1) / workers;

  std::vector<std::vector<uint32_t>> found(workers);
  auto scan = [&](size_t w) {
    const size_t lo = w * chunk;
    const size_t hi = std::min(n, lo + chunk);
    std::vector<uint32_t>& out = found[w];
    for (size_t i = lo; i < hi; ++i) {
      uint32_t rid = PlanRidAt(plan, i);
      if (query.Matches(RecordAt(rid), IsInvalid(rid))) {
        out.push_back(rid);
      }
    }
  };
  common::WaitGroup wg;
  wg.Add(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    pool.Submit([&, w] {
      scan(w);
      wg.Done();
    });
  }
  scan(0);  // the calling thread pulls its weight instead of idling
  wg.Wait();

  // Chunks are contiguous plan slices, so in-order concatenation restores
  // the exact ascending (timestamp, ingest) order of the serial scan.
  size_t total = 0;
  for (const auto& f : found) total += f.size();
  std::vector<uint32_t> matches;
  matches.reserve(total);
  for (auto& f : found) {
    matches.insert(matches.end(), f.begin(), f.end());
  }
  return matches;
}

namespace {
// Visit the page [offset, offset + limit) of `matches` (ascending plan
// order) in the requested direction, calling fn(rid) until it declines.
// The one home for the descending-page index arithmetic, so the
// materializing and visitor fan-out paths can never diverge.
template <typename Fn>
void ForEachPageMatch(const std::vector<uint32_t>& matches, size_t offset,
                      size_t limit, bool descending, Fn&& fn) {
  size_t start = std::min(offset, matches.size());
  size_t take = std::min(limit, matches.size() - start);
  for (size_t i = 0; i < take; ++i) {
    size_t pos = start + i;
    if (!fn(matches[descending ? matches.size() - 1 - pos : pos])) break;
  }
}
}  // namespace

QueryResult ProvenanceGraph::Run(const Query& query) const {
  QueryResult result;
  QueryPlan plan = PlanQuery(query);
  result.index_used = plan.index;
  result.candidates_scanned = plan.size();

  if (ShouldFanOut(query, plan)) {
    std::vector<uint32_t> matches = ParallelMatch(query, plan);
    if (query.count_only) {
      result.count = matches.size();
      return result;
    }
    result.records.reserve(std::min(query.limit, matches.size()));
    ForEachPageMatch(matches, query.offset, query.limit, query.descending,
                     [&](uint32_t rid) {
                       result.records.push_back(RecordAt(rid));
                       return true;
                     });
    result.count = result.records.size();
    return result;
  }

  if (query.count_only) {
    if (plan.covers_filters) {
      result.count = plan.size();
      result.candidates_scanned = 0;  // no per-record work at all
      return result;
    }
    for (size_t i = 0; i < plan.size(); ++i) {
      uint32_t rid = PlanRidAt(plan, i);
      if (query.Matches(RecordAt(rid), IsInvalid(rid))) {
        ++result.count;
      }
    }
    return result;
  }

  if (plan.covers_filters) {
    // Every candidate is a match, so offset/limit become slice arithmetic
    // and no per-record predicate or invalidation lookup runs — the legacy
    // wrappers (SubjectHistory/ByAgent/InRange) stay pure materialization.
    size_t start = std::min(query.offset, plan.size());
    size_t take = std::min(query.limit, plan.size() - start);
    result.records.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      size_t pos = start + i;
      result.records.push_back(RecordAt(PlanRidAt(
          plan, query.descending ? plan.size() - 1 - pos : pos)));
    }
    result.count = take;
    return result;
  }

  size_t skipped = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    uint32_t rid = PlanRidAt(plan, query.descending ? plan.size() - 1 - i : i);
    if (!query.Matches(RecordAt(rid), IsInvalid(rid))) continue;
    if (skipped < query.offset) {
      ++skipped;
      continue;
    }
    if (result.records.size() >= query.limit) break;
    result.records.push_back(RecordAt(rid));
  }
  result.count = result.records.size();
  return result;
}

QueryExplain ProvenanceGraph::Explain(const Query& query) const {
  QueryExplain out;
  const auto plan_start = std::chrono::steady_clock::now();
  QueryPlan plan = PlanQuery(query);
  const auto plan_end = std::chrono::steady_clock::now();
  out.index_used = plan.index;
  out.estimated_candidates = plan.estimate;
  out.covers_filters = plan.covers_filters;
  out.plan_seconds =
      std::chrono::duration<double>(plan_end - plan_start).count();
  if (plan.covers_filters) {
    // Same short-circuit a count-only execution takes: the slice IS the
    // answer, no candidate is ever visited.
    out.rows_matched = plan.size();
    return out;
  }
  out.candidates_scanned = plan.size();
  for (size_t i = 0; i < plan.size(); ++i) {
    uint32_t rid = PlanRidAt(plan, i);
    if (query.Matches(RecordAt(rid), IsInvalid(rid))) {
      ++out.rows_matched;
    }
  }
  out.scan_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - plan_end)
                         .count();
  return out;
}

size_t ProvenanceGraph::Run(
    const Query& query,
    const std::function<bool(const ProvenanceRecord&)>& visit) const {
  QueryPlan plan = PlanQuery(query);

  if (ShouldFanOut(query, plan)) {
    // Predicate checks fan out; the visitor itself stays on the calling
    // thread, in order — callers never need a thread-safe visitor.
    std::vector<uint32_t> matches = ParallelMatch(query, plan);
    size_t visited = 0;
    ForEachPageMatch(matches, query.offset, query.limit, query.descending,
                     [&](uint32_t rid) {
                       ++visited;
                       return visit(RecordAt(rid));
                     });
    return visited;
  }

  if (plan.covers_filters) {
    size_t start = std::min(query.offset, plan.size());
    size_t take = std::min(query.limit, plan.size() - start);
    size_t visited = 0;
    for (size_t i = 0; i < take; ++i) {
      size_t pos = start + i;
      ++visited;
      if (!visit(RecordAt(PlanRidAt(
              plan, query.descending ? plan.size() - 1 - pos : pos)))) {
        break;
      }
    }
    return visited;
  }

  size_t skipped = 0, visited = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    uint32_t rid = PlanRidAt(plan, query.descending ? plan.size() - 1 - i : i);
    if (!query.Matches(RecordAt(rid), IsInvalid(rid))) continue;
    if (skipped < query.offset) {
      ++skipped;
      continue;
    }
    if (visited >= query.limit) break;
    ++visited;
    if (!visit(RecordAt(rid))) break;
  }
  return visited;
}

// ---------------------------------------------------------------------------
// Planner cardinality accessors.
// ---------------------------------------------------------------------------

size_t ProvenanceGraph::SubjectRecordCount(const std::string& subject) const {
  EnsurePostingsLoaded();
  uint32_t eid = entities_.Find(subject);
  return eid == InternTable::kNone ? 0 : by_subject_[eid].size();
}

size_t ProvenanceGraph::AgentRecordCount(const std::string& agent) const {
  EnsurePostingsLoaded();
  uint32_t aid = agents_.Find(agent);
  return aid == InternTable::kNone || aid >= by_agent_.size()
             ? 0
             : by_agent_[aid].size();
}

size_t ProvenanceGraph::EntityUseCount(const std::string& entity) const {
  EnsureUsageLoaded();
  uint32_t eid = entities_.Find(entity);
  return eid == InternTable::kNone ? 0 : used_by_[eid].size();
}

size_t ProvenanceGraph::EntityGenerationCount(
    const std::string& entity) const {
  EnsureUsageLoaded();
  uint32_t eid = entities_.Find(entity);
  return eid == InternTable::kNone ? 0 : generated_by_[eid].size();
}

size_t ProvenanceGraph::InRangeCount(Timestamp from, Timestamp to) const {
  if (from > to) return 0;
  auto [lo, hi] = TimeIndexSlice(from, to);
  return hi - lo;
}

void ProvenanceGraph::AppendDownstream(uint32_t rid, Bitset* seen,
                                       std::vector<uint32_t>* out) const {
  for (uint32_t eid : Outputs(rid)) {
    for (uint32_t consumer : used_by_[eid]) {
      if (consumer != rid && seen->TestAndSet(consumer)) {
        out->push_back(consumer);
      }
    }
  }
}

std::vector<uint32_t> ProvenanceGraph::DownstreamClosure(uint32_t rid) const {
  EnsureUsageLoaded();  // used_by_ + the output columns drive the BFS
  // BFS over the consumption graph: every record that used (transitively)
  // this record's outputs (SciBlock semantics).
  Bitset seen(record_count());
  seen.TestAndSet(rid);
  std::vector<uint32_t> reached;
  AppendDownstream(rid, &seen, &reached);
  for (size_t head = 0; head < reached.size(); ++head) {
    AppendDownstream(reached[head], &seen, &reached);
  }
  return reached;
}

Result<std::vector<std::string>> ProvenanceGraph::Invalidate(
    const std::string& record_id, Timestamp at, const std::string& reason) {
  uint32_t rid = record_ids_.Find(record_id);
  if (rid == InternTable::kNone) {
    return Status::NotFound("no such record: " + record_id);
  }
  if (IsInvalid(rid)) {
    return Status::AlreadyExists("record already invalidated: " + record_id);
  }

  std::vector<uint32_t> cascade = DownstreamClosure(rid);
  std::vector<std::string> order;
  order.reserve(cascade.size() + 1);
  order.push_back(record_id);
  for (uint32_t id : cascade) order.emplace_back(record_ids_.Name(id));

  // Published images share the current map, so mutation copies it.
  auto marks = invalidations_ != nullptr
                   ? std::make_shared<InvalidationMap>(*invalidations_)
                   : std::make_shared<InvalidationMap>();
  for (uint32_t id : cascade) {
    if (marks->count(id)) continue;  // already invalid from earlier
    Invalidation inv;
    inv.record_id = std::string(record_ids_.Name(id));
    inv.at = at;
    inv.reason = reason;
    inv.cascaded = true;
    marks->emplace(id, std::move(inv));
  }
  Invalidation root;
  root.record_id = record_id;
  root.at = at;
  root.reason = reason;
  root.cascaded = false;
  marks->emplace(rid, std::move(root));
  invalidations_ = std::move(marks);
  return order;
}

bool ProvenanceGraph::IsInvalidated(const std::string& record_id) const {
  uint32_t rid = record_ids_.Find(record_id);
  return rid != InternTable::kNone && IsInvalid(rid);
}

Result<Invalidation> ProvenanceGraph::GetInvalidation(
    const std::string& record_id) const {
  uint32_t rid = record_ids_.Find(record_id);
  if (rid != InternTable::kNone && IsInvalid(rid)) {
    Invalidation inv = invalidations_->at(rid);
    // Entries decoded from disk carry no record_id string.
    if (inv.record_id.empty()) inv.record_id = std::string(record_ids_.Name(rid));
    return inv;
  }
  return Status::NotFound("record not invalidated: " + record_id);
}

// ---------------------------------------------------------------------------
// Row groups: first-touch rebuilds, Image() and Open().
// ---------------------------------------------------------------------------

const ProvenanceRecord& ProvenanceGraph::DecodeBaseRecord(
    uint32_t rid) const {
  if (base_slot_.empty()) base_slot_.assign(base_rows_, 0);
  const size_t slot = base_decoded_++;
  if (slot % kDecodedChunk == 0) {
    decoded_.push_back(std::make_unique<ProvenanceRecord[]>(kDecodedChunk));
  }
  ProvenanceRecord& out = decoded_[slot / kDecodedChunk][slot % kDecodedChunk];
  const EntryColumn& records = base_[rid / kRowGroupRows]->records;
  const size_t row = rid % kRowGroupRows;
  Decoder dec(records.bytes.data() + records.offsets[row],
              records.end(row) - records.offsets[row]);
  auto rec = ProvenanceRecord::DecodeFrom(&dec);
  // Groups hold canonical encodings, and loading validated the offsets;
  // bytes that still fail to decode (a checksum collision) yield an empty
  // record rather than a crash or a retry on every access.
  if (rec.ok()) out = std::move(rec).value();
  base_slot_[rid] = static_cast<uint32_t>(slot + 1);
  return out;
}

void ProvenanceGraph::EnsureColumns() const {
  if (columns_ready_) return;
  columns_ready_ = true;
  // Only base rows can be missing: rows are added in memory only after
  // AddRecord ran every Ensure*, this one included.
  subject_col_.reserve(base_rows_);
  agent_col_.reserve(base_rows_);
  ts_.reserve(base_rows_);
  in_end_.reserve(base_rows_);
  out_end_.reserve(base_rows_);
  for (const auto& group : base_) {
    subject_col_.insert(subject_col_.end(), group->subject.begin(),
                        group->subject.end());
    agent_col_.insert(agent_col_.end(), group->agent.begin(),
                      group->agent.end());
    ts_.insert(ts_.end(), group->timestamp.begin(), group->timestamp.end());
    const auto in_base = static_cast<uint32_t>(in_ids_.size());
    for (uint32_t end : group->input_end) in_end_.push_back(in_base + end);
    in_ids_.insert(in_ids_.end(), group->inputs.begin(), group->inputs.end());
    const auto out_base = static_cast<uint32_t>(out_ids_.size());
    for (uint32_t end : group->output_end) out_end_.push_back(out_base + end);
    out_ids_.insert(out_ids_.end(), group->outputs.begin(),
                    group->outputs.end());
  }
}

void ProvenanceGraph::EnsureUsageLoaded() const {
  if (usage_ready_) return;
  EnsureColumns();
  usage_ready_ = true;
  generated_by_.assign(entities_.size(), {});
  used_by_.assign(entities_.size(), {});
  for (uint32_t rid = 0; rid < base_rows_; ++rid) IndexUsage(rid);
}

void ProvenanceGraph::EnsureDerivationsLoaded() const {
  if (derivations_ready_) return;
  EnsureColumns();
  derivations_ready_ = true;
  derived_from_.assign(entities_.size(), {});
  derivations_.assign(entities_.size(), {});
  for (uint32_t rid = 0; rid < base_rows_; ++rid) IndexDerivations(rid);
}

void ProvenanceGraph::EnsurePostingsLoaded() const {
  if (postings_ready_) return;
  postings_ready_ = true;
  by_subject_.assign(entities_.size(), {});
  subject_dirty_.assign(entities_.size(), 0);
  by_agent_.assign(agents_.size(), {});
  agent_dirty_.assign(agents_.size(), 0);
  // Walking rows in (timestamp, rid) order leaves every list in its
  // canonical order: no list starts dirty, whatever order rows arrived in.
  EnsureGlobalTimeSorted();
  for (const auto& [ts, rid] : by_time_) {
    by_subject_[subject_col_[rid]].push_back(rid);
    by_agent_[agent_col_[rid]].push_back(rid);
  }
}

void ProvenanceGraph::EnsureTimeIndexLoaded() const {
  if (time_ready_) return;
  EnsureColumns();
  time_ready_ = true;
  by_time_.reserve(base_rows_);
  for (uint32_t rid = 0; rid < base_rows_; ++rid) IndexTime(rid);
}

void ProvenanceGraph::IndexUsage(uint32_t rid) const {
  for (uint32_t in : Inputs(rid)) used_by_[in].push_back(rid);
  for (uint32_t out : Outputs(rid)) generated_by_[out].push_back(rid);
}

size_t ProvenanceGraph::IndexDerivations(uint32_t rid) const {
  size_t added = 0;
  const IdSpan inputs = Inputs(rid);
  for (uint32_t out : Outputs(rid)) {
    for (uint32_t in : inputs) {
      if (in == out) continue;
      if (InsertSortedUnique(&derived_from_[out], in)) ++added;
      InsertSortedUnique(&derivations_[in], out);
    }
  }
  return added;
}

void ProvenanceGraph::IndexTime(uint32_t rid) const {
  // Same append-and-mark-dirty scheme as the postings.
  std::pair<Timestamp, uint32_t> entry{ts_[rid], rid};
  if (!by_time_.empty() && by_time_.back() > entry) time_dirty_ = 1;
  by_time_.push_back(entry);
}

void ProvenanceGraph::EnsureBuilder() const {
  if (builder_ready_) return;
  builder_ready_ = true;
  // Full groups are shared as they are; a partly filled last group keeps
  // filling as the builder's open group.
  sealed_groups_.clear();
  open_group_ = RowGroup();
  for (const auto& group : base_) {
    if (group->rows() == kRowGroupRows) {
      sealed_groups_.push_back(group);
    } else {
      open_group_ = *group;
    }
  }
  encoded_rows_ = static_cast<uint32_t>(base_rows_);
  if (open_group_.rows() == 0 && !base_.empty()) {
    open_group_.first_row = encoded_rows_;
    open_group_.entity_base = base_.back()->entity_end();
    open_group_.agent_base = base_.back()->agent_end();
  }
}

void ProvenanceGraph::EncodeRows(uint32_t from, uint32_t to) const {
  RowGroup& group = open_group_;
  uint32_t entity_end = group.entity_end();
  uint32_t agent_end = group.agent_end();
  Encoder scratch;
  for (uint32_t rid = from; rid < to; ++rid) {
    // Builder rows start past the base, so they are in-memory records.
    group.records.offsets.push_back(
        static_cast<uint32_t>(group.records.bytes.size()));
    scratch.Clear();
    records_[rid - base_rows_].EncodeTo(&scratch);
    group.records.bytes.insert(group.records.bytes.end(),
                               scratch.buffer().begin(),
                               scratch.buffer().end());
    group.subject.push_back(subject_col_[rid]);
    group.agent.push_back(agent_col_[rid]);
    group.timestamp.push_back(ts_[rid]);
    for (uint32_t in : Inputs(rid)) {
      group.inputs.push_back(in);
      entity_end = std::max(entity_end, in + 1);
    }
    group.input_end.push_back(static_cast<uint32_t>(group.inputs.size()));
    for (uint32_t out : Outputs(rid)) {
      group.outputs.push_back(out);
      entity_end = std::max(entity_end, out + 1);
    }
    group.output_end.push_back(static_cast<uint32_t>(group.outputs.size()));
    entity_end = std::max(entity_end, subject_col_[rid] + 1);
    agent_end = std::max(agent_end, agent_col_[rid] + 1);
  }
  // Ids are handed out in first-seen order, so the names these rows
  // interned first are exactly the ids past the group's current end.
  for (uint32_t id = group.entity_end(); id < entity_end; ++id) {
    group.entity_names.AppendName(entities_.Name(id));
  }
  for (uint32_t id = group.agent_end(); id < agent_end; ++id) {
    group.agent_names.AppendName(agents_.Name(id));
  }
}

GraphImage ProvenanceGraph::Image(size_t* bytes_written) const {
  EnsureBuilder();
  size_t written = 0;
  size_t open_start = open_group_.bytes();
  const auto rows = static_cast<uint32_t>(record_count());
  while (encoded_rows_ < rows) {
    const uint32_t room =
        kRowGroupRows - static_cast<uint32_t>(open_group_.rows());
    const uint32_t take = std::min(room, rows - encoded_rows_);
    EncodeRows(encoded_rows_, encoded_rows_ + take);
    encoded_rows_ += take;
    if (open_group_.rows() == kRowGroupRows) {
      written += open_group_.bytes() - open_start;
      RowGroup next;
      next.first_row = encoded_rows_;
      next.entity_base = open_group_.entity_end();
      next.agent_base = open_group_.agent_end();
      sealed_groups_.push_back(
          std::make_shared<const RowGroup>(std::move(open_group_)));
      open_group_ = std::move(next);
      open_start = open_group_.bytes();
    }
  }
  written += open_group_.bytes() - open_start;

  GraphImage image;
  image.groups = sealed_groups_;
  if (open_group_.rows() > 0) {
    image.groups.push_back(std::make_shared<const RowGroup>(open_group_));
    written += open_group_.bytes();
  }
  image.invalidations = invalidations_;
  image.edge_count = edge_count_;
  image.subject_count = subject_count_;
  if (bytes_written != nullptr) *bytes_written = written;
  return image;
}

void ProvenanceGraph::Open(const GraphImage& image) {
  *this = ProvenanceGraph();
  base_ = image.groups;
  base_rows_ = image.record_count();
  std::vector<std::shared_ptr<const EntryColumn>> records, entities, agents;
  for (const auto& group : base_) {
    // Aliasing pointers: each column pins its group.
    records.emplace_back(group, &group->records);
    entities.emplace_back(group, &group->entity_names);
    agents.emplace_back(group, &group->agent_names);
  }
  record_ids_.Open(std::move(records));
  entities_.Open(std::move(entities));
  agents_.Open(std::move(agents));
  invalidations_ = image.invalidations;
  edge_count_ = static_cast<size_t>(image.edge_count);
  subject_count_ = static_cast<size_t>(image.subject_count);
  const bool empty = base_.empty();
  columns_ready_ = usage_ready_ = derivations_ready_ = empty;
  postings_ready_ = time_ready_ = builder_ready_ = empty;
}

void ProvenanceGraph::Warm() {
  // Rebuild every derived structure.
  EnsureUsageLoaded();
  EnsureDerivationsLoaded();
  EnsurePostingsLoaded();
  EnsureTimeIndexLoaded();

  // Pay every pending sort now so no const query path re-sorts later.
  for (size_t eid = 0; eid < by_subject_.size(); ++eid) {
    EnsureTimeSorted(&by_subject_[eid], &subject_dirty_[eid]);
  }
  for (size_t aid = 0; aid < by_agent_.size(); ++aid) {
    EnsureTimeSorted(&by_agent_[aid], &agent_dirty_[aid]);
  }
  EnsureGlobalTimeSorted();

  // Decode every row-group record so RecordAt becomes a pure lookup.
  for (uint32_t rid = 0; rid < base_rows_; ++rid) RecordAt(rid);

  // Intern tables: lookup indexes.
  record_ids_.Warm();
  entities_.Warm();
  agents_.Warm();
}

std::vector<std::string> ProvenanceGraph::ReexecutionSet(
    const std::string& record_id) const {
  uint32_t rid = record_ids_.Find(record_id);
  if (rid == InternTable::kNone) return {};
  // Downstream closure over the consumption graph: exactly the activities
  // that must re-run once `record_id` is invalidated and repaired.
  std::vector<uint32_t> cascade = DownstreamClosure(rid);
  std::vector<std::string> out;
  out.reserve(cascade.size());
  for (uint32_t id : cascade) out.emplace_back(record_ids_.Name(id));
  return out;
}

}  // namespace prov
}  // namespace provledger
