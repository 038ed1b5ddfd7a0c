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

// An in-memory per-id list as a span; empty when the id has none.
IdSpan SpanOf(const std::vector<std::vector<uint32_t>>& lists, uint32_t id) {
  if (id >= lists.size()) return {};
  return {lists[id].data(), lists[id].data() + lists[id].size()};
}

void AddSpan(IdSpan span, std::vector<IdSpan>* out) {
  if (!span.empty()) out->push_back(span);
}

size_t Total(const std::vector<IdSpan>& spans) {
  size_t n = 0;
  for (const IdSpan& span : spans) n += span.size();
  return n;
}
}  // namespace

void ProvenanceGraph::AppendByTime(std::vector<uint32_t>* list, uint32_t rid,
                                   uint8_t* dirty) {
  if (!list->empty() && TimeOf(list->back()) > TimeOf(rid)) *dirty = 1;
  list->push_back(rid);
}

void ProvenanceGraph::SortByTime(std::vector<uint32_t>* list) const {
  // Record ids increase in ingest order, so sorting (timestamp, rid)
  // reproduces the documented "(timestamp, ingest)" tie order.
  std::vector<std::pair<Timestamp, uint32_t>> keyed;
  keyed.reserve(list->size());
  for (uint32_t rid : *list) keyed.emplace_back(TimeOf(rid), rid);
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 0; i < keyed.size(); ++i) (*list)[i] = keyed[i].second;
}

void ProvenanceGraph::EnsureTimeSorted(std::vector<uint32_t>* list,
                                       uint8_t* dirty) const {
  if (!*dirty) return;
  SortByTime(list);
  *dirty = 0;
}

Status ProvenanceGraph::AddRecord(const ProvenanceRecord& record) {
  return AddRecord(ProvenanceRecord(record));
}

Status ProvenanceGraph::AddRecord(ProvenanceRecord&& record) {
  PROVLEDGER_RETURN_NOT_OK(record.Validate());
  // Interning a known id returns its old row; a new id gets the next one.
  const uint32_t rid = record_ids_.Intern(record.record_id);
  if (rid != record_count()) {
    return Status::AlreadyExists("record already in graph: " +
                                 record.record_id);
  }

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
  if (by_subject_[subject].empty() && !BaseHasSubject(subject)) {
    ++subject_count_;
  }
  AppendByTime(&by_subject_[subject], rid, &subject_dirty_[subject]);
  AppendByTime(&by_agent_[aid], rid, &agent_dirty_[aid]);
  AppendByTime(&by_time_, rid, &time_dirty_);
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

// ---------------------------------------------------------------------------
// Per-id lookups over base groups and in-memory rows.
// ---------------------------------------------------------------------------

void ProvenanceGraph::BaseLists(IdLists GroupIndex::*lists, uint32_t key,
                                bool agent_key,
                                std::vector<IdSpan>* out) const {
  for (const auto& group : base_) {
    // Ids are handed out in first-seen order, and a group only references
    // ids below its table ends, so older groups cannot hold newer keys.
    if (key >= (agent_key ? group->agent_end() : group->entity_end())) {
      continue;
    }
    AddSpan((group->index().*lists).Find(key), out);
  }
}

IdSpan ProvenanceGraph::MemoryPostings(
    std::vector<std::vector<uint32_t>>* lists, std::vector<uint8_t>* dirty,
    uint32_t key) const {
  if (key >= lists->size()) return {};
  EnsureTimeSorted(&(*lists)[key], &(*dirty)[key]);
  return SpanOf(*lists, key);
}

bool ProvenanceGraph::BaseHasSubject(uint32_t eid) const {
  std::vector<IdSpan> lists;
  BaseLists(&GroupIndex::by_subject, eid, false, &lists);
  return !lists.empty();
}

bool ProvenanceGraph::BaseHasDerivation(uint32_t out, uint32_t in) const {
  std::vector<IdSpan> lists;
  BaseLists(&GroupIndex::derived_from, out, false, &lists);
  for (const IdSpan& inputs : lists) {
    if (std::binary_search(inputs.begin(), inputs.end(), in)) return true;
  }
  return false;
}

void ProvenanceGraph::IndexUsage(uint32_t rid) {
  for (uint32_t in : Inputs(rid)) used_by_[in].push_back(rid);
  for (uint32_t out : Outputs(rid)) generated_by_[out].push_back(rid);
}

size_t ProvenanceGraph::IndexDerivations(uint32_t rid) {
  size_t added = 0;
  const IdSpan inputs = Inputs(rid);
  for (uint32_t out : Outputs(rid)) {
    for (uint32_t in : inputs) {
      if (in == out) continue;
      if (InsertSortedUnique(&derived_from_[out], in) &&
          !BaseHasDerivation(out, in)) {
        ++added;
      }
      InsertSortedUnique(&derivations_[in], out);
    }
  }
  return added;
}

std::vector<std::string> ProvenanceGraph::EntityClosure(
    bool ancestors, const std::string& start) const {
  std::vector<std::string> out;
  uint32_t s = entities_.Find(start);
  if (s == InternTable::kNone) return out;

  IdLists GroupIndex::*base =
      ancestors ? &GroupIndex::derived_from : &GroupIndex::derivations;
  const auto& memory = ancestors ? derived_from_ : derivations_;
  Bitset seen(entities_.size());
  seen.TestAndSet(s);
  // `reached` doubles as the BFS queue: ids are only appended, and `head`
  // walks it front to back.
  std::vector<uint32_t> reached;
  reached.push_back(s);
  std::vector<IdSpan> lists;
  std::vector<uint32_t> merged;
  for (size_t head = 0; head < reached.size(); ++head) {
    const uint32_t eid = reached[head];
    lists.clear();
    BaseLists(base, eid, false, &lists);
    AddSpan(SpanOf(memory, eid), &lists);
    // Each list is sorted; several are merged so neighbours are visited in
    // ascending id, as one whole-graph list would be.
    IdSpan next = lists.empty() ? IdSpan{} : lists[0];
    if (lists.size() > 1) {
      merged.clear();
      for (const IdSpan& list : lists) {
        merged.insert(merged.end(), list.begin(), list.end());
      }
      std::sort(merged.begin(), merged.end());
      next = {merged.data(), merged.data() + merged.size()};
    }
    for (uint32_t id : next) {
      if (seen.TestAndSet(id)) reached.push_back(id);
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
  return EntityClosure(true, entity);
}

std::vector<std::string> ProvenanceGraph::Descendants(
    const std::string& entity) const {
  return EntityClosure(false, entity);
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

IdSpan ProvenanceGraph::NarrowByTime(std::optional<Timestamp> from,
                                     std::optional<Timestamp> to,
                                     IdSpan list) const {
  if (from) {
    list.first = std::lower_bound(list.first, list.last, *from,
                                  [this](uint32_t rid, Timestamp t) {
                                    return TimeOf(rid) < t;
                                  });
  }
  if (to) {
    list.last = std::upper_bound(list.first, list.last, *to,
                                 [this](Timestamp t, uint32_t rid) {
                                   return t < TimeOf(rid);
                                 });
  }
  return list;
}

void ProvenanceGraph::TimeSlices(std::optional<Timestamp> from,
                                 std::optional<Timestamp> to,
                                 std::vector<IdSpan>* out) const {
  for (const auto& group : base_) {
    const GroupIndex& index = group->index();
    if ((from && index.max_ts < *from) || (to && index.min_ts > *to)) continue;
    const IdSpan rows{index.by_time.data(),
                      index.by_time.data() + index.by_time.size()};
    AddSpan(NarrowByTime(from, to, rows), out);
  }
  EnsureTimeSorted(&by_time_, &time_dirty_);
  AddSpan(NarrowByTime(from, to,
                       {by_time_.data(), by_time_.data() + by_time_.size()}),
          out);
}

void ProvenanceGraph::PlanQuery(const Query& query, QueryPlan* plan) const {
  // An impossible time range matches nothing regardless of indexes.
  if (query.from && query.to && *query.from > *query.to) return;

  // Candidate lists per applicable index; a filter naming an unknown key
  // is an immediate empty result. Estimates are the lists' total sizes;
  // kNotApplicable marks an index the query does not constrain.
  constexpr size_t kNotApplicable = std::numeric_limits<size_t>::max();
  size_t subject_n = kNotApplicable, agent_n = kNotApplicable;
  size_t input_n = kNotApplicable, output_n = kNotApplicable;
  size_t range_n = kNotApplicable;
  uint32_t subject_eid = InternTable::kNone, agent_aid = InternTable::kNone;
  std::vector<IdSpan> subject_lists, agent_lists, input_lists, output_lists;
  std::vector<IdSpan> range_lists;

  if (query.subject) {
    subject_eid = entities_.Find(*query.subject);
    if (subject_eid == InternTable::kNone) return;
    BaseLists(&GroupIndex::by_subject, subject_eid, false, &subject_lists);
    subject_n = Total(subject_lists) + SpanOf(by_subject_, subject_eid).size();
  }
  if (query.agent) {
    agent_aid = agents_.Find(*query.agent);
    if (agent_aid == InternTable::kNone) return;
    BaseLists(&GroupIndex::by_agent, agent_aid, true, &agent_lists);
    agent_n = Total(agent_lists) + SpanOf(by_agent_, agent_aid).size();
  }
  if (query.input) {
    const uint32_t eid = entities_.Find(*query.input);
    if (eid == InternTable::kNone) return;
    BaseLists(&GroupIndex::used_by, eid, false, &input_lists);
    AddSpan(SpanOf(used_by_, eid), &input_lists);
    input_n = Total(input_lists);
  }
  if (query.output) {
    const uint32_t eid = entities_.Find(*query.output);
    if (eid == InternTable::kNone) return;
    BaseLists(&GroupIndex::generated_by, eid, false, &output_lists);
    AddSpan(SpanOf(generated_by_, eid), &output_lists);
    output_n = Total(output_lists);
  }
  if (query.from || query.to) {
    TimeSlices(query.from, query.to, &range_lists);
    range_n = Total(range_lists);
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

  plan->index = best;
  plan->estimate = best_n;
  // Postings slices (one per group plus the in-memory list) are already in
  // (timestamp, rid) order; each is narrowed to the time window.
  auto add_narrowed = [&](const std::vector<IdSpan>& lists) {
    for (const IdSpan& list : lists) {
      plan->Add(NarrowByTime(query.from, query.to, list));
    }
  };
  switch (best) {
    case QueryIndex::kSubject:
      AddSpan(MemoryPostings(&by_subject_, &subject_dirty_, subject_eid),
              &subject_lists);
      add_narrowed(subject_lists);
      break;
    case QueryIndex::kAgent:
      AddSpan(MemoryPostings(&by_agent_, &agent_dirty_, agent_aid),
              &agent_lists);
      add_narrowed(agent_lists);
      break;
    case QueryIndex::kInput:
    case QueryIndex::kOutput: {
      // Usage lists are in ingest order with one entry per mention (a
      // record can list an entity twice); the owned copy is sorted into the
      // canonical (timestamp, rid) order and deduplicated so each record
      // appears once.
      std::vector<uint32_t>& owned = plan->owned;
      for (const IdSpan& list :
           best == QueryIndex::kInput ? input_lists : output_lists) {
        owned.insert(owned.end(), list.begin(), list.end());
      }
      SortByTime(&owned);
      owned.erase(std::unique(owned.begin(), owned.end()), owned.end());
      add_narrowed({{owned.data(), owned.data() + owned.size()}});
      break;
    }
    case QueryIndex::kTimeRange:
      for (const IdSpan& slice : range_lists) plan->Add(slice);
      break;
    case QueryIndex::kFullScan: {
      std::vector<IdSpan> all;
      TimeSlices(std::nullopt, std::nullopt, &all);
      for (const IdSpan& slice : all) plan->Add(slice);
      break;
    }
  }

  // Does the slice alone guarantee every filter? (Time bounds are always
  // honored: postings slices are narrowed above, and a present time range
  // beats a full scan in the selectivity contest.)
  plan->covers_filters =
      !query.subject_prefix && !query.domain && query.operations.empty() &&
      !query.invalidated && query.field_equals.empty() &&
      (!query.subject || best == QueryIndex::kSubject) &&
      (!query.agent || best == QueryIndex::kAgent) &&
      (!query.input || best == QueryIndex::kInput) &&
      (!query.output || best == QueryIndex::kOutput);
}

ProvenanceGraph::PlanCursor::PlanCursor(const ProvenanceGraph& graph,
                                        const QueryPlan& plan,
                                        bool descending)
    : graph_(graph), descending_(descending) {
  heads_.reserve(plan.slices.size());
  for (const IdSpan& slice : plan.slices) {  // never empty (QueryPlan::Add)
    Head head{0, 0, descending ? slice.last : slice.first,
              descending ? slice.first : slice.last};
    Load(&head);
    heads_.push_back(head);
  }
}

void ProvenanceGraph::PlanCursor::Load(Head* head) const {
  head->rid = descending_ ? *--head->next : *head->next++;
  head->ts = graph_.TimeOf(head->rid);
}

bool ProvenanceGraph::PlanCursor::Next(uint32_t* rid) {
  if (heads_.empty()) return false;
  // Rids are unique across slices, so (timestamp, rid) is a total order.
  size_t best = 0;
  for (size_t i = 1; i < heads_.size(); ++i) {
    const Head& a = heads_[i];
    const Head& b = heads_[best];
    const bool earlier = a.ts != b.ts ? a.ts < b.ts : a.rid < b.rid;
    if (earlier != descending_) best = i;
  }
  Head& head = heads_[best];
  *rid = head.rid;
  if (head.next != head.stop) {
    Load(&head);
  } else {
    head = heads_.back();
    heads_.pop_back();
  }
  return true;
}

void ProvenanceGraph::PlanCursor::Skip(size_t n) {
  if (n == 0 || heads_.empty()) return;
  if (heads_.size() == 1) {
    Head& head = heads_[0];
    const auto left = static_cast<size_t>(
        descending_ ? head.next - head.stop : head.stop - head.next);
    if (n > left) {
      heads_.clear();
      return;
    }
    // The head is already loaded: step over it and n - 1 more.
    const auto step = static_cast<std::ptrdiff_t>(n - 1);
    head.next += descending_ ? -step : step;
    Load(&head);
    return;
  }
  uint32_t rid = 0;
  for (size_t i = 0; i < n && Next(&rid); ++i) {
  }
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
  // Planning already built every index this scan reads and sorted the
  // in-memory lists, and Warm() decoded every record, so the workers below
  // only perform pure reads — no locks needed. One slice is already in
  // order; several are merged into one list first.
  std::vector<uint32_t> merged;
  IdSpan order = plan.slices.empty() ? IdSpan{} : plan.slices[0];
  if (plan.slices.size() > 1) {
    merged.reserve(plan.size());
    PlanCursor cursor(*this, plan, false);
    for (uint32_t rid = 0; cursor.Next(&rid);) merged.push_back(rid);
    order = {merged.data(), merged.data() + merged.size()};
  }

  common::ThreadPool& pool = common::ThreadPool::Shared();
  const size_t n = order.size();
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
      const uint32_t rid = order.first[i];
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

  // Chunks are contiguous slices of the order, so in-order concatenation
  // restores the exact ascending (timestamp, ingest) order of the serial
  // scan.
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
  QueryPlan plan;
  PlanQuery(query, &plan);
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
    // Counting needs no order: walk the slices as they are.
    for (const IdSpan& slice : plan.slices) {
      for (uint32_t rid : slice) {
        if (query.Matches(RecordAt(rid), IsInvalid(rid))) ++result.count;
      }
    }
    return result;
  }

  PlanCursor cursor(*this, plan, query.descending);
  uint32_t rid = 0;
  if (plan.covers_filters) {
    // Every candidate is a match, so offset/limit only steer the walk and
    // no per-record predicate or invalidation lookup runs — the legacy
    // wrappers (SubjectHistory/ByAgent/InRange) stay pure materialization.
    const size_t start = std::min(query.offset, plan.size());
    result.records.reserve(std::min(query.limit, plan.size() - start));
    cursor.Skip(start);
    while (result.records.size() < query.limit && cursor.Next(&rid)) {
      result.records.push_back(RecordAt(rid));
    }
    result.count = result.records.size();
    return result;
  }

  size_t skipped = 0;
  while (cursor.Next(&rid)) {
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
  QueryPlan plan;
  PlanQuery(query, &plan);
  const auto plan_end = std::chrono::steady_clock::now();
  out.index_used = plan.index;
  out.estimated_candidates = plan.estimate;
  out.covers_filters = plan.covers_filters;
  out.plan_seconds =
      std::chrono::duration<double>(plan_end - plan_start).count();
  if (plan.covers_filters) {
    // Same short-circuit a count-only execution takes: the slices ARE the
    // answer, no candidate is ever visited.
    out.rows_matched = plan.size();
    return out;
  }
  out.candidates_scanned = plan.size();
  for (const IdSpan& slice : plan.slices) {
    for (uint32_t rid : slice) {
      if (query.Matches(RecordAt(rid), IsInvalid(rid))) ++out.rows_matched;
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
  QueryPlan plan;
  PlanQuery(query, &plan);

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

  PlanCursor cursor(*this, plan, query.descending);
  uint32_t rid = 0;
  size_t visited = 0;
  if (plan.covers_filters) {
    cursor.Skip(query.offset);
    while (visited < query.limit && cursor.Next(&rid)) {
      ++visited;
      if (!visit(RecordAt(rid))) break;
    }
    return visited;
  }

  size_t skipped = 0;
  while (cursor.Next(&rid)) {
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
  const uint32_t eid = entities_.Find(subject);
  if (eid == InternTable::kNone) return 0;
  std::vector<IdSpan> lists;
  BaseLists(&GroupIndex::by_subject, eid, false, &lists);
  return Total(lists) + SpanOf(by_subject_, eid).size();
}

size_t ProvenanceGraph::AgentRecordCount(const std::string& agent) const {
  const uint32_t aid = agents_.Find(agent);
  if (aid == InternTable::kNone) return 0;
  std::vector<IdSpan> lists;
  BaseLists(&GroupIndex::by_agent, aid, true, &lists);
  return Total(lists) + SpanOf(by_agent_, aid).size();
}

size_t ProvenanceGraph::EntityUseCount(const std::string& entity) const {
  const uint32_t eid = entities_.Find(entity);
  if (eid == InternTable::kNone) return 0;
  std::vector<IdSpan> lists;
  BaseLists(&GroupIndex::used_by, eid, false, &lists);
  return Total(lists) + SpanOf(used_by_, eid).size();
}

size_t ProvenanceGraph::EntityGenerationCount(
    const std::string& entity) const {
  const uint32_t eid = entities_.Find(entity);
  if (eid == InternTable::kNone) return 0;
  std::vector<IdSpan> lists;
  BaseLists(&GroupIndex::generated_by, eid, false, &lists);
  return Total(lists) + SpanOf(generated_by_, eid).size();
}

size_t ProvenanceGraph::InRangeCount(Timestamp from, Timestamp to) const {
  if (from > to) return 0;
  std::vector<IdSpan> slices;
  TimeSlices(from, to, &slices);
  return Total(slices);
}

void ProvenanceGraph::AppendDownstream(uint32_t rid, Bitset* seen,
                                       std::vector<IdSpan>* lists,
                                       std::vector<uint32_t>* out) const {
  for (uint32_t eid : Outputs(rid)) {
    // Group lists in group order, then the in-memory list: ingest order.
    lists->clear();
    BaseLists(&GroupIndex::used_by, eid, false, lists);
    AddSpan(SpanOf(used_by_, eid), lists);
    for (const IdSpan& consumers : *lists) {
      for (uint32_t consumer : consumers) {
        if (consumer != rid && seen->TestAndSet(consumer)) {
          out->push_back(consumer);
        }
      }
    }
  }
}

std::vector<uint32_t> ProvenanceGraph::DownstreamClosure(uint32_t rid) const {
  // BFS over the consumption graph: every record that used (transitively)
  // this record's outputs (SciBlock semantics).
  Bitset seen(record_count());
  seen.TestAndSet(rid);
  std::vector<IdSpan> lists;
  std::vector<uint32_t> reached;
  AppendDownstream(rid, &seen, &lists, &reached);
  for (size_t head = 0; head < reached.size(); ++head) {
    AppendDownstream(reached[head], &seen, &lists, &reached);
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
// Row groups: record decoding, Image() and Open().
// ---------------------------------------------------------------------------

const ProvenanceRecord& ProvenanceGraph::DecodeBaseRecord(
    uint32_t rid) const {
  if (base_slot_.empty()) base_slot_.assign(base_rows_, 0);
  const size_t slot = base_decoded_++;
  if (slot % kDecodedChunk == 0) {
    decoded_.push_back(std::make_unique<ProvenanceRecord[]>(kDecodedChunk));
  }
  ProvenanceRecord& out = decoded_[slot / kDecodedChunk][slot % kDecodedChunk];
  const EntryColumn& records = GroupOf(rid).records;
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
    const size_t row = rid - base_rows_;
    group.records.offsets.push_back(
        static_cast<uint32_t>(group.records.bytes.size()));
    scratch.Clear();
    records_[row].EncodeTo(&scratch);
    group.records.bytes.insert(group.records.bytes.end(),
                               scratch.buffer().begin(),
                               scratch.buffer().end());
    group.subject.push_back(subject_col_[row]);
    group.agent.push_back(agent_col_[row]);
    group.timestamp.push_back(ts_[row]);
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
    entity_end = std::max(entity_end, subject_col_[row] + 1);
    agent_end = std::max(agent_end, agent_col_[row] + 1);
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
  record_ids_.Open(base_, &RowGroup::records, &GroupIndex::record_ids);
  entities_.Open(base_, &RowGroup::entity_names, &GroupIndex::entity_names);
  agents_.Open(base_, &RowGroup::agent_names, &GroupIndex::agent_names);
  invalidations_ = image.invalidations;
  edge_count_ = static_cast<size_t>(image.edge_count);
  subject_count_ = static_cast<size_t>(image.subject_count);
  builder_ready_ = base_.empty();
}

void ProvenanceGraph::Warm() {
  // Every base group's index (shared; built at most once per group).
  for (const auto& group : base_) group->index();

  // Pay every pending sort now so no const query path re-sorts later.
  for (size_t eid = 0; eid < by_subject_.size(); ++eid) {
    EnsureTimeSorted(&by_subject_[eid], &subject_dirty_[eid]);
  }
  for (size_t aid = 0; aid < by_agent_.size(); ++aid) {
    EnsureTimeSorted(&by_agent_[aid], &agent_dirty_[aid]);
  }
  EnsureTimeSorted(&by_time_, &time_dirty_);

  // Decode every row-group record so RecordAt becomes a pure lookup.
  for (uint32_t rid = 0; rid < base_rows_; ++rid) RecordAt(rid);
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
