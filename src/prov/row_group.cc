#include "prov/row_group.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace provledger {
namespace prov {

namespace {

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

size_t ArrayBytes(size_t n) { return 4 + 4 * n; }

size_t ColumnBytes(const EntryColumn& column) {
  return ArrayBytes(column.size()) + 4 + column.bytes.size();
}

void PutColumn(Encoder* enc, const EntryColumn& column) {
  enc->PutU32Array(column.offsets);
  enc->PutBytes(column.bytes);
}

/// Decode an entry column of exactly `count` entries (kNoCount = any).
/// Offsets must start at 0 and be monotone, and every entry must hold its
/// leading string; `names_only` additionally requires entries to be
/// exactly that string.
constexpr size_t kNoCount = std::numeric_limits<size_t>::max();
Status GetColumn(Decoder* dec, size_t count, bool names_only,
                 EntryColumn* out) {
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(
      &out->offsets, std::numeric_limits<uint32_t>::max()));
  PROVLEDGER_RETURN_NOT_OK(dec->GetBytes(&out->bytes));
  if (count != kNoCount && out->offsets.size() != count) {
    return Status::Corruption("row group column count mismatch");
  }
  if (!out->offsets.empty() && out->offsets[0] != 0) {
    return Status::Corruption("row group column does not start at 0");
  }
  for (size_t i = 0; i < out->size(); ++i) {
    const size_t begin = out->offsets[i];
    const size_t end = out->end(i);
    if (end < begin || end > out->bytes.size()) {
      return Status::Corruption("row group column offsets not monotone");
    }
    if (end - begin < 4) {
      return Status::Corruption("row group column entry too short");
    }
    const size_t len = ReadU32(out->bytes.data() + begin);
    if (names_only ? len != end - begin - 4 : len > end - begin - 4) {
      return Status::Corruption("row group column entry overruns");
    }
  }
  return Status::OK();
}

/// Per-row [end[i-1], end[i]) ranges into `ids`: `end` must be monotone
/// and finish at ids.size().
Status CheckRanges(const std::vector<uint32_t>& end,
                   const std::vector<uint32_t>& ids) {
  uint32_t prev = 0;
  for (uint32_t e : end) {
    if (e < prev) return Status::Corruption("row group offsets not monotone");
    prev = e;
  }
  if (prev != ids.size()) {
    return Status::Corruption("row group offsets do not cover their ids");
  }
  return Status::OK();
}

Status CheckIds(const std::vector<uint32_t>& ids, uint32_t limit) {
  for (uint32_t id : ids) {
    if (id >= limit) return Status::Corruption("row group id out of range");
  }
  return Status::OK();
}

}  // namespace

std::string_view EntryColumn::name(size_t i) const {
  const uint8_t* at = bytes.data() + offsets[i];
  return {reinterpret_cast<const char*>(at + 4), ReadU32(at)};
}

void EntryColumn::AppendName(std::string_view name) {
  offsets.push_back(static_cast<uint32_t>(bytes.size()));
  const uint32_t len = static_cast<uint32_t>(name.size());
  const uint8_t prefix[4] = {
      static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
      static_cast<uint8_t>(len >> 16), static_cast<uint8_t>(len >> 24)};
  bytes.insert(bytes.end(), prefix, prefix + 4);
  bytes.insert(bytes.end(), name.begin(), name.end());
}

IdSpan IdLists::Find(uint32_t key) const {
  // Most keys of a group were first seen near it (a lineage walk asks
  // every newer group), so the range check settles most misses.
  if (keys.empty() || key < keys.front() || key > keys.back()) return {};
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  const size_t k = static_cast<size_t>(it - keys.begin());
  return {values.data() + offsets[k], values.data() + offsets[k + 1]};
}

namespace {

// The process-wide index-build counter lives on the default metric
// registry.
obs::Counter* IndexBuildsCell() {
  static obs::Counter* cell = obs::Registry::Default()->GetCounter(
      "graph_group_index_builds_total",
      "Process-wide row-group index builds (one per group, on first use)");
  return cell;
}

/// Positions 0..n-1 in ascending order of key_of(i), a key in [0, span]
/// (ties keep position order): an LSD radix sort in 11-bit digits, so
/// O(n) per digit and as many digits as the keys' range needs.
template <typename KeyOf>
std::vector<uint32_t> StableOrder(size_t n, uint64_t span, KeyOf key_of) {
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  std::vector<uint32_t> order(n), next(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  for (int shift = 0; shift == 0 || (shift < 64 && (span >> shift) != 0);
       shift += kDigitBits) {
    auto digit = [&](uint32_t i) {
      return static_cast<size_t>(key_of(i) >> shift) & (kBuckets - 1);
    };
    uint32_t start[kBuckets + 1] = {};
    for (uint32_t i : order) ++start[digit(i) + 1];
    for (size_t b = 1; b <= kBuckets; ++b) start[b] += start[b - 1];
    for (uint32_t i : order) next[start[digit(i)]++] = i;
    order.swap(next);
  }
  return order;
}

/// Lists from parallel `keys` and `values`: each key's values keep their
/// order in the input.
IdLists GroupByKey(const std::vector<uint32_t>& keys,
                   const std::vector<uint32_t>& values) {
  IdLists lists;
  const size_t n = keys.size();
  if (n > 0) {
    const auto [min_it, max_it] = std::minmax_element(keys.begin(), keys.end());
    const uint32_t lo = *min_it;
    const std::vector<uint32_t> order = StableOrder(
        n, *max_it - lo, [&](uint32_t i) { return uint64_t{keys[i] - lo}; });
    lists.values.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t key = keys[order[i]];
      if (lists.keys.empty() || lists.keys.back() != key) {
        lists.keys.push_back(key);
        lists.offsets.push_back(static_cast<uint32_t>(i));
      }
      lists.values[i] = values[order[i]];
    }
  }
  lists.offsets.push_back(static_cast<uint32_t>(n));
  return lists;
}

/// GroupByKey, then each key's values sorted and deduplicated.
IdLists GroupDistinct(const std::vector<uint32_t>& keys,
                      const std::vector<uint32_t>& values) {
  IdLists lists = GroupByKey(keys, values);
  uint32_t out = 0;
  for (size_t k = 0; k < lists.keys.size(); ++k) {
    auto first = lists.values.begin() + lists.offsets[k];
    auto last = lists.values.begin() + lists.offsets[k + 1];
    if (last - first > 1) {
      std::sort(first, last);
      last = std::unique(first, last);
    }
    const auto dest = lists.values.begin() + out;
    if (dest != first) std::copy(first, last, dest);
    lists.offsets[k] = out;
    out += static_cast<uint32_t>(last - first);
  }
  lists.offsets.back() = out;
  lists.values.resize(out);
  return lists;
}

void IndexNames(const EntryColumn& column, NameTable* table) {
  table->Reserve(column.size());
  auto name_of = [&column](uint32_t i) { return column.name(i); };
  for (uint32_t i = 0; i < column.size(); ++i) {
    table->Insert(i, NameHash(column.name(i)), name_of);
  }
}

}  // namespace

std::unique_ptr<const GroupIndex> GroupIndex::Build(const RowGroup& group) {
  auto index = std::make_unique<GroupIndex>();
  const auto rows = static_cast<uint32_t>(group.rows());
  const uint32_t first = group.first_row;

  // Time order (ties in row order).
  std::vector<uint32_t> order;
  if (rows > 0) {
    const auto [min_ts, max_ts] =
        std::minmax_element(group.timestamp.begin(), group.timestamp.end());
    index->min_ts = *min_ts;
    index->max_ts = *max_ts;
    const auto lo = static_cast<uint64_t>(*min_ts);
    order = StableOrder(
        rows, static_cast<uint64_t>(*max_ts) - lo, [&](uint32_t row) {
          return static_cast<uint64_t>(group.timestamp[row]) - lo;
        });
  }
  index->by_time.resize(rows);
  for (uint32_t i = 0; i < rows; ++i) index->by_time[i] = first + order[i];

  // Postings: keys visited in time order keep each key's rows in it.
  std::vector<uint32_t> keys(rows);
  auto postings = [&](const std::vector<uint32_t>& column) {
    for (uint32_t i = 0; i < rows; ++i) keys[i] = column[order[i]];
    return GroupByKey(keys, index->by_time);
  };
  index->by_subject = postings(group.subject);
  index->by_agent = postings(group.agent);

  // Usage mentions in row order, duplicates kept.
  std::vector<uint32_t> mention_rows;
  auto usage = [&](const std::vector<uint32_t>& end,
                   const std::vector<uint32_t>& ids) {
    mention_rows.resize(ids.size());
    uint32_t at = 0;
    for (uint32_t row = 0; row < rows; ++row) {
      for (; at < end[row]; ++at) mention_rows[at] = first + row;
    }
    return GroupByKey(ids, mention_rows);
  };
  index->used_by = usage(group.input_end, group.inputs);
  index->generated_by = usage(group.output_end, group.outputs);

  std::vector<uint32_t> outs, ins;
  outs.reserve(group.inputs.size());
  ins.reserve(group.inputs.size());
  for (uint32_t row = 0; row < rows; ++row) {
    const IdSpan inputs = group.inputs_of(row);
    for (uint32_t out : group.outputs_of(row)) {
      for (uint32_t in : inputs) {
        if (in == out) continue;
        outs.push_back(out);
        ins.push_back(in);
      }
    }
  }
  index->derived_from = GroupDistinct(outs, ins);
  index->derivations = GroupDistinct(ins, outs);

  IndexNames(group.entity_names, &index->entity_names);
  IndexNames(group.agent_names, &index->agent_names);
  IndexNames(group.records, &index->record_ids);
  IndexBuildsCell()->Increment();
  return index;
}

const GroupIndex& RowGroup::IndexSlot::Get(const RowGroup& group) const {
  State& state = *state_;
  std::call_once(state.once, [&] { state.index = GroupIndex::Build(group); });
  return *state.index;
}

const GroupIndex& RowGroup::index() const { return index_slot_.Get(*this); }

size_t RowGroup::bytes() const {
  return 12 + 2 * ArrayBytes(rows()) + 8 * rows() +
         ArrayBytes(input_end.size()) + ArrayBytes(inputs.size()) +
         ArrayBytes(output_end.size()) + ArrayBytes(outputs.size()) +
         ColumnBytes(records) + ColumnBytes(entity_names) +
         ColumnBytes(agent_names);
}

void RowGroup::EncodeTo(Encoder* enc) const {
  enc->PutU32(first_row);
  enc->PutU32(entity_base);
  enc->PutU32(agent_base);
  enc->PutU32Array(subject);
  enc->PutU32Array(agent);
  for (Timestamp ts : timestamp) enc->PutI64(ts);
  enc->PutU32Array(input_end);
  enc->PutU32Array(inputs);
  enc->PutU32Array(output_end);
  enc->PutU32Array(outputs);
  PutColumn(enc, records);
  PutColumn(enc, entity_names);
  PutColumn(enc, agent_names);
}

Status RowGroup::DecodeFrom(Decoder* dec, uint32_t first_row,
                            uint32_t entity_base, uint32_t agent_base,
                            RowGroup* out) {
  uint32_t stored_row = 0, stored_entity = 0, stored_agent = 0;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&stored_row));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&stored_entity));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&stored_agent));
  if (stored_row != first_row || stored_entity != entity_base ||
      stored_agent != agent_base) {
    return Status::Corruption("row group does not continue its predecessor");
  }
  out->first_row = first_row;
  out->entity_base = entity_base;
  out->agent_base = agent_base;

  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(&out->subject, kRowGroupRows));
  const size_t rows = out->subject.size();
  if (rows == 0 || rows > std::numeric_limits<uint32_t>::max() - first_row) {
    return Status::Corruption("row group row count out of range");
  }
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(&out->agent, rows));
  if (dec->remaining() / 8 < rows) {
    return Status::Corruption("row group timestamps truncated");
  }
  out->timestamp.resize(rows);
  for (Timestamp& ts : out->timestamp) {
    PROVLEDGER_RETURN_NOT_OK(dec->GetI64(&ts));
  }
  const uint32_t no_limit = std::numeric_limits<uint32_t>::max();
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(&out->input_end, rows));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(&out->inputs, no_limit));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(&out->output_end, rows));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32Array(&out->outputs, no_limit));
  PROVLEDGER_RETURN_NOT_OK(GetColumn(dec, rows, false, &out->records));
  PROVLEDGER_RETURN_NOT_OK(GetColumn(dec, kNoCount, true, &out->entity_names));
  PROVLEDGER_RETURN_NOT_OK(GetColumn(dec, kNoCount, true, &out->agent_names));

  if (out->agent.size() != rows || out->input_end.size() != rows ||
      out->output_end.size() != rows) {
    return Status::Corruption("row group column counts disagree");
  }
  if (out->entity_names.size() > no_limit - entity_base ||
      out->agent_names.size() > no_limit - agent_base) {
    return Status::Corruption("row group name count out of range");
  }
  PROVLEDGER_RETURN_NOT_OK(CheckRanges(out->input_end, out->inputs));
  PROVLEDGER_RETURN_NOT_OK(CheckRanges(out->output_end, out->outputs));
  // Rows only reference names interned by themselves or earlier rows.
  PROVLEDGER_RETURN_NOT_OK(CheckIds(out->subject, out->entity_end()));
  PROVLEDGER_RETURN_NOT_OK(CheckIds(out->inputs, out->entity_end()));
  PROVLEDGER_RETURN_NOT_OK(CheckIds(out->outputs, out->entity_end()));
  PROVLEDGER_RETURN_NOT_OK(CheckIds(out->agent, out->agent_end()));
  return Status::OK();
}

size_t GraphImage::record_count() const {
  if (groups.empty()) return 0;
  return groups.back()->first_row + groups.back()->rows();
}

size_t GraphImage::bytes() const {
  size_t total = 4 + 4 + 8 + 8;
  for (const auto& group : groups) total += group->bytes();
  if (invalidations != nullptr) {
    for (const auto& [rid, inv] : *invalidations) {
      total += 4 + 8 + 4 + inv.reason.size() + 1;
    }
  }
  return total;
}

void GraphImage::EncodeTo(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(groups.size()));
  for (const auto& group : groups) group->EncodeTo(enc);
  // Sorted by record id so equal images encode to equal bytes.
  std::vector<std::pair<uint32_t, const Invalidation*>> marks;
  if (invalidations != nullptr) {
    for (const auto& [rid, inv] : *invalidations) marks.emplace_back(rid, &inv);
  }
  std::sort(marks.begin(), marks.end());
  enc->PutU32(static_cast<uint32_t>(marks.size()));
  for (const auto& [rid, inv] : marks) {
    enc->PutU32(rid);
    enc->PutI64(inv->at);
    enc->PutString(inv->reason);
    enc->PutBool(inv->cascaded);
  }
  enc->PutU64(edge_count);
  enc->PutU64(subject_count);
}

Status GraphImage::DecodeFrom(Decoder* dec, GraphImage* out) {
  *out = GraphImage();
  uint32_t n = 0;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&n));
  uint32_t rows = 0, entities = 0, agents = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (i > 0 && out->groups.back()->rows() != kRowGroupRows) {
      return Status::Corruption("graph image: only the last group may be "
                                "partly filled");
    }
    auto group = std::make_shared<RowGroup>();
    PROVLEDGER_RETURN_NOT_OK(
        RowGroup::DecodeFrom(dec, rows, entities, agents, group.get()));
    rows += static_cast<uint32_t>(group->rows());
    entities = group->entity_end();
    agents = group->agent_end();
    out->groups.push_back(std::move(group));
  }

  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&n));
  uint32_t last_rid = 0;
  if (n > 0) {
    auto marks = std::make_shared<InvalidationMap>();
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t rid = 0;
      Invalidation inv;
      PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&rid));
      if (rid >= rows) {
        return Status::Corruption("graph image invalidation out of range");
      }
      // EncodeTo writes marks in strictly ascending record order; anything
      // else is not an encoding this code produced.
      if (i > 0 && rid <= last_rid) {
        return Status::Corruption("graph image invalidations out of order");
      }
      last_rid = rid;
      PROVLEDGER_RETURN_NOT_OK(dec->GetI64(&inv.at));
      PROVLEDGER_RETURN_NOT_OK(dec->GetString(&inv.reason));
      PROVLEDGER_RETURN_NOT_OK(dec->GetBool(&inv.cascaded));
      marks->emplace(rid, std::move(inv));
    }
    out->invalidations = std::move(marks);
  }
  PROVLEDGER_RETURN_NOT_OK(dec->GetU64(&out->edge_count));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU64(&out->subject_count));
  return Status::OK();
}

}  // namespace prov
}  // namespace provledger
