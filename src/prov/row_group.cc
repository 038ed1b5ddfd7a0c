#include "prov/row_group.h"

#include <algorithm>
#include <limits>

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
