// Row groups: the append-only storage unit that snapshot epochs share.
//
// A row group encodes a run of consecutive records (rows, in ingest order):
// their canonical record encodings, the per-row dense columns the graph's
// indexes derive from (subject, agent, timestamp, input and output entity
// ids), and the entity/agent names those rows interned first. The derived
// indexes themselves (postings, usage adjacency, derivations, the global
// time index) are not stored: a graph opened over row groups rebuilds each
// from the columns on first touch.
//
// The graph only grows, so a group that is full (kRowGroupRows rows) never
// changes again: it is sealed once and shared by every later epoch through
// a shared_ptr. A GraphImage — one epoch's view — is the sealed groups plus
// a copy of the partly filled open group, and a small header for the state
// that is not append-only (invalidations, edge/subject counters).
//
// The same groups are the on-disk snapshot format (GraphImage::EncodeTo /
// DecodeFrom). Decoding validates every group — counts, offsets and ids —
// so the rebuild code can index vectors by stored ids without re-checking.
//
// Thread safety: plain value types. A group or image reached through a
// shared_ptr<const ...> is immutable and safe to read from any thread.

#ifndef PROVLEDGER_PROV_ROW_GROUP_H_
#define PROVLEDGER_PROV_ROW_GROUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "prov/record.h"

namespace provledger {
namespace prov {

/// Rows per sealed group. Fixed (not an option): every group but the last
/// holds exactly this many rows, so row `rid` lives in group
/// rid / kRowGroupRows.
inline constexpr uint32_t kRowGroupRows = 16384;

/// \brief Variable-length entries stored back to back in one buffer. Every
/// entry starts with a `[u32 len][bytes]` string, its name: a name column's
/// entries are exactly that string, a record column's entries are canonical
/// record encodings (whose first field is the record id).
struct EntryColumn {
  /// Entry i spans [offsets[i], end(i)).
  std::vector<uint32_t> offsets;
  Bytes bytes;

  size_t size() const { return offsets.size(); }
  size_t end(size_t i) const {
    return i + 1 < offsets.size() ? offsets[i + 1] : bytes.size();
  }
  /// The leading string of entry i.
  std::string_view name(size_t i) const;
  /// Append a name entry.
  void AppendName(std::string_view name);
};

/// \brief A run of consecutive rows; see the file comment.
struct RowGroup {
  /// Row id of the first row.
  uint32_t first_row = 0;
  /// Ids the first entity/agent name of this group receives (the table
  /// sizes before these rows).
  uint32_t entity_base = 0;
  uint32_t agent_base = 0;

  /// \name Per-row columns (each rows() long).
  /// @{
  std::vector<uint32_t> subject;
  std::vector<uint32_t> agent;
  std::vector<Timestamp> timestamp;
  /// Row i's inputs are inputs[input_end[i-1] (0 for i = 0), input_end[i]).
  std::vector<uint32_t> input_end;
  std::vector<uint32_t> inputs;
  /// Effective outputs (the subject when a record declares none), same
  /// layout as the inputs.
  std::vector<uint32_t> output_end;
  std::vector<uint32_t> outputs;
  /// Canonical record encodings, one entry per row.
  EntryColumn records;
  /// @}

  /// Names first interned by these rows, in id order.
  EntryColumn entity_names;
  EntryColumn agent_names;

  size_t rows() const { return timestamp.size(); }
  uint32_t entity_end() const {
    return entity_base + static_cast<uint32_t>(entity_names.size());
  }
  uint32_t agent_end() const {
    return agent_base + static_cast<uint32_t>(agent_names.size());
  }
  /// Bytes of the group's encoding (what it costs in memory and on disk).
  size_t bytes() const;

  void EncodeTo(Encoder* enc) const;
  /// Decode one group and validate it against the running table sizes:
  /// `first_row`, `entity_base` and `agent_base` must continue the previous
  /// group, column counts must agree, offsets must be monotone and every
  /// id must fall inside the tables as of this group. Corruption otherwise.
  static Status DecodeFrom(Decoder* dec, uint32_t first_row,
                           uint32_t entity_base, uint32_t agent_base,
                           RowGroup* out);
};

/// \brief An invalidation mark on a record (SciBlock's timestamp-based
/// invalidation: later consumers of the outputs become invalid too).
struct Invalidation {
  std::string record_id;
  Timestamp at = 0;
  std::string reason;
  /// True when this record was invalidated transitively via a cascade.
  bool cascaded = false;
};

/// Invalidation marks by dense record id.
using InvalidationMap = std::unordered_map<uint32_t, Invalidation>;

/// \brief One epoch's view of the graph: shared row groups plus the
/// per-epoch header.
struct GraphImage {
  std::vector<std::shared_ptr<const RowGroup>> groups;
  /// Shared, never mutated; nullptr when nothing is invalidated.
  std::shared_ptr<const InvalidationMap> invalidations;
  uint64_t edge_count = 0;
  uint64_t subject_count = 0;

  size_t record_count() const;
  /// Every byte backing the image, shared groups included.
  size_t bytes() const;

  /// On-disk form: `[u32 groups][group...][invalidations][u64 edges]
  /// [u64 subjects]`.
  void EncodeTo(Encoder* enc) const;
  /// Decode and validate (see RowGroup::DecodeFrom); every group but the
  /// last must be full. Invalidation record ids come back empty (the graph
  /// resolves them from the dense id on demand).
  static Status DecodeFrom(Decoder* dec, GraphImage* out);
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_ROW_GROUP_H_
