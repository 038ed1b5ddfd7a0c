// Row groups: the append-only storage unit that snapshot epochs share.
//
// A row group encodes a run of consecutive records (rows, in ingest order):
// their canonical record encodings, the per-row dense columns the graph's
// indexes derive from (subject, agent, timestamp, input and output entity
// ids), and the entity/agent names those rows interned first.
//
// The graph only grows, so a group that is full (kRowGroupRows rows) never
// changes again: it is sealed once and shared by every later epoch through
// a shared_ptr. A GraphImage — one epoch's view — is the sealed groups plus
// a copy of the partly filled open group, and a small header for the state
// that is not append-only (invalidations, edge/subject counters).
//
// Each group also carries one immutable GroupIndex over its rows: postings,
// usage and derivation lists, its time order and flat name tables. The index
// is derived memory, not encoding — it is never stored and never counted in
// bytes() — and is built from the columns once, on first use by whichever
// thread needs it (RowGroup::index()), then shared by every graph that
// reads the group. A copy of a group (an epoch's copy of the open group)
// starts without one.
//
// The same groups are the on-disk snapshot format (GraphImage::EncodeTo /
// DecodeFrom). Decoding validates every group — counts, offsets and ids —
// so the index build can index vectors by stored ids without re-checking.
//
// Thread safety: plain value types. A group or image reached through a
// shared_ptr<const ...> is immutable and safe to read from any thread;
// RowGroup::index() builds under std::call_once, so it is safe from any
// number of threads too.

#ifndef PROVLEDGER_PROV_ROW_GROUP_H_
#define PROVLEDGER_PROV_ROW_GROUP_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/hash64.h"
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

/// \brief A read-only run of ids (a slice of a flat id column or list).
struct IdSpan {
  const uint32_t* first = nullptr;
  const uint32_t* last = nullptr;
  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// Hash of a name, the key of every NameTable.
inline uint64_t NameHash(std::string_view name) {
  return Hash64(reinterpret_cast<const uint8_t*>(name.data()), name.size());
}

/// \brief Flat open-addressing map from names to entry indexes. The names
/// themselves stay where they are (a name column, an owner's strings):
/// every call takes `name_of(index)`, which returns the name of an entry.
/// Slots are u32 (0 = empty, else index + 1) probed linearly from the
/// name's NameHash; the table stays at most half full. The first entry
/// inserted under a name wins.
class NameTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Index of `name` (whose NameHash is `hash`), or kNone.
  template <typename NameOf>
  uint32_t Find(std::string_view name, uint64_t hash,
                const NameOf& name_of) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return kNone;
      if (name_of(slot - 1) == name) return slot - 1;
    }
  }

  /// Add entry `index` under its name (NameHash `hash`) unless the name is
  /// already present. Growing re-hashes every entry.
  template <typename NameOf>
  void Insert(uint32_t index, uint64_t hash, const NameOf& name_of) {
    if (2 * (count_ + 1) > slots_.size()) {
      Rehash(slots_.empty() ? 16 : 2 * slots_.size(), name_of);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = index + 1;
        ++count_;
        return;
      }
      if (name_of(slot - 1) == name_of(index)) return;
    }
  }

  /// Size the table for `n` entries up front (no re-hash while inserting
  /// that many).
  void Reserve(size_t n) {
    size_t capacity = 16;
    while (capacity < 2 * n) capacity *= 2;
    if (capacity > slots_.size()) slots_.assign(capacity, 0);
  }

 private:
  template <typename NameOf>
  void Rehash(size_t capacity, const NameOf& name_of) {
    std::vector<uint32_t> old(capacity, 0);
    old.swap(slots_);
    const size_t mask = capacity - 1;
    for (uint32_t slot : old) {
      if (slot == 0) continue;
      size_t i = NameHash(name_of(slot - 1)) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<uint32_t> slots_;
  size_t count_ = 0;
};

/// \brief Compressed sparse rows: for each key in `keys` (sorted,
/// distinct), its run of ids values[offsets[k], offsets[k + 1]).
struct IdLists {
  std::vector<uint32_t> keys;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> values;

  /// The run of `key`; empty when the key is absent.
  IdSpan Find(uint32_t key) const;
};

struct RowGroup;

/// \brief One group's immutable index, derived from its columns (see the
/// file comment). Row values are global row ids (first_row + row).
struct GroupIndex {
  /// Subject and agent postings: rows in (timestamp, row) order.
  IdLists by_subject;
  IdLists by_agent;
  /// Input and output mentions per entity in row order, one entry per
  /// mention (a row listing an entity twice appears twice).
  IdLists used_by;
  IdLists generated_by;
  /// Derivations (output <- input and input -> output), each list sorted
  /// and deduplicated, self-pairs skipped.
  IdLists derived_from;
  IdLists derivations;
  /// Every row in (timestamp, row) order, and the group's time bounds.
  std::vector<uint32_t> by_time;
  Timestamp min_ts = 0;
  Timestamp max_ts = 0;
  /// Entry index of each name of the group's name columns (the record
  /// column's names are the record ids); the first occurrence wins.
  NameTable entity_names;
  NameTable agent_names;
  NameTable record_ids;

  /// Build from a group's columns: radix sorts and one pass per list, so
  /// linear in the rows and mentions. The group must have passed
  /// RowGroup::DecodeFrom's validation (or come from the builder).
  static std::unique_ptr<const GroupIndex> Build(const RowGroup& group);
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
  /// Row `row`'s input and output entity ids.
  IdSpan inputs_of(size_t row) const {
    return {inputs.data() + (row == 0 ? 0 : input_end[row - 1]),
            inputs.data() + input_end[row]};
  }
  IdSpan outputs_of(size_t row) const {
    return {outputs.data() + (row == 0 ? 0 : output_end[row - 1]),
            outputs.data() + output_end[row]};
  }
  uint32_t entity_end() const {
    return entity_base + static_cast<uint32_t>(entity_names.size());
  }
  uint32_t agent_end() const {
    return agent_base + static_cast<uint32_t>(agent_names.size());
  }
  /// Bytes of the group's encoding (what it costs in memory and on disk).
  /// The index is derived memory and is not counted.
  size_t bytes() const;

  /// The group's index, built on the first call (by whichever thread
  /// makes it; concurrent callers wait for that one build). Every build
  /// adds one to the default registry's graph_group_index_builds_total.
  /// Call it only on a group that no longer changes.
  const GroupIndex& index() const;

  void EncodeTo(Encoder* enc) const;
  /// Decode one group and validate it against the running table sizes:
  /// `first_row`, `entity_base` and `agent_base` must continue the previous
  /// group, column counts must agree, offsets must be monotone and every
  /// id must fall inside the tables as of this group. Corruption otherwise.
  static Status DecodeFrom(Decoder* dec, uint32_t first_row,
                           uint32_t entity_base, uint32_t agent_base,
                           RowGroup* out);

 private:
  /// Holds the index once built. Copying or moving a group never carries
  /// the index: the copy gets an empty slot of its own.
  class IndexSlot {
   public:
    IndexSlot() : state_(std::make_unique<State>()) {}
    IndexSlot(const IndexSlot&) : IndexSlot() {}
    IndexSlot& operator=(const IndexSlot&) {
      state_ = std::make_unique<State>();
      return *this;
    }
    const GroupIndex& Get(const RowGroup& group) const;

   private:
    struct State {
      std::once_flag once;
      std::unique_ptr<const GroupIndex> index;
    };
    std::unique_ptr<State> state_;
  };
  IndexSlot index_slot_;
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
