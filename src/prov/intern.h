// String interning for the provenance graph's hot path.
//
// Query latency over large provenance DAGs is dominated by string keys:
// every map lookup re-hashes (or re-compares) entity/agent/record ids, and
// every BFS visited-set insert copies a std::string. InternTable maps each
// distinct id to a dense uint32_t once at ingest time, so the graph engine
// can store adjacency as integer vectors and run traversals over bitsets.
//
// Ids are assigned contiguously from 0 in first-seen order, which makes
// them directly usable as vector indexes (CSR-style adjacency) and bitset
// positions.
//
// A table opened over row groups (prov/row_group.h) copies no string and
// builds no index of its own: base names stay in the shared group buffers
// and resolve through each group's shared name table (GroupIndex), probed
// oldest group first, so a name that repeats across groups resolves to its
// lowest id. Names interned in memory go into one private flat NameTable
// of the same kind.
//
// Thread safety: NOT internally synchronized. Intern() mutates; the const
// methods are pure reads (a group's name table builds under std::call_once),
// so with no concurrent Intern() they are safe from many threads.

#ifndef PROVLEDGER_PROV_INTERN_H_
#define PROVLEDGER_PROV_INTERN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "prov/row_group.h"

namespace provledger {
namespace prov {

/// \brief Bidirectional string <-> dense-id table.
class InternTable {
 public:
  /// Sentinel returned by Find() for unknown strings.
  static constexpr uint32_t kNone = NameTable::kNone;

  /// Id for `s`, interning it if new. Ids are dense: the first distinct
  /// string gets 0, the next 1, and so on.
  uint32_t Intern(std::string_view s);

  /// Id for `s`, or kNone if it was never interned.
  uint32_t Find(std::string_view s) const { return Find(s, NameHash(s)); }

  /// The string for a previously returned id; valid while the table lives.
  std::string_view Name(uint32_t id) const;

  /// Number of distinct strings interned.
  size_t size() const { return base_count_ + owned_.size(); }

  /// \brief Replace the table by the names in `column` of `groups`,
  /// concatenated in order (ids follow the entries), looked up through
  /// each group index's `table` over that column. The record column's
  /// names are the leading strings of its entries, the record ids. The
  /// table pins the groups; O(number of groups).
  void Open(std::vector<std::shared_ptr<const RowGroup>> groups,
            EntryColumn RowGroup::*column, NameTable GroupIndex::*table);

 private:
  uint32_t Find(std::string_view s, uint64_t hash) const;

  /// Base names (ids [0, base_count_)): group g's entries start at id
  /// bases_[g].
  std::vector<std::shared_ptr<const RowGroup>> groups_;
  std::vector<uint32_t> bases_;
  EntryColumn RowGroup::*column_ = &RowGroup::entity_names;
  NameTable GroupIndex::*table_ = &GroupIndex::entity_names;
  size_t base_count_ = 0;
  /// Names interned in memory (ids from base_count_) and their table.
  std::deque<std::string> owned_;
  NameTable owned_index_;
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_INTERN_H_
