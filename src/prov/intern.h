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
// A table opened over row-group name columns (prov/row_group.h) copies no
// string: names stay in the shared group buffers, and the lookup index of
// string views into them builds on the first lookup.
//
// Thread safety: NOT internally synchronized. Intern() mutates; const
// lookups build the lazy index on first use. After Warm() — and with no
// further Intern() — const reads are safe from many threads.

#ifndef PROVLEDGER_PROV_INTERN_H_
#define PROVLEDGER_PROV_INTERN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "prov/row_group.h"

namespace provledger {
namespace prov {

/// \brief Bidirectional string <-> dense-id table.
class InternTable {
 public:
  /// Sentinel returned by Find() for unknown strings.
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  InternTable() = default;
  /// Copies re-point their index at their own names (the index holds views).
  InternTable(const InternTable& other);
  InternTable& operator=(const InternTable& other);
  InternTable(InternTable&&) = default;
  InternTable& operator=(InternTable&&) = default;

  /// Id for `s`, interning it if new. Ids are dense: the first distinct
  /// string gets 0, the next 1, and so on.
  uint32_t Intern(std::string_view s);

  /// Id for `s`, or kNone if it was never interned.
  uint32_t Find(std::string_view s) const;

  /// The string for a previously returned id; valid while the table lives.
  std::string_view Name(uint32_t id) const {
    EnsureIndex();
    return views_[id];
  }

  /// Number of distinct strings interned.
  size_t size() const { return base_count_ + owned_.size(); }

  /// \brief Build the lazy lookup index now. After Warm() — and with no
  /// Intern() calls afterwards — every const method is a pure read and
  /// safe to call from many threads concurrently.
  void Warm() const { EnsureIndex(); }

  /// \brief Replace the table by the names of `columns`, concatenated in
  /// order (ids follow the entries). Each column is an immutable name (or
  /// record) column of a shared row group, which the table pins; O(number
  /// of columns).
  void Open(std::vector<std::shared_ptr<const EntryColumn>> columns);

 private:
  /// Build views_ + ids_ over the base columns and owned names.
  void EnsureIndex() const;

  /// Base names (ids [0, base_count_)), from Open().
  std::vector<std::shared_ptr<const EntryColumn>> columns_;
  size_t base_count_ = 0;
  /// Names interned in memory (ids from base_count_); a deque so the views
  /// into its strings survive growth.
  std::deque<std::string> owned_;
  mutable std::vector<std::string_view> views_;
  mutable std::unordered_map<std::string_view, uint32_t> ids_;
  mutable bool index_ready_ = true;
};

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_INTERN_H_
