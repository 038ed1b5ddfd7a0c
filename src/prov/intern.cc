#include "prov/intern.h"

#include <algorithm>

namespace provledger {
namespace prov {

uint32_t InternTable::Intern(std::string_view s) {
  const uint64_t hash = NameHash(s);
  const uint32_t found = Find(s, hash);
  if (found != kNone) return found;
  owned_.emplace_back(s);
  const auto local = static_cast<uint32_t>(owned_.size() - 1);
  owned_index_.Insert(local, hash, [this](uint32_t i) {
    return std::string_view(owned_[i]);
  });
  return static_cast<uint32_t>(base_count_) + local;
}

uint32_t InternTable::Find(std::string_view s, uint64_t hash) const {
  for (size_t g = 0; g < groups_.size(); ++g) {
    const EntryColumn& column = (*groups_[g]).*column_;
    const uint32_t i = (groups_[g]->index().*table_).Find(
        s, hash, [&column](uint32_t entry) { return column.name(entry); });
    if (i != kNone) return bases_[g] + i;
  }
  const uint32_t i = owned_index_.Find(s, hash, [this](uint32_t entry) {
    return std::string_view(owned_[entry]);
  });
  return i == kNone ? kNone : static_cast<uint32_t>(base_count_) + i;
}

std::string_view InternTable::Name(uint32_t id) const {
  if (id >= base_count_) return owned_[id - base_count_];
  const size_t g = static_cast<size_t>(
      std::upper_bound(bases_.begin(), bases_.end(), id) - bases_.begin() - 1);
  return ((*groups_[g]).*column_).name(id - bases_[g]);
}

void InternTable::Open(std::vector<std::shared_ptr<const RowGroup>> groups,
                       EntryColumn RowGroup::*column,
                       NameTable GroupIndex::*table) {
  *this = InternTable();
  groups_ = std::move(groups);
  column_ = column;
  table_ = table;
  bases_.reserve(groups_.size());
  for (const auto& group : groups_) {
    bases_.push_back(static_cast<uint32_t>(base_count_));
    base_count_ += ((*group).*column).size();
  }
}

}  // namespace prov
}  // namespace provledger
