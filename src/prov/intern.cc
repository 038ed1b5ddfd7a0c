#include "prov/intern.h"

namespace provledger {
namespace prov {

InternTable::InternTable(const InternTable& other)
    : columns_(other.columns_),
      base_count_(other.base_count_),
      owned_(other.owned_),
      index_ready_(false) {}

InternTable& InternTable::operator=(const InternTable& other) {
  if (this != &other) *this = InternTable(other);
  return *this;
}

uint32_t InternTable::Intern(std::string_view s) {
  EnsureIndex();
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(size());
  owned_.emplace_back(s);
  views_.push_back(owned_.back());
  ids_.emplace(views_.back(), id);
  return id;
}

uint32_t InternTable::Find(std::string_view s) const {
  EnsureIndex();
  auto it = ids_.find(s);
  return it == ids_.end() ? kNone : it->second;
}

void InternTable::Open(std::vector<std::shared_ptr<const EntryColumn>> columns) {
  *this = InternTable();
  columns_ = std::move(columns);
  for (const auto& column : columns_) base_count_ += column->size();
  index_ready_ = base_count_ == 0;
}

void InternTable::EnsureIndex() const {
  if (index_ready_) return;
  views_.clear();
  views_.reserve(size());
  for (const auto& column : columns_) {
    for (size_t i = 0; i < column->size(); ++i) {
      views_.push_back(column->name(i));
    }
  }
  for (const std::string& name : owned_) views_.push_back(name);
  ids_.clear();
  ids_.reserve(views_.size());
  for (uint32_t id = 0; id < views_.size(); ++id) ids_.emplace(views_[id], id);
  index_ready_ = true;
}

}  // namespace prov
}  // namespace provledger
