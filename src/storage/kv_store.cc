#include "storage/kv_store.h"

namespace provledger {
namespace storage {

void WriteBatch::Put(const std::string& key, Bytes value) {
  ops_.push_back({Op::Kind::kPut, key, std::move(value)});
}

void WriteBatch::Put(const std::string& key, const std::string& value) {
  ops_.push_back({Op::Kind::kPut, key, ToBytes(value)});
}

void WriteBatch::Delete(const std::string& key) {
  ops_.push_back({Op::Kind::kDelete, key, {}});
}

void WriteBatch::Clear() { ops_.clear(); }

namespace {
class MemKvIterator : public KvIterator {
 public:
  explicit MemKvIterator(std::shared_ptr<const std::map<std::string, Bytes>>
                             snapshot)
      : snapshot_(std::move(snapshot)), it_(snapshot_->begin()) {}

  void Seek(const std::string& target) override {
    it_ = snapshot_->lower_bound(target);
  }
  void SeekToFirst() override { it_ = snapshot_->begin(); }
  bool Valid() const override { return it_ != snapshot_->end(); }
  void Next() override { ++it_; }
  const std::string& key() const override { return it_->first; }
  const Bytes& value() const override { return it_->second; }

 private:
  std::shared_ptr<const std::map<std::string, Bytes>> snapshot_;
  std::map<std::string, Bytes>::const_iterator it_;
};
}  // namespace

MemKvStore::Map& MemKvStore::Mutable() {
  // A use count above one means a live snapshot iterator still pins the
  // current map: detach by copying once, and mutate the private copy.
  if (map_.use_count() > 1) map_ = std::make_shared<Map>(*map_);
  return *map_;
}

Status MemKvStore::Put(const std::string& key, Bytes value) {
  Map& map = Mutable();
  auto it = map.find(key);
  if (it != map.end()) {
    bytes_ -= key.size() + it->second.size();
  }
  bytes_ += key.size() + value.size();
  map[key] = std::move(value);
  return Status::OK();
}

Result<Bytes> MemKvStore::Get(const std::string& key) const {
  auto it = map_->find(key);
  if (it == map_->end()) return Status::NotFound("key not found: " + key);
  return it->second;
}

Status MemKvStore::Delete(const std::string& key) {
  auto it = map_->find(key);
  if (it != map_->end()) {
    bytes_ -= key.size() + it->second.size();
    Mutable().erase(key);
  }
  return Status::OK();
}

bool MemKvStore::Has(const std::string& key) const {
  return map_->count(key) > 0;
}

Status MemKvStore::Write(const WriteBatch& batch) {
  // MemKvStore mutations cannot fail, so sequential application is atomic.
  for (const auto& op : batch.ops()) {
    if (op.kind == WriteBatch::Op::Kind::kPut) {
      PROVLEDGER_RETURN_NOT_OK(Put(op.key, op.value));
    } else {
      PROVLEDGER_RETURN_NOT_OK(Delete(op.key));
    }
  }
  return Status::OK();
}

std::unique_ptr<KvIterator> MemKvStore::NewIterator() const {
  // O(1): the iterator shares the current map; the next mutation detaches.
  return std::make_unique<MemKvIterator>(map_);
}

std::vector<std::pair<std::string, Bytes>> ScanPrefix(
    const KvStore& store, const std::string& prefix) {
  std::vector<std::pair<std::string, Bytes>> out;
  auto it = store.NewIterator();
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    if (it->key().compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->key(), it->value());
  }
  return out;
}

}  // namespace storage
}  // namespace provledger
