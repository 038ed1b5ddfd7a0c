// In-memory ordered key-value store (RocksDB-flavoured): Put/Get/Delete,
// atomic WriteBatch application, and ordered snapshot iteration. The
// contract runtime keeps its state here (contracts/runtime.h).

#ifndef PROVLEDGER_STORAGE_KV_STORE_H_
#define PROVLEDGER_STORAGE_KV_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace provledger {
namespace storage {

/// \brief A buffered sequence of writes applied atomically
/// (all-or-nothing) by MemKvStore::Write.
class WriteBatch {
 public:
  void Put(const std::string& key, Bytes value);
  void Put(const std::string& key, const std::string& value);
  void Delete(const std::string& key);
  void Clear();

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  struct Op {
    enum class Kind { kPut, kDelete };
    Kind kind;
    std::string key;
    Bytes value;
  };
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

/// \brief Forward iterator over a point-in-time snapshot of a MemKvStore.
/// It pins an immutable map generation, so it stays valid and unchanged
/// across later mutations of the store.
class MemKvIterator {
 public:
  using Map = std::map<std::string, Bytes>;

  explicit MemKvIterator(std::shared_ptr<const Map> snapshot)
      : snapshot_(std::move(snapshot)), it_(snapshot_->begin()) {}

  /// Position at the first key >= target.
  void Seek(const std::string& target) { it_ = snapshot_->lower_bound(target); }
  void SeekToFirst() { it_ = snapshot_->begin(); }
  bool Valid() const { return it_ != snapshot_->end(); }
  void Next() { ++it_; }
  const std::string& key() const { return it_->first; }
  const Bytes& value() const { return it_->second; }

 private:
  std::shared_ptr<const Map> snapshot_;
  Map::const_iterator it_;
};

/// \brief In-memory ordered store (std::map-backed).
///
/// Iterators are true point-in-time snapshots, shared copy-on-write: taking
/// an iterator is O(1) (it pins the current map), and the store only pays a
/// full copy on the first mutation while a snapshot is still alive. Scan
/// paths that take many iterators between writes (ScanPrefix) never
/// deep-copy the map per call.
///
/// Thread safety: NOT internally synchronized — one thread (or external
/// locking) must own the store. An *iterator*, however, is safe to hand to
/// another thread once taken: it pins an immutable COW map generation that
/// later mutations never touch.
class MemKvStore {
 public:
  MemKvStore() : map_(std::make_shared<Map>()) {}

  Status Put(const std::string& key, Bytes value);
  Result<Bytes> Get(const std::string& key) const;
  Status Delete(const std::string& key);
  bool Has(const std::string& key) const;
  /// Apply a batch atomically.
  Status Write(const WriteBatch& batch);
  /// Ordered iterator over a point-in-time snapshot.
  MemKvIterator NewIterator() const;
  size_t ApproximateCount() const { return map_->size(); }
  /// Total bytes of keys + values (the storage-overhead metric of §6.1).
  size_t ApproximateBytes() const { return bytes_; }

 private:
  using Map = MemKvIterator::Map;

  /// The map, detached from live snapshots first (copy-on-write).
  Map& Mutable();

  std::shared_ptr<Map> map_;
  size_t bytes_ = 0;
};

/// \brief All keys in [prefix, prefix-end) as (key, value) pairs — a common
/// query-service access pattern.
std::vector<std::pair<std::string, Bytes>> ScanPrefix(
    const MemKvStore& store, const std::string& prefix);

}  // namespace storage
}  // namespace provledger

#endif  // PROVLEDGER_STORAGE_KV_STORE_H_
