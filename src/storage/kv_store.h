// Ordered key-value store abstraction (RocksDB-flavoured): Put/Get/Delete,
// atomic WriteBatch application, and ordered iteration. The ledger block
// index, provenance indexes, and access-control state all sit on this
// interface, so an embedded LSM engine could be swapped in without touching
// the layers above.

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
/// (all-or-nothing) by KvStore::Write.
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

/// \brief Forward iterator over an ordered snapshot of the store.
class KvIterator {
 public:
  virtual ~KvIterator() = default;
  /// Position at the first key >= target.
  virtual void Seek(const std::string& target) = 0;
  virtual void SeekToFirst() = 0;
  virtual bool Valid() const = 0;
  virtual void Next() = 0;
  virtual const std::string& key() const = 0;
  virtual const Bytes& value() const = 0;
};

/// \brief Ordered KV store interface.
class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(const std::string& key, Bytes value) = 0;
  virtual Result<Bytes> Get(const std::string& key) const = 0;
  virtual Status Delete(const std::string& key) = 0;
  virtual bool Has(const std::string& key) const = 0;
  /// Apply a batch atomically.
  virtual Status Write(const WriteBatch& batch) = 0;
  /// Ordered iterator over a point-in-time snapshot.
  virtual std::unique_ptr<KvIterator> NewIterator() const = 0;
  virtual size_t ApproximateCount() const = 0;
  /// Total bytes of keys + values (the storage-overhead metric of §6.1).
  virtual size_t ApproximateBytes() const = 0;
};

/// \brief In-memory ordered store (std::map-backed).
///
/// Iterators are true point-in-time snapshots, shared copy-on-write: taking
/// an iterator is O(1) (it pins the current map), and the store only pays a
/// full copy on the first mutation while a snapshot is still alive. Scan
/// paths that take many iterators between writes (AuditAll, ScanPrefix) no
/// longer deep-copy the map per call.
///
/// Thread safety: NOT internally synchronized — one thread (or external
/// locking) must own the store. An *iterator*, however, is safe to hand to
/// another thread once taken: it pins an immutable COW map generation that
/// later mutations never touch (the same property the provenance snapshot
/// layer builds its reader isolation on).
class MemKvStore : public KvStore {
 public:
  MemKvStore() : map_(std::make_shared<Map>()) {}

  Status Put(const std::string& key, Bytes value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  bool Has(const std::string& key) const override;
  Status Write(const WriteBatch& batch) override;
  std::unique_ptr<KvIterator> NewIterator() const override;
  size_t ApproximateCount() const override { return map_->size(); }
  size_t ApproximateBytes() const override { return bytes_; }

 private:
  using Map = std::map<std::string, Bytes>;

  /// The map, detached from live snapshots first (copy-on-write).
  Map& Mutable();

  std::shared_ptr<Map> map_;
  size_t bytes_ = 0;
};

/// \brief All keys in [prefix, prefix-end) as (key, value) pairs — a common
/// query-service access pattern.
std::vector<std::pair<std::string, Bytes>> ScanPrefix(const KvStore& store,
                                                      const std::string& prefix);

}  // namespace storage
}  // namespace provledger

#endif  // PROVLEDGER_STORAGE_KV_STORE_H_
