// Storage layer tests: MemKvStore semantics, WriteBatch atomic application,
// ordered iteration, prefix scans, and the content-addressed store.

#include <gtest/gtest.h>

#include "storage/content_store.h"
#include "storage/kv_store.h"

namespace provledger {
namespace storage {
namespace {

TEST(MemKvStoreTest, PutGetDelete) {
  MemKvStore store;
  ASSERT_TRUE(store.Put("k1", ToBytes("v1")).ok());
  auto got = store.Get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(BytesToString(got.value()), "v1");
  EXPECT_TRUE(store.Has("k1"));

  ASSERT_TRUE(store.Delete("k1").ok());
  EXPECT_FALSE(store.Has("k1"));
  EXPECT_TRUE(store.Get("k1").status().IsNotFound());
}

TEST(MemKvStoreTest, OverwriteUpdatesBytes) {
  MemKvStore store;
  ASSERT_TRUE(store.Put("key", Bytes(100, 0xAA)).ok());
  size_t b1 = store.ApproximateBytes();
  ASSERT_TRUE(store.Put("key", Bytes(10, 0xBB)).ok());
  size_t b2 = store.ApproximateBytes();
  EXPECT_EQ(b1 - b2, 90u);
  EXPECT_EQ(store.ApproximateCount(), 1u);
}

TEST(MemKvStoreTest, DeleteMissingIsOk) {
  MemKvStore store;
  EXPECT_TRUE(store.Delete("ghost").ok());
}

TEST(MemKvStoreTest, WriteBatchAppliesInOrder) {
  MemKvStore store;
  WriteBatch batch;
  batch.Put("a", std::string("1"));
  batch.Put("b", std::string("2"));
  batch.Delete("a");
  batch.Put("c", std::string("3"));
  ASSERT_TRUE(store.Write(batch).ok());
  EXPECT_FALSE(store.Has("a"));
  EXPECT_TRUE(store.Has("b"));
  EXPECT_TRUE(store.Has("c"));
  EXPECT_EQ(batch.size(), 4u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

TEST(MemKvStoreTest, IteratorIsOrderedSnapshot) {
  MemKvStore store;
  ASSERT_TRUE(store.Put("b", ToBytes("2")).ok());
  ASSERT_TRUE(store.Put("a", ToBytes("1")).ok());
  ASSERT_TRUE(store.Put("c", ToBytes("3")).ok());

  auto it = store.NewIterator();
  // Mutations after snapshot creation are invisible.
  ASSERT_TRUE(store.Put("d", ToBytes("4")).ok());

  std::vector<std::string> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) keys.push_back(it->key());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MemKvStoreTest, IteratorsShareSnapshotsCopyOnWrite) {
  MemKvStore store;
  ASSERT_TRUE(store.Put("k", ToBytes("v1")).ok());
  // Many iterators between writes share one snapshot (no per-iterator
  // copy); each still sees the state at its creation time.
  auto it1 = store.NewIterator();
  auto it2 = store.NewIterator();
  ASSERT_TRUE(store.Put("k", ToBytes("v2")).ok());  // detaches via COW
  auto it3 = store.NewIterator();
  ASSERT_TRUE(store.Delete("k").ok());

  it1->SeekToFirst();
  it2->SeekToFirst();
  it3->SeekToFirst();
  ASSERT_TRUE(it1->Valid());
  EXPECT_EQ(BytesToString(it1->value()), "v1");
  ASSERT_TRUE(it2->Valid());
  EXPECT_EQ(BytesToString(it2->value()), "v1");
  ASSERT_TRUE(it3->Valid());
  EXPECT_EQ(BytesToString(it3->value()), "v2");
  EXPECT_FALSE(store.Has("k"));
}

TEST(MemKvStoreTest, IteratorSeek) {
  MemKvStore store;
  for (const char* k : {"apple", "banana", "cherry"}) {
    ASSERT_TRUE(store.Put(k, ToBytes(k)).ok());
  }
  auto it = store.NewIterator();
  it->Seek("b");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "banana");
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST(MemKvStoreTest, ScanPrefix) {
  MemKvStore store;
  ASSERT_TRUE(store.Put("prov/1", ToBytes("a")).ok());
  ASSERT_TRUE(store.Put("prov/2", ToBytes("b")).ok());
  ASSERT_TRUE(store.Put("prow/3", ToBytes("c")).ok());
  auto hits = ScanPrefix(store, "prov/");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, "prov/1");
  EXPECT_EQ(hits[1].first, "prov/2");
}

TEST(ContentStoreTest, PutGetRoundTrip) {
  ContentStore store;
  Bytes content = ToBytes("earth observation dataset v1");
  crypto::Digest cid = store.Put(content);
  auto got = store.Get(cid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), content);
  EXPECT_TRUE(store.Has(cid));
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(ContentStoreTest, PutIsIdempotent) {
  ContentStore store;
  Bytes content = ToBytes("same blob");
  crypto::Digest c1 = store.Put(content);
  crypto::Digest c2 = store.Put(content);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_EQ(store.total_bytes(), content.size());
}

TEST(ContentStoreTest, MissingContentIsNotFound) {
  ContentStore store;
  EXPECT_TRUE(store.Get(crypto::ZeroDigest()).status().IsNotFound());
  EXPECT_FALSE(store.Has(crypto::ZeroDigest()));
}

TEST(ContentStoreTest, GetVerifiedDetectsCorruption) {
  ContentStore store;
  crypto::Digest cid = store.Put(ToBytes("evidence file"));
  ASSERT_TRUE(store.GetVerified(cid).ok());
  ASSERT_TRUE(store.CorruptForTesting(cid));
  // Plain Get returns the corrupted bytes; GetVerified catches it.
  EXPECT_TRUE(store.Get(cid).ok());
  EXPECT_TRUE(store.GetVerified(cid).status().IsCorruption());
}

TEST(ContentStoreTest, DifferentContentDifferentAddress) {
  ContentStore store;
  crypto::Digest a = store.Put(ToBytes("a"));
  crypto::Digest b = store.Put(ToBytes("b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.object_count(), 2u);
}

}  // namespace
}  // namespace storage
}  // namespace provledger
