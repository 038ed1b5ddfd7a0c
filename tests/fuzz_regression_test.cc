// Fuzz-corpus regression replay (ctest label: fuzz): every file checked in
// under fuzz/corpus/ — seeds and crash-* fixtures alike — is fed byte-exactly
// through its harness body on every test run. A crasher that once broke a
// decoder stays fatal here forever: the harness aborts on any invariant
// violation, and the sanitizer jobs in scripts/check_build.sh run this same
// binary under ASan+UBSan.
//
// The harness bodies are compiled in directly (PROVLEDGER_FUZZ_COMBINED
// suppresses their per-file libFuzzer entry points), so this is the exact
// code the standalone fuzz_* executables run.

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "harnesses.h"

#ifndef PROVLEDGER_FUZZ_CORPUS_DIR
#error "PROVLEDGER_FUZZ_CORPUS_DIR must point at the checked-in corpus"
#endif

namespace provledger {
namespace {

using FuzzBody = void (*)(const uint8_t*, size_t);

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] == '.') continue;
    names.emplace_back(entry->d_name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// Replays every file in fuzz/corpus/<harness>/ through `body`. Requires a
/// non-empty corpus: an empty directory means the generator and the test
/// have drifted apart, which should fail loudly rather than pass vacuously.
void ReplayCorpus(const std::string& harness, FuzzBody body) {
  const std::string dir =
      std::string(PROVLEDGER_FUZZ_CORPUS_DIR) + "/" + harness;
  const std::vector<std::string> files = ListDir(dir);
  ASSERT_FALSE(files.empty()) << "no corpus seeds in " << dir
                              << " (run fuzz_make_corpus)";
  for (const std::string& name : files) {
    SCOPED_TRACE(dir + "/" + name);
    auto bytes = ReadFileToBytes(dir + "/" + name);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    body(bytes.value().data(), bytes.value().size());
  }
}

TEST(FuzzRegressionTest, ColumnarBatch) {
  ReplayCorpus("columnar_batch", fuzz::FuzzColumnarBatch);
}

TEST(FuzzRegressionTest, ColumnarBlock) {
  ReplayCorpus("columnar_block", fuzz::FuzzColumnarBlock);
}

TEST(FuzzRegressionTest, Record) { ReplayCorpus("record", fuzz::FuzzRecord); }

TEST(FuzzRegressionTest, Compress) {
  ReplayCorpus("compress", fuzz::FuzzCompress);
}

TEST(FuzzRegressionTest, FramedLog) {
  ReplayCorpus("framed_log", fuzz::FuzzFramedLog);
}

TEST(FuzzRegressionTest, KvSegment) {
  ReplayCorpus("kv_segment", fuzz::FuzzKvSegment);
}

TEST(FuzzRegressionTest, ChainLog) {
  ReplayCorpus("chain_log", fuzz::FuzzChainLog);
}

TEST(FuzzRegressionTest, Replication) {
  ReplayCorpus("replication", fuzz::FuzzReplication);
}

TEST(FuzzRegressionTest, StoreSnapshot) {
  ReplayCorpus("store_snapshot", fuzz::FuzzStoreSnapshot);
}

// Degenerate inputs every harness must shrug off, independent of corpus
// contents.
TEST(FuzzRegressionTest, DegenerateInputsOnEveryHarness) {
  const std::pair<const char*, FuzzBody> harnesses[] = {
      {"columnar_batch", fuzz::FuzzColumnarBatch},
      {"columnar_block", fuzz::FuzzColumnarBlock},
      {"record", fuzz::FuzzRecord},
      {"compress", fuzz::FuzzCompress},
      {"framed_log", fuzz::FuzzFramedLog},
      {"kv_segment", fuzz::FuzzKvSegment},
      {"chain_log", fuzz::FuzzChainLog},
      {"replication", fuzz::FuzzReplication},
      {"store_snapshot", fuzz::FuzzStoreSnapshot},
  };
  const Bytes zeros(64, 0x00);
  const Bytes ones(64, 0xFF);
  for (const auto& [name, body] : harnesses) {
    SCOPED_TRACE(name);
    body(nullptr, 0);
    body(zeros.data(), zeros.size());
    body(ones.data(), ones.size());
  }
}

}  // namespace
}  // namespace provledger
