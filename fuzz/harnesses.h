// Structure-aware fuzz harness bodies, one per untrusted-byte entry point.
//
// Each harness lives in fuzz/fuzz_<name>.cc and is built three ways from the
// same body:
//   * a libFuzzer target (<name>_libfuzzer) when PROVLEDGER_BUILD_FUZZERS is
//     on (clang only) — the coverage-guided long-form mode;
//   * a deterministic bounded-iteration executable (driver_main.cc) that runs
//     the seed corpus plus a common/rng mutation loop — the `fuzz` ctest
//     label, runnable everywhere including gcc-only CI;
//   * linked into tests/fuzz_regression_test.cc (PROVLEDGER_FUZZ_COMBINED
//     suppresses the per-file LLVMFuzzerTestOneInput shims) so every
//     checked-in corpus/crasher file replays byte-exactly through the same
//     code at every ctest run.
//
// Contract for a harness body: arbitrary bytes must never crash, trip a
// sanitizer, or drive an unbounded allocation — only return (decoders report
// Status::Corruption). Inputs that *do* decode must uphold the codec
// invariants (canonical re-encode, bit-identical round trips), which the
// bodies assert via PROVLEDGER_FUZZ_REQUIRE.

#ifndef PROVLEDGER_FUZZ_HARNESSES_H_
#define PROVLEDGER_FUZZ_HARNESSES_H_

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace provledger {
namespace fuzz {

/// Invariant check used by harness bodies: abort loudly (fuzzer finding)
/// instead of the silent pass a failed EXPECT would be outside gtest.
#define PROVLEDGER_FUZZ_REQUIRE(cond)                                       \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "fuzz invariant failed: %s at %s:%d\n", #cond,   \
                   __FILE__, __LINE__);                                     \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

/// Process-wide scratch directory for harnesses that exercise on-disk read
/// paths; created once (mkdtemp) and reused so per-input cost stays at one
/// file rewrite. Empty string if creation failed.
inline const std::string& ScratchDir() {
  static const std::string dir = [] {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/provledger_fuzz_XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    return made == nullptr ? std::string() : std::string(made);
  }();
  return dir;
}

/// Truncating, non-synced write: fuzz scratch needs no durability, and the
/// fsyncs in WriteFileAtomic would dominate every iteration.
inline bool WriteScratchFile(const std::string& path, const uint8_t* data,
                             size_t size) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      ::close(fd);
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return ::close(fd) == 0;
}

// One body per harness; names match fuzz/fuzz_<name>.cc and the seed corpus
// directory fuzz/corpus/<name>/.
void FuzzColumnarBatch(const uint8_t* data, size_t size);
void FuzzColumnarBlock(const uint8_t* data, size_t size);
void FuzzRecord(const uint8_t* data, size_t size);
void FuzzCompress(const uint8_t* data, size_t size);
void FuzzFramedLog(const uint8_t* data, size_t size);
void FuzzKvSegment(const uint8_t* data, size_t size);
void FuzzChainLog(const uint8_t* data, size_t size);
void FuzzReplication(const uint8_t* data, size_t size);
void FuzzLineageProof(const uint8_t* data, size_t size);
void FuzzStoreSnapshot(const uint8_t* data, size_t size);

}  // namespace fuzz
}  // namespace provledger

// Standalone builds (libFuzzer target or deterministic driver) get the
// entry-point shim from each fuzz_<name>.cc via this macro; the combined
// regression test defines PROVLEDGER_FUZZ_COMBINED to suppress them all.
#ifndef PROVLEDGER_FUZZ_COMBINED
#define PROVLEDGER_FUZZ_SHIM(body_fn)                                \
  extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data,         \
                                        size_t size) {               \
    ::provledger::fuzz::body_fn(data, size);                         \
    return 0;                                                        \
  }
#else
#define PROVLEDGER_FUZZ_SHIM(body_fn)
#endif

#endif  // PROVLEDGER_FUZZ_HARNESSES_H_
