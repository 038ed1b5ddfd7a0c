// Deterministic driver for the fuzz harnesses — the no-libFuzzer mode that
// runs everywhere (the `fuzz` ctest label). Replays the whole seed corpus,
// then runs a bounded structure-unaware mutation loop (bit flips, boundary
// integers, truncation, splices, varint torture) off common/rng, so a run is
// reproducible from its seed. Any crash / sanitizer report fails the test;
// a clean pass prints one summary line.
//
// Usage: fuzz_<name> <corpus_dir> [iterations] [seed]
//   iterations default: 100000 (PROVLEDGER_FUZZ_ITERATIONS at configure
//   time); env PROVLEDGER_FUZZ_ITERATIONS overrides at run time.

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/fileio.h"
#include "common/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

using provledger::Bytes;
using provledger::Rng;

// Inputs are capped so a mutation chain cannot grow an input without bound
// (the decoders themselves are the subject under test, not the allocator).
constexpr size_t kMaxInputBytes = 64u << 10;

std::vector<std::string> ListCorpusFiles(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.empty() || name[0] == '.') continue;
    names.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // deterministic replay order
  return names;
}

void RunOne(const Bytes& input) {
  LLVMFuzzerTestOneInput(input.data(), input.size());
}

// One mutation step; kinds are weighted toward the byte-level edits that
// exercise length prefixes and varints hardest.
void MutateOnce(Rng* rng, const std::vector<Bytes>& pool, Bytes* input) {
  if (input->size() > kMaxInputBytes) input->resize(kMaxInputBytes);
  const uint64_t kind = rng->NextBelow(8);
  switch (kind) {
    case 0: {  // flip one bit
      if (input->empty()) break;
      const size_t at = rng->NextBelow(input->size());
      (*input)[at] ^= static_cast<uint8_t>(1u << rng->NextBelow(8));
      break;
    }
    case 1: {  // overwrite one byte
      if (input->empty()) break;
      (*input)[rng->NextBelow(input->size())] =
          static_cast<uint8_t>(rng->NextBelow(256));
      break;
    }
    case 2: {  // truncate
      if (input->empty()) break;
      input->resize(rng->NextBelow(input->size() + 1));
      break;
    }
    case 3: {  // insert a small random chunk
      const size_t n = 1 + rng->NextBelow(16);
      const size_t at = rng->NextBelow(input->size() + 1);
      Bytes chunk = rng->NextBytes(n);
      input->insert(input->begin() + static_cast<ptrdiff_t>(at),
                    chunk.begin(), chunk.end());
      break;
    }
    case 4: {  // boundary u32 stamped at a random offset
      static const uint32_t kBoundary[] = {0u,          1u,          0x7Fu,
                                           0x80u,       0xFFFFu,     0x7FFFFFFFu,
                                           0x80000000u, 0xFFFFFFFEu, 0xFFFFFFFFu};
      const uint32_t v = kBoundary[rng->NextBelow(
          sizeof(kBoundary) / sizeof(kBoundary[0]))];
      if (input->size() < 4) input->resize(4, 0);
      const size_t at = rng->NextBelow(input->size() - 3);
      for (int i = 0; i < 4; ++i) {
        (*input)[at + static_cast<size_t>(i)] =
            static_cast<uint8_t>(v >> (8 * i));
      }
      break;
    }
    case 5: {  // varint torture: a run of continuation bytes
      const size_t n = 1 + rng->NextBelow(12);
      const size_t at = rng->NextBelow(input->size() + 1);
      Bytes run(n, 0x80);
      run.back() = static_cast<uint8_t>(rng->NextBelow(256));
      input->insert(input->begin() + static_cast<ptrdiff_t>(at), run.begin(),
                    run.end());
      break;
    }
    case 6: {  // splice: prefix of this + suffix of a pool entry
      const Bytes& other = pool[rng->NextBelow(pool.size())];
      if (other.empty()) break;
      const size_t keep = rng->NextBelow(input->size() + 1);
      const size_t from = rng->NextBelow(other.size());
      input->resize(keep);
      // Only what survives the cap below is copied.
      const size_t room = kMaxInputBytes - std::min(keep, kMaxInputBytes);
      const size_t take = std::min(other.size() - from, room);
      input->insert(input->end(), other.begin() + static_cast<ptrdiff_t>(from),
                    other.begin() + static_cast<ptrdiff_t>(from + take));
      break;
    }
    default: {  // duplicate an internal chunk (repeated-section torture)
      if (input->empty()) break;
      const size_t from = rng->NextBelow(input->size());
      const size_t n =
          std::min<size_t>(1 + rng->NextBelow(32), input->size() - from);
      Bytes chunk(input->begin() + static_cast<ptrdiff_t>(from),
                  input->begin() + static_cast<ptrdiff_t>(from + n));
      const size_t at = rng->NextBelow(input->size() + 1);
      input->insert(input->begin() + static_cast<ptrdiff_t>(at), chunk.begin(),
                    chunk.end());
      break;
    }
  }
  if (input->size() > kMaxInputBytes) input->resize(kMaxInputBytes);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus_dir> [iterations] [seed]\n",
                 argv[0]);
    return 2;
  }
  const std::string corpus_dir = argv[1];
  uint64_t iterations = 100000;
  if (const char* env = std::getenv("PROVLEDGER_FUZZ_ITERATIONS")) {
    iterations = std::strtoull(env, nullptr, 10);
  } else if (argc > 2) {
    iterations = std::strtoull(argv[2], nullptr, 10);
  }
  const uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 0xC0FFEEull;

  // Seed pool: every corpus file, plus fixed boundary inputs so a missing
  // corpus directory still exercises the empty/degenerate paths.
  std::vector<Bytes> pool;
  for (const auto& path : ListCorpusFiles(corpus_dir)) {
    auto read = provledger::ReadFileToBytes(path);
    if (!read.ok()) {
      std::fprintf(stderr, "cannot read corpus file %s: %s\n", path.c_str(),
                   read.status().ToString().c_str());
      return 2;
    }
    pool.push_back(std::move(read).value());
  }
  pool.push_back(Bytes());
  pool.push_back(Bytes(1, 0x00));
  pool.push_back(Bytes(16, 0xFF));

  // Byte-exact corpus replay first: checked-in crashers re-run every time.
  for (const auto& input : pool) RunOne(input);

  Rng rng(seed);
  Bytes scratch;
  for (uint64_t i = 0; i < iterations; ++i) {
    // The first mutation caps the input anyway; copy only that much.
    const Bytes& base = pool[rng.NextBelow(pool.size())];
    scratch.assign(base.begin(),
                   base.begin() + static_cast<ptrdiff_t>(
                                      std::min(base.size(), kMaxInputBytes)));
    const uint64_t steps = 1 + rng.NextBelow(6);
    for (uint64_t s = 0; s < steps; ++s) MutateOnce(&rng, pool, &scratch);
    RunOne(scratch);
  }
  std::printf("fuzz: %zu corpus inputs + %llu mutations, no findings\n",
              pool.size(), static_cast<unsigned long long>(iterations));
  return 0;
}
