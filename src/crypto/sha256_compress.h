// The SHA-256 compression functions behind crypto::Sha256. Private to the
// crypto layer: library code hashes through Sha256, which picks one of
// these once per process from CPUID. The header exists so tests can run
// both implementations against each other on a CPU that has both.
//
// Each function absorbs `nblocks` consecutive 64-byte blocks starting at
// `data` into `state` (the eight working words a..h of FIPS 180-4,
// host-endian). `data` need not be aligned.
//
// Thread safety: stateless functions; each call touches only the caller's
// `state` and `data`, so distinct states are safe from any thread.

#ifndef PROVLEDGER_CRYPTO_SHA256_COMPRESS_H_
#define PROVLEDGER_CRYPTO_SHA256_COMPRESS_H_

#include <cstddef>
#include <cstdint>

namespace provledger {
namespace crypto {
namespace internal {

using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t nblocks);

/// Portable C++ compression: the only one off x86 or on CPUs without the
/// SHA extensions, and the reference the tests compare against.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t nblocks);

#if defined(__x86_64__)
/// Compression on the x86 SHA extensions (SHA-NI). Callers must first
/// check CpuHasShaNi(): on a CPU without them this faults.
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t nblocks);
#endif

/// True when CompressShaNi exists in this build and the CPU runs it.
bool CpuHasShaNi();

}  // namespace internal
}  // namespace crypto
}  // namespace provledger

#endif  // PROVLEDGER_CRYPTO_SHA256_COMPRESS_H_
