// SHA-256 (FIPS 180-4). This is the only hash in ProvLedger: transaction
// ids, block ids, Merkle nodes, content addresses, hash-locks, and
// Fiat–Shamir challenges are all SHA-256 digests.
//
// Two compression functions sit behind one interface: one on the x86 SHA
// extensions (SHA-NI) and a portable C++ one. The process picks once, from
// CPUID, on its first hash; nothing else selects between them. The
// portable one runs on CPUs without SHA-NI and off x86, and is the
// reference the tests check the other against. Both produce the same
// digests.
//
// Thread safety: the free functions and static members are stateless and
// safe from any thread; each streaming Sha256 instance is single-owner.

#ifndef PROVLEDGER_CRYPTO_SHA256_H_
#define PROVLEDGER_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace provledger {
namespace crypto {

/// Digest size in bytes.
inline constexpr size_t kSha256DigestSize = 32;

/// Fixed-size SHA-256 digest.
using Digest = std::array<uint8_t, kSha256DigestSize>;

/// \brief Incremental SHA-256 hasher.
///
/// \code
///   Sha256 h;
///   h.Update(part1);
///   h.Update(part2);
///   Digest d = h.Finish();
/// \endcode
class Sha256 {
 public:
  Sha256();

  /// Absorb more input.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data);
  void Update(std::string_view data);

  /// Finalize and return the digest. The hasher must not be reused after.
  Digest Finish();

  /// One-shot convenience.
  static Digest Hash(const Bytes& data);
  static Digest Hash(std::string_view data);
  /// Hash of the concatenation a||b (the Merkle interior-node pattern).
  static Digest HashPair(const Digest& a, const Digest& b);

  /// True when this process hashes with the SHA-NI compression, false on
  /// the portable one (reported as the crypto_sha256_accelerated gauge).
  static bool HardwareAccelerated();

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// \brief Digest as an owned Bytes buffer.
Bytes DigestToBytes(const Digest& d);
/// \brief Parse a 32-byte buffer into a Digest; fails on wrong size.
Result<Digest> DigestFromBytes(const Bytes& b);
/// \brief Lowercase hex of a digest.
std::string DigestHex(const Digest& d);
/// \brief All-zero digest (used as "null hash" for genesis prev-links).
Digest ZeroDigest();

/// \brief HMAC-SHA256 (RFC 2104). Used for keyed tokens: searchable-index
/// trapdoors, PUF response simulation, capability MACs.
Digest HmacSha256(const Bytes& key, const Bytes& message);

}  // namespace crypto
}  // namespace provledger

#endif  // PROVLEDGER_CRYPTO_SHA256_H_
