#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_compress.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace provledger {
namespace crypto {

namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

using internal::CompressFn;

CompressFn SelectCompress() {
#if defined(__x86_64__)
  if (internal::CpuHasShaNi()) return internal::CompressShaNi;
#endif
  return internal::CompressPortable;
}

// Chosen on first use, not by a namespace-scope initializer, so the choice
// is already made when another translation unit hashes from its own static
// initialization; function-local statics initialize exactly once even
// under concurrent first calls.
CompressFn Compress() {
  static const CompressFn compress = SelectCompress();
  return compress;
}

}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* data,
                      size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(data[i * 4]) << 24 |
             static_cast<uint32_t>(data[i * 4 + 1]) << 16 |
             static_cast<uint32_t>(data[i * 4 + 2]) << 8 |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// Gulley et al., "Intel SHA Extensions" (2013). Only this function is
// compiled for the extensions, so the rest of the binary keeps the
// baseline x86-64 ISA and runs on any CPU.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  // Message words are big-endian; this shuffle swaps each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The round instruction holds the state as two halves, ABEF and CDGH.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds schedule words 4g..4g+3 while group g runs.
    __m128i w[4];
    // Sixteen groups of four rounds. Once unrolled, every branch below is
    // decided at compile time and w[] lives in registers.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      }
      const __m128i k =
          _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * g]));
      const __m128i msg = _mm_add_epi32(w[g % 4], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g < 15) {
        // Finish words 4(g+1)..4(g+1)+3: add W[t-7], then sigma1(W[t-2]).
        const __m128i w_minus_7 = _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4);
        w[(g + 1) % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(w[(g + 1) % 4], w_minus_7), w[g % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (g >= 1 && g < 13) {
        // Start words 4(g+3)..4(g+3)+3: W[t-16] + sigma0(W[t-15]).
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // defined(__x86_64__)

bool CpuHasShaNi() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

}  // namespace internal

Sha256::Sha256() : bit_count_(0), buffer_len_(0) {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

bool Sha256::HardwareAccelerated() {
  return Compress() != internal::CompressPortable;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    Compress()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks go straight from the caller's memory in one call, so the
  // state stays in registers across them.
  const size_t whole = len / sizeof(buffer_);
  if (whole > 0) {
    Compress()(state_, data, whole);
    data += whole * sizeof(buffer_);
    len -= whole * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha256::Update(const Bytes& data) {
  // An empty vector's data() may be nullptr; don't hand that to the
  // pointer overload (memcpy with a null source is UB even at length 0,
  // and -fanalyzer rightly flags the path).
  if (!data.empty()) Update(data.data(), data.size());
}

void Sha256::Update(std::string_view data) {
  // Same null-data guard as the Bytes overload: an empty view's data()
  // may be nullptr.
  if (!data.empty()) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }
}

Digest Sha256::Finish() {
  // Pad in place: 0x80, zeros up to the 8-byte length field (through a
  // second block when fewer than 8 bytes are left after the 0x80), then
  // the big-endian bit count. Update keeps buffer_len_ below 64.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    Compress()(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Compress()(state_, buffer_, 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Digest Sha256::HashPair(const Digest& a, const Digest& b) {
  Sha256 h;
  h.Update(a.data(), a.size());
  h.Update(b.data(), b.size());
  return h.Finish();
}

Bytes DigestToBytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

Result<Digest> DigestFromBytes(const Bytes& b) {
  if (b.size() != kSha256DigestSize) {
    return Status::InvalidArgument("digest must be 32 bytes");
  }
  Digest d;
  std::memcpy(d.data(), b.data(), kSha256DigestSize);
  return d;
}

std::string DigestHex(const Digest& d) {
  return HexEncode(d.data(), d.size());
}

Digest ZeroDigest() {
  Digest d{};
  return d;
}

Digest HmacSha256(const Bytes& key, const Bytes& message) {
  constexpr size_t kBlockSize = 64;
  Bytes k = key;
  if (k.size() > kBlockSize) {
    Digest kd = Sha256::Hash(k);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(kBlockSize, 0);

  Bytes ipad(kBlockSize), opad(kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad);
  inner.Update(message);
  Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

}  // namespace crypto
}  // namespace provledger
