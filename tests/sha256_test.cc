// SHA-256 / HMAC-SHA256 against FIPS-180 and RFC 4231 vectors, plus
// incremental-update equivalence properties, digests from an independent
// implementation (Python's hashlib) at every padding edge, and both
// compression functions (portable and SHA-NI) checked against each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"

namespace provledger {
namespace crypto {
namespace {

using internal::CompressFn;

/// The fixed pattern the hashlib digests below were taken over:
/// byte i is i % 251.
Bytes Pattern(size_t len) {
  Bytes out(len);
  for (size_t i = 0; i < len; ++i) out[i] = static_cast<uint8_t>(i % 251);
  return out;
}

/// hashlib.sha256(Pattern(len)).hexdigest(), computed outside this code
/// base. The lengths straddle every padding case: the length field fits
/// after the 0x80 (<= 55 mod 64), spills into a second block (56..63),
/// and whole blocks with nothing left over.
const std::vector<std::pair<size_t, std::string>>& HashlibDigests() {
  static const std::vector<std::pair<size_t, std::string>> digests = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
      {119,
       "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {120,
       "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
      {127,
       "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976"},
      {128,
       "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
      {1000,
       "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d"},
      {8192,
       "25df2449b2e5a35fea14e02a7158e283801a1069c9f84631b9a9dacb2f809a7f"},
  };
  return digests;
}

/// SHA-256 of `msg` written out plainly over one compression function: pad
/// a copy of the whole message, then compress it one block per call. It
/// shares no code with Sha256's buffering or padding.
Digest ReferenceDigest(CompressFn compress, const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (size_t at = 0; at < padded.size(); at += 64) {
    compress(state, padded.data() + at, 1);
  }
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[i * 4 + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

/// Every hashlib digest reproduced by `compress` through ReferenceDigest.
void ExpectHashlibDigests(CompressFn compress) {
  for (const auto& [len, hex] : HashlibDigests()) {
    EXPECT_EQ(DigestHex(ReferenceDigest(compress, Pattern(len))), hex)
        << "len=" << len;
  }
}

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAVector) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "provenance traces data from its creation to manipulation";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(std::string_view(msg).substr(0, split));
    h.Update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 one;
    one.Update(msg);
    Sha256 split;
    split.Update(std::string_view(msg).substr(0, len / 2));
    split.Update(std::string_view(msg).substr(len / 2));
    EXPECT_EQ(one.Finish(), split.Finish()) << "len=" << len;
  }
}

TEST(Sha256Test, MatchesHashlibAtPaddingEdges) {
  for (const auto& [len, hex] : HashlibDigests()) {
    const Bytes msg = Pattern(len);
    EXPECT_EQ(DigestHex(Sha256::Hash(msg)), hex) << "len=" << len;
    Sha256 bytewise;
    for (uint8_t byte : msg) bytewise.Update(&byte, 1);
    EXPECT_EQ(DigestHex(bytewise.Finish()), hex) << "bytewise len=" << len;
  }
  ExpectHashlibDigests(internal::CompressPortable);
}

TEST(Sha256Test, RandomSplitsMatchPortableReference) {
  // Whatever compression this CPU selected, Sha256's buffering, multi-block
  // runs and padding must agree with the plain portable loop.
  Rng rng(0x5b256);
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes msg = rng.NextBytes(rng.NextRange(0, 8192));
    Sha256 h;
    size_t at = 0;
    while (at < msg.size()) {
      const size_t part = std::min<size_t>(rng.NextRange(0, 300),
                                           msg.size() - at);
      h.Update(msg.data() + at, part);
      at += part;
    }
    ASSERT_EQ(h.Finish(), ReferenceDigest(internal::CompressPortable, msg))
        << "trial " << trial << ", " << msg.size() << " bytes";
  }
}

TEST(Sha256Test, AccelerationFollowsCpu) {
  EXPECT_EQ(Sha256::HardwareAccelerated(), internal::CpuHasShaNi());
}

#if defined(__x86_64__)
TEST(Sha256ShaNiTest, MatchesHashlibAtPaddingEdges) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU has no SHA extensions";
  ExpectHashlibDigests(internal::CompressShaNi);
}

TEST(Sha256ShaNiTest, SameStateAsPortable) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU has no SHA extensions";
  // Random states and random runs of 1..8 blocks per call.
  Rng rng(0x5a256);
  for (int trial = 0; trial < 2000; ++trial) {
    uint32_t expected[8];
    for (uint32_t& word : expected) {
      word = static_cast<uint32_t>(rng.NextU64());
    }
    uint32_t actual[8];
    std::copy(expected, expected + 8, actual);
    const size_t nblocks = rng.NextRange(1, 8);
    const Bytes data = rng.NextBytes(64 * nblocks);
    internal::CompressPortable(expected, data.data(), nblocks);
    internal::CompressShaNi(actual, data.data(), nblocks);
    ASSERT_TRUE(std::equal(expected, expected + 8, actual))
        << "trial " << trial << ", " << nblocks << " blocks";
  }
}
#endif

TEST(Sha256Test, HashPairDomain) {
  Digest a = Sha256::Hash("a");
  Digest b = Sha256::Hash("b");
  Digest ab = Sha256::HashPair(a, b);
  Digest ba = Sha256::HashPair(b, a);
  EXPECT_NE(ab, ba);
}

TEST(Sha256Test, DigestBytesRoundTrip) {
  Digest d = Sha256::Hash("roundtrip");
  auto parsed = DigestFromBytes(DigestToBytes(d));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), d);
  EXPECT_FALSE(DigestFromBytes(Bytes{1, 2, 3}).ok());
}

TEST(Sha256Test, ZeroDigestIsAllZero) {
  Digest z = ZeroDigest();
  for (uint8_t byte : z) EXPECT_EQ(byte, 0);
}

TEST(HmacSha256Test, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  Digest mac =
      HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key of 0xaa.
  Bytes key(131, 0xaa);
  Digest mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, KeySensitivity) {
  Bytes msg = ToBytes("same message");
  EXPECT_NE(HmacSha256(ToBytes("key1"), msg), HmacSha256(ToBytes("key2"), msg));
}

}  // namespace
}  // namespace crypto
}  // namespace provledger
