// Encoding-layer tests: the columnar batch codec (bit-identical round trip
// against the canonical record encoding) and versioned block frames on the
// ChainLog and the replication wire, where logs and peers from before the
// columnar form must still replay. The invariant under test everywhere:
// the compact forms are *transport* encodings — decoding must reproduce
// the exact canonical bytes (same Encode(), same Hash()) or fail loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/fileio.h"
#include "common/framed_log.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "ledger/chain.h"
#include "ledger/chain_log.h"
#include "prov/columnar.h"
#include "prov/record.h"
#include "replication/cluster.h"
#include "temp_dir.h"

namespace provledger {
namespace {

namespace columnar = prov::columnar;

// ---------------------------------------------------------------------------
// Record batch round trips
// ---------------------------------------------------------------------------

prov::ProvenanceRecord BaseRecord(size_t i) {
  prov::ProvenanceRecord rec;
  rec.record_id = "rec-" + std::to_string(1000 + i);
  rec.domain = prov::Domain::kCloud;
  rec.operation = "update";
  rec.subject = "file-" + std::to_string(i % 7);
  rec.agent = "user-" + std::to_string(i % 3);
  rec.timestamp = static_cast<Timestamp>(5'000'000 + i * 137);
  rec.fields["vm_id"] = "vm-12";
  rec.fields["operation_umid"] = "op-" + std::to_string(i);
  return rec;
}

void ExpectBitIdenticalRoundTrip(
    const std::vector<prov::ProvenanceRecord>& records) {
  Bytes encoded = columnar::EncodeRecordBatch(records);
  auto decoded = columnar::DecodeRecordBatch(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    // Bit-identical: same canonical bytes, therefore same content hash —
    // Merkle roots, txids, and dedup built on Hash() are all untouched.
    EXPECT_EQ(decoded.value()[i].Encode(), records[i].Encode()) << "i=" << i;
    EXPECT_EQ(decoded.value()[i].Hash(), records[i].Hash()) << "i=" << i;
  }
}

TEST(ColumnarBatchTest, RoundTripAllSevenDomains) {
  std::vector<prov::ProvenanceRecord> records;
  for (int d = 0; d <= 6; ++d) {
    prov::ProvenanceRecord rec = BaseRecord(records.size());
    rec.domain = static_cast<prov::Domain>(d);
    rec.inputs = {"in-" + std::to_string(d), "shared-input"};
    rec.outputs = {"out-" + std::to_string(d)};
    rec.payload_hash = crypto::Sha256::Hash(ToBytes("artifact-" +
                                                    std::to_string(d)));
    records.push_back(std::move(rec));
  }
  ExpectBitIdenticalRoundTrip(records);
}

TEST(ColumnarBatchTest, EmptyBatch) {
  ExpectBitIdenticalRoundTrip({});
  EXPECT_EQ(columnar::EncodeRecordBatch({}).size(), 1u);  // just the count
}

TEST(ColumnarBatchTest, SingleRecord) {
  ExpectBitIdenticalRoundTrip({BaseRecord(0)});
}

TEST(ColumnarBatchTest, SelfSimilarBatchCompresses) {
  std::vector<prov::ProvenanceRecord> records;
  size_t canonical = 0;
  for (size_t i = 0; i < 512; ++i) {
    records.push_back(BaseRecord(i));
    canonical += records.back().Encode().size();
  }
  Bytes encoded = columnar::EncodeRecordBatch(records);
  // The headline claim: >= 3x smaller than the canonical per-record form
  // on an IoT-shaped batch (in practice ~8-10x).
  EXPECT_LT(encoded.size() * 3, canonical);
  ExpectBitIdenticalRoundTrip(records);
}

TEST(ColumnarBatchTest, UnicodeAndEmptyValues) {
  prov::ProvenanceRecord a = BaseRecord(0);
  a.operation = "";
  a.agent = "";
  a.fields[""] = "";                       // empty key and value
  a.fields["unité"] = "café ☕ провенанс";  // multi-byte UTF-8
  prov::ProvenanceRecord b = BaseRecord(1);
  b.subject = "";
  b.fields["k"] = std::string(3, '\0');  // embedded NULs survive
  ExpectBitIdenticalRoundTrip({a, b});
}

TEST(ColumnarBatchTest, IdSuffixEdgeCases) {
  const std::string nineteen_digits = "1234567890123456789";
  std::vector<std::string> ids = {
      "rec-007",            // leading zeros must survive re-formatting
      "007",                // all digits, leading zeros
      "42",                 // all digits
      "no-digits",          // no numeric tail
      "",                   // empty id
      "rec-" + nineteen_digits,  // > 18 digits: tail capped, not overflowed
      nineteen_digits + "0",     // 20 digits
      "rec-000000000000000042",  // exactly 18-digit tail
      "trailing-dash-",          // digit run is interior, not trailing
  };
  std::vector<prov::ProvenanceRecord> records;
  for (size_t i = 0; i < ids.size(); ++i) {
    prov::ProvenanceRecord rec = BaseRecord(i);
    rec.record_id = ids[i];
    records.push_back(std::move(rec));
  }
  ExpectBitIdenticalRoundTrip(records);
}

TEST(ColumnarBatchTest, AdversarialDissimilarRecords) {
  // Nothing shared: every column's dictionary degenerates to one entry per
  // record, timestamps go backwards (negative deltas), ids are unrelated.
  std::vector<prov::ProvenanceRecord> records;
  for (size_t i = 0; i < 64; ++i) {
    prov::ProvenanceRecord rec;
    rec.record_id = std::string(i, 'x') + std::to_string(i * 7919);
    rec.domain = static_cast<prov::Domain>(i % 7);
    rec.operation = "op" + std::string(i % 11, 'q');
    rec.subject = "s" + std::to_string((i * 104729) % 1000003);
    rec.agent = std::string(1, static_cast<char>('a' + (i % 26)));
    rec.timestamp = static_cast<Timestamp>(1'000'000'000) -
                    static_cast<Timestamp>(i * i * 33'331);
    for (size_t k = 0; k < i % 5; ++k) {
      rec.fields["key-" + std::to_string(i) + "-" + std::to_string(k)] =
          std::string(k * 17, static_cast<char>('A' + k));
    }
    if (i % 3 == 0) rec.inputs.push_back("in" + std::to_string(i));
    if (i % 4 == 0) {
      rec.payload_hash = crypto::Sha256::Hash(ToBytes(std::to_string(i)));
    }
    records.push_back(std::move(rec));
  }
  ExpectBitIdenticalRoundTrip(records);
}

TEST(ColumnarBatchTest, TruncationFailsLoudlyAtEveryPrefix) {
  std::vector<prov::ProvenanceRecord> records;
  for (size_t i = 0; i < 8; ++i) records.push_back(BaseRecord(i));
  Bytes encoded = columnar::EncodeRecordBatch(records);
  ASSERT_GT(encoded.size(), 8u);
  for (size_t len = 0; len < encoded.size(); ++len) {
    Bytes prefix(encoded.begin(), encoded.begin() + len);
    auto decoded = columnar::DecodeRecordBatch(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too: the batch must consume every byte.
  Bytes padded = encoded;
  padded.push_back(0x00);
  EXPECT_FALSE(columnar::DecodeRecordBatch(padded).ok());
}

TEST(ColumnarBatchTest, GoldenBytes) {
  // Wire-format pin: if this test fails, the columnar format changed and
  // needs either a new frame version or a deliberate update of this vector.
  prov::ProvenanceRecord a;
  a.record_id = "rec-1";
  a.domain = prov::Domain::kSupplyChain;
  a.operation = "create";
  a.subject = "pkg-9";
  a.agent = "org-a";
  a.timestamp = 1000;
  a.fields["batch_number"] = "lot-1";
  prov::ProvenanceRecord b = a;
  b.record_id = "rec-2";
  b.operation = "update";
  b.timestamp = 1004;
  Bytes encoded = columnar::EncodeRecordBatch({a, b});
  EXPECT_EQ(HexEncode(encoded),
            "0207047265632d066372656174650675706461746504706b672d056f72672d61"
            "0c62617463685f6e756d626572056c6f742d3100010200010202020102030112"
            "03010004000400d00f08000000000001050600060000");
  ExpectBitIdenticalRoundTrip({a, b});
}

// ---------------------------------------------------------------------------
// Block frames
// ---------------------------------------------------------------------------

ledger::Transaction RecordTx(const prov::ProvenanceRecord& rec) {
  return ledger::Transaction::MakeSystem("prov/record", "prov",
                                         rec.Encode(), rec.timestamp,
                                         rec.timestamp % 97);
}

TEST(ColumnarBlockTest, RoundTripWithRawFallback) {
  std::vector<ledger::Transaction> txs;
  for (size_t i = 0; i < 32; ++i) txs.push_back(RecordTx(BaseRecord(i)));
  // A signed, non-record transaction rides in the same block: it must take
  // the raw path (flag 0) and re-validate its signature after decode.
  crypto::PrivateKey key = crypto::PrivateKey::FromSeed("encoding-test");
  txs.push_back(ledger::Transaction::MakeSigned(
      "custody/transfer", "supply-chain", ToBytes("opaque-payload"), key,
      9999, 1));
  // A "prov/record"-typed transaction whose payload is NOT a canonical
  // record encoding must also fall back to raw, byte for byte.
  txs.push_back(ledger::Transaction::MakeSystem("prov/record", "prov",
                                                {0xde, 0xad, 0xbe, 0xef},
                                                10000, 2));
  ledger::Block block =
      ledger::Block::Make(7, crypto::Sha256::Hash(ToBytes("prev")),
                          std::move(txs), 123456, "node-2");

  Bytes frame = columnar::EncodeBlock(block);
  ASSERT_TRUE(columnar::IsColumnarBlock(frame));
  EXPECT_LT(frame.size(), block.Encode().size());
  auto decoded = columnar::DecodeBlock(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The whole block reproduces bit-identically: header hash, Merkle root,
  // and every transaction's canonical bytes.
  EXPECT_EQ(decoded.value().Encode(), block.Encode());
  EXPECT_EQ(decoded.value().header.Hash(), block.header.Hash());
  EXPECT_TRUE(
      decoded.value().transactions[32].VerifySignature().ok());
}

bool Contains(const Bytes& haystack, const Bytes& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

/// A record encoding written field by field, so a test can make it
/// near-canonical: a domain byte, an input count `extra_inputs` past the
/// one input present, any field sequence and a payload hash of any length.
Bytes HandEncodedRecord(
    uint8_t domain, uint32_t extra_inputs,
    const std::vector<std::pair<std::string, std::string>>& fields,
    size_t hash_len) {
  Encoder enc;
  enc.PutString("rec-77");
  enc.PutU8(domain);
  enc.PutString("update");
  enc.PutString("file-1");
  enc.PutString("user-1");
  enc.PutI64(5'000'000);
  enc.PutU32(1 + extra_inputs);
  enc.PutString("in-1");
  enc.PutU32(0);
  enc.PutU32(static_cast<uint32_t>(fields.size()));
  for (const auto& [key, value] : fields) {
    enc.PutString(key);
    enc.PutString(value);
  }
  enc.PutRaw(Bytes(hash_len, 0xab));
  return enc.TakeBuffer();
}

TEST(ColumnarBlockTest, NearCanonicalPayloadsRideRaw) {
  const Bytes canonical =
      HandEncodedRecord(1, 0, {{"a", "1"}, {"b", "2"}}, 32);
  auto decoded_canonical = prov::ProvenanceRecord::Decode(canonical);
  ASSERT_TRUE(decoded_canonical.ok());
  ASSERT_EQ(decoded_canonical.value().Encode(), canonical);

  Bytes trailing = canonical;
  trailing.push_back(0x00);
  const std::map<std::string, Bytes> variants = {
      {"trailing byte", trailing},
      {"equal keys", HandEncodedRecord(1, 0, {{"a", "1"}, {"a", "2"}}, 32)},
      {"descending keys",
       HandEncodedRecord(1, 0, {{"b", "2"}, {"a", "1"}}, 32)},
      {"domain 7", HandEncodedRecord(7, 0, {{"a", "1"}, {"b", "2"}}, 32)},
      {"input count past strings",
       HandEncodedRecord(1, 1, {{"a", "1"}, {"b", "2"}}, 32)},
      {"31-byte hash", HandEncodedRecord(1, 0, {{"a", "1"}, {"b", "2"}}, 31)},
      {"empty payload", Bytes()},
  };
  for (const auto& [name, variant] : variants) {
    SCOPED_TRACE(name);
    ASSERT_FALSE(prov::ProvenanceRecord::Decode(variant).ok());
    std::vector<ledger::Transaction> txs;
    txs.push_back(RecordTx(BaseRecord(0)));
    txs.push_back(ledger::Transaction::MakeSystem("prov/record", "prov",
                                                  variant, 5'000'100, 1));
    txs.push_back(RecordTx(BaseRecord(1)));
    txs.push_back(RecordTx(BaseRecord(2)));
    ledger::Block block = ledger::Block::Make(
        4, crypto::ZeroDigest(), std::move(txs), 5'000'300, "node-1");

    Bytes frame = columnar::EncodeBlock(block);
    auto decoded = columnar::DecodeBlock(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().Encode(), block.Encode());
    EXPECT_EQ(decoded.value().header.Hash(), block.header.Hash());
    // The raw lane stores the whole transaction verbatim; the record
    // columns store no payload verbatim. (The block holds no copy of
    // `canonical`: the trailing-byte variant contains it.)
    EXPECT_TRUE(Contains(frame, block.transactions[1].Encode()));
    for (size_t i = 0; i < block.transactions.size(); ++i) {
      if (i == 1) continue;
      EXPECT_FALSE(Contains(frame, block.transactions[i].payload))
          << "tx " << i;
    }
  }

  // Control: the unedited record takes the record columns.
  ledger::Block control = ledger::Block::Make(
      4, crypto::ZeroDigest(),
      {ledger::Transaction::MakeSystem("prov/record", "prov", canonical,
                                       5'000'100, 1)},
      5'000'300, "node-1");
  Bytes frame = columnar::EncodeBlock(control);
  EXPECT_FALSE(Contains(frame, canonical));
  auto decoded = columnar::DecodeBlock(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().Encode(), control.Encode());
}

TEST(ColumnarBlockTest, GoldenBytes) {
  // Block-frame pin: two record transactions (one with an input, one with
  // an output and a payload hash), a signed foreign transaction and a
  // near-canonical record payload, the last two on the raw lane. If this
  // test fails, the block frame changed and needs a new magic.
  prov::ProvenanceRecord a;
  a.record_id = "rec-1";
  a.domain = prov::Domain::kSupplyChain;
  a.operation = "create";
  a.subject = "pkg-9";
  a.agent = "org-a";
  a.timestamp = 1000;
  a.inputs = {"raw-3"};
  a.fields["batch_number"] = "lot-1";
  prov::ProvenanceRecord b = a;
  b.record_id = "rec-2";
  b.operation = "update";
  b.timestamp = 1004;
  b.inputs.clear();
  b.outputs = {"pkg-9"};
  b.payload_hash = crypto::Sha256::Hash(ToBytes("pkg-9 v2"));
  prov::ProvenanceRecord c;
  c.record_id = "x";
  Bytes near = c.Encode();
  near.push_back(0x00);
  crypto::PrivateKey key = crypto::PrivateKey::FromSeed("golden");
  std::vector<ledger::Transaction> txs;
  txs.push_back(ledger::Transaction::MakeSystem("prov/record", "prov",
                                                a.Encode(), 1000, 1));
  txs.push_back(ledger::Transaction::MakeSigned(
      "custody/transfer", "sc", ToBytes("box"), key, 1002, 2));
  txs.push_back(
      ledger::Transaction::MakeSystem("prov/record", "prov", near, 1003, 3));
  txs.push_back(ledger::Transaction::MakeSystem("prov/record", "prov",
                                                b.Encode(), 1004, 4));
  ledger::Block block =
      ledger::Block::Make(3, crypto::Sha256::Hash(ToBytes("prev")),
                          std::move(txs), 2000, "n-1");

  Bytes frame = columnar::EncodeBlock(block);
  EXPECT_EQ(HexEncode(frame),
            "504c434f4c423031030000000000000084fd9bac333ad79154348296204fa7f8"
            "c537a96e08983e5f73b3f5aca8e8edf7a9596a74601161ff4d20268993459f6d"
            "d85eee4311f068558db2e8723e0cf9add0070000000000000000000000000000"
            "030000006e2d31040a0b70726f762f7265636f72640470726f76047265632d06"
            "6372656174650675706461746504706b672d056f72672d61047261772d0c6261"
            "7463685f6e756d626572056c6f742d310100000110000000637573746f64792f"
            "7472616e7366657202000000736303000000626f78ea03000000000000020000"
            "000000000021000000020a083f525c84939926c17e8030e19695e511eea9ef3c"
            "ac60b063a978759bc0594100000002e3e70bcd0483a03b145a8335cd9d1dff77"
            "096c405daf9f87fcdf574a9ae86f71e660140ca60d4d923287eb9bc0d1f783eb"
            "b5698d17e497050932ff15130a84d10b00000070726f762f7265636f72640400"
            "000070726f764700000001000000780000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000eb0300000000000003000000000000"
            "0000000000000000000001d00f02000000010806000002010202010202020304"
            "05011205010006000600d00f0801070106000001050112000108090009000175"
            "002de2fedd5eccb0bfb83840eca508941f7cdfa011b8a39083b3a43d2c1328");
  auto decoded = columnar::DecodeBlock(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().Encode(), block.Encode());
}

TEST(ColumnarBlockTest, LegacyBlockDecodesThroughSameEntryPoint) {
  ledger::Block block = ledger::Block::Make(
      1, crypto::ZeroDigest(), {RecordTx(BaseRecord(0))}, 1000, "n");
  Bytes legacy = block.Encode();
  ASSERT_FALSE(columnar::IsColumnarBlock(legacy));
  auto decoded = columnar::DecodeBlock(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().Encode(), legacy);
}

TEST(ColumnarBlockTest, TruncatedFrameIsCorruption) {
  std::vector<ledger::Transaction> txs;
  for (size_t i = 0; i < 4; ++i) txs.push_back(RecordTx(BaseRecord(i)));
  ledger::Block block =
      ledger::Block::Make(2, crypto::ZeroDigest(), std::move(txs), 50, "n");
  Bytes frame = columnar::EncodeBlock(block);
  for (size_t len = sizeof(columnar::kBlockMagic); len < frame.size();
       len += 7) {
    Bytes prefix(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(columnar::DecodeBlock(prefix).ok()) << "len=" << len;
  }
  Bytes padded = frame;
  padded.push_back(0x42);
  EXPECT_FALSE(columnar::DecodeBlock(padded).ok());
}

// ---------------------------------------------------------------------------
// ChainLog: mixed-format logs replay through one entry point
// ---------------------------------------------------------------------------

class EncodingDirTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testutil::MakeTempDir(); }
  void TearDown() override { testutil::RemoveTree(dir_); }
  std::string dir_;
};

using ChainLogEncodingTest = EncodingDirTest;

TEST_F(ChainLogEncodingTest, MixedLegacyAndColumnarLogReplays) {
  const std::string path = dir_ + "/chain.log";
  crypto::Digest head;
  {
    // Epoch 1: a pre-columnar deployment framed raw Block::Encode() bodies.
    ledger::Blockchain chain;
    Bytes legacy;
    for (uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          chain.Append({RecordTx(BaseRecord(i))}, 1000 + i, "node-1").ok());
      const Bytes frame = BuildFrame(chain.PeekBlock(i)->Encode());
      legacy.insert(legacy.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(WriteFileAtomic(path, legacy).ok());
  }
  {
    // Epoch 2: the upgraded deployment replays the legacy blocks and
    // appends columnar ones to the same file.
    ledger::Blockchain chain;
    auto log = ledger::ChainLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AttachTo(&chain).ok());
    ASSERT_EQ(chain.height(), 3u);
    for (uint64_t i = 4; i <= 6; ++i) {
      ASSERT_TRUE(
          chain.Append({RecordTx(BaseRecord(i))}, 1000 + i, "node-1").ok());
    }
    head = chain.head_hash();
  }
  // Epoch 3: a reader replays the mixed log in full.
  ledger::Blockchain chain;
  auto log = ledger::ChainLog::Open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AttachTo(&chain).ok());
  EXPECT_EQ(chain.height(), 6u);
  EXPECT_EQ(chain.head_hash(), head);
  EXPECT_TRUE(chain.VerifyIntegrity().ok());
}

TEST_F(ChainLogEncodingTest, ColumnarLogIsSmallerThanRaw) {
  ledger::Blockchain chain;
  auto log = ledger::ChainLog::Open(dir_ + "/chain.log");
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AttachTo(&chain).ok());
  // A raw-body log holds one frame around each block's Block::Encode().
  uint64_t raw_bytes = 0;
  for (uint64_t b = 1; b <= 4; ++b) {
    std::vector<ledger::Transaction> txs;
    for (size_t i = 0; i < 128; ++i) {
      txs.push_back(RecordTx(BaseRecord(b * 1000 + i)));
    }
    ASSERT_TRUE(chain.Append(std::move(txs), 1000 + b, "node-1").ok());
    raw_bytes += kFrameHeaderBytes + chain.PeekBlock(b)->Encode().size();
  }
  EXPECT_LT((*log)->size_bytes() * 3, raw_bytes);
}

// ---------------------------------------------------------------------------
// Replication wire
// ---------------------------------------------------------------------------

prov::ProvenanceRecord ClusterRecord(size_t i) {
  return prov::MakeSupplyChainRecord(
      "wire-" + std::to_string(i), "sensor-reading",
      "pkg-" + std::to_string(i % 20), "sensor-" + std::to_string(i % 4),
      static_cast<Timestamp>(10'000 + i * 50), "lot-9", "2027-06",
      "factory>dc", "vaccine", "mfg-1", "qr://w/" + std::to_string(i));
}

TEST(ReplicationEncodingTest, ColumnarWireConvergesAndIsSmaller) {
  constexpr size_t kRecords = 512;
  replication::ClusterOptions options;
  options.num_nodes = 4;
  options.seed = 7;
  options.consensus = "raft";
  auto cluster = replication::Cluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*cluster)->Submit(ClusterRecord(i)).ok());
    if ((*cluster)->pending_count() == 128 || i + 1 == kRecords) {
      ASSERT_TRUE((*cluster)->CommitPending().ok());
    }
  }
  ASSERT_TRUE((*cluster)->Converged());
  // Followers rebuilt every record from the wire form; the audit re-checks
  // each one against its block's Merkle root.
  auto audit = (*cluster)->node(3)->store()->AuditAll();
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_EQ(audit.value(), kRecords);

  // A raw-body wire ships each main-chain block's Block::Encode() bytes
  // once to every follower.
  const ledger::Blockchain& chain = *(*cluster)->node(0)->chain();
  uint64_t raw_block_bytes = 0;
  for (uint64_t h = 1; h <= chain.height(); ++h) {
    raw_block_bytes += chain.PeekBlock(h)->Encode().size();
  }
  const uint64_t raw_bytes = (options.num_nodes - 1) * raw_block_bytes;
  const uint64_t columnar_bytes = (*cluster)->net()->metrics().bytes_sent;
  EXPECT_LT(columnar_bytes * 3, raw_bytes)
      << "columnar wire " << columnar_bytes << " B vs raw " << raw_bytes;
}

}  // namespace
}  // namespace provledger
