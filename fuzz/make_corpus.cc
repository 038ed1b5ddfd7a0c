// Seed-corpus generator for fuzz/corpus/. Writes two kinds of files per
// harness: well-formed canonical encodings (so mutation starts from deep
// inside the format, not from noise) and the regression *crashers* — byte
// patterns that triggered real defects fixed in this tree (unbounded
// count-prefix allocations, implausible LZ raw sizes, non-canonical field
// maps, trailing wire garbage). tests/fuzz_regression_test.cc replays every
// file here byte-exactly at each ctest run.
//
// Usage: fuzz_make_corpus <corpus_root>   (outputs are checked in)

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "crypto/sha256.h"
#include "common/compress.h"
#include "common/fileio.h"
#include "common/framed_log.h"
#include "common/rng.h"
#include "audit/lineage_proof.h"
#include "ledger/chain.h"
#include "ledger/chain_log.h"
#include "prov/columnar.h"
#include "prov/record.h"
#include "prov/store.h"
#include "storage/file_kv_store.h"

namespace provledger {
namespace {

std::string g_root;

void WriteSeed(const std::string& harness, const std::string& name,
               const Bytes& bytes) {
  const std::string dir = g_root + "/" + harness;
  Status st = EnsureDir(dir);
  if (st.ok()) st = WriteFileAtomic(dir + "/" + name, bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "make_corpus: %s/%s: %s\n", harness.c_str(),
                 name.c_str(), st.ToString().c_str());
    std::exit(1);
  }
}

prov::ProvenanceRecord SampleRecord(size_t i) {
  prov::ProvenanceRecord rec;
  rec.record_id = "rec-" + std::to_string(1000 + i);
  rec.domain = static_cast<prov::Domain>(i % 7);
  rec.operation = i % 2 == 0 ? "create" : "update";
  rec.subject = "artifact-" + std::to_string(i % 5);
  rec.agent = "agent-" + std::to_string(i % 3);
  rec.timestamp = static_cast<Timestamp>(5'000'000 + i * 131);
  rec.inputs = {"in-" + std::to_string(i)};
  if (i % 2 == 0) rec.outputs = {"out-" + std::to_string(i), "shared"};
  rec.fields["sensor"] = "s-" + std::to_string(i % 4);
  rec.fields["value"] = std::to_string(20 + i);
  if (i % 3 == 0) {
    rec.payload_hash =
        crypto::Sha256::Hash(ToBytes("artifact-" + std::to_string(i)));
  }
  return rec;
}

std::vector<prov::ProvenanceRecord> SampleBatch(size_t n) {
  std::vector<prov::ProvenanceRecord> records;
  for (size_t i = 0; i < n; ++i) records.push_back(SampleRecord(i));
  return records;
}

/// A block that actually attaches to a default-options Blockchain (same
/// genesis), so the replication harness seed exercises the accept path,
/// not just rejection.
ledger::Block SampleBlock(ledger::Blockchain* chain, uint64_t nonce) {
  std::vector<ledger::Transaction> txs;
  for (size_t i = 0; i < 4; ++i) {
    txs.push_back(ledger::Transaction::MakeSystem(
        "prov/record", "prov", SampleRecord(i + nonce * 4).Encode(),
        static_cast<Timestamp>(1'000'000 + nonce * 100 + i), nonce * 4 + i));
  }
  // One foreign transaction so the columnar raw-lane (flag 0) is seeded too.
  txs.push_back(ledger::Transaction::MakeSystem(
      "app/other", "misc", ToBytes("not a record"),
      static_cast<Timestamp>(1'000'000 + nonce * 100 + 9), nonce * 4 + 9));
  return ledger::Block::Make(chain->height() + 1, chain->head_hash(),
                             std::move(txs),
                             static_cast<Timestamp>(2'000'000 + nonce),
                             "seed-proposer");
}

void EmitColumnarBatch() {
  WriteSeed("columnar_batch", "batch.bin",
            prov::columnar::EncodeRecordBatch(SampleBatch(6)));
  WriteSeed("columnar_batch", "empty.bin",
            prov::columnar::EncodeRecordBatch({}));
  // Overlong uvarint (11 continuation bytes): must be Corruption, pinned
  // here so the rejection path stays covered.
  WriteSeed("columnar_batch", "crash-overlong-varint.bin", Bytes(11, 0x80));
}

void EmitColumnarBlock(const ledger::Block& block) {
  WriteSeed("columnar_block", "columnar.bin",
            prov::columnar::EncodeBlock(block));
  WriteSeed("columnar_block", "legacy.bin", block.Encode());
  // Legacy body declaring 2^32-1 transactions after a valid header: used
  // to drive a multi-gigabyte vector reserve before the count bound.
  Encoder enc;
  block.header.EncodeTo(&enc);
  enc.PutU32(0xFFFFFFFFu);
  WriteSeed("columnar_block", "crash-txcount.bin", enc.TakeBuffer());
}

void EmitRecord() {
  WriteSeed("record", "generic.bin", SampleRecord(0).Encode());
  WriteSeed("record", "supplychain.bin",
            prov::MakeSupplyChainRecord("rec-7", "transfer", "prod-1",
                                        "acme", 42, "batch-9", "2026-01",
                                        "a>b>c", "widget", "mfg-3", "qr-1")
                .Encode());
  // Truncated record declaring 2^32-1 inputs: used to drive an unbounded
  // resize before the count bound.
  {
    Encoder enc;
    enc.PutString("rec-x");
    enc.PutU8(0);
    enc.PutString("op");
    enc.PutString("subj");
    enc.PutString("agent");
    enc.PutI64(1);
    enc.PutU32(0xFFFFFFFFu);
    WriteSeed("record", "crash-inputs-count.bin", enc.TakeBuffer());
  }
  // Duplicate field key: two byte strings decoding to one record would
  // break Hash() uniqueness; the decoder must reject non-canonical maps.
  {
    Encoder enc;
    enc.PutString("rec-y");
    enc.PutU8(0);
    enc.PutString("op");
    enc.PutString("subj");
    enc.PutString("agent");
    enc.PutI64(1);
    enc.PutU32(0);
    enc.PutU32(0);
    enc.PutU32(2);
    enc.PutString("k");
    enc.PutString("v1");
    enc.PutString("k");
    enc.PutString("v2");
    enc.PutRaw(crypto::DigestToBytes(crypto::ZeroDigest()));
    WriteSeed("record", "crash-dup-field.bin", enc.TakeBuffer());
  }
}

void EmitCompress() {
  Rng rng(11);
  Bytes sample;
  for (int i = 0; i < 64; ++i) {
    Bytes chunk = ToBytes("sensor-frame-" + std::to_string(i % 7) + "|");
    sample.insert(sample.end(), chunk.begin(), chunk.end());
  }
  auto with_header = [](const Bytes& stream, uint32_t raw_size) {
    Encoder enc;
    enc.PutU32(raw_size);
    enc.PutRaw(stream);
    return enc.TakeBuffer();
  };
  WriteSeed("compress", "roundtrip.bin",
            with_header(LzCompress(sample),
                        static_cast<uint32_t>(sample.size())));
  Bytes dense = rng.NextBytes(256);
  WriteSeed("compress", "incompressible.bin",
            with_header(LzCompress(dense), static_cast<uint32_t>(dense.size())));
  // Declared raw size of ~4 GiB over a 4-byte stream: used to reserve the
  // whole declared size before the expansion bound rejected it.
  WriteSeed("compress", "crash-rawsize.bin",
            with_header(Bytes{0x03, 'a', 'b', 'c'}, 0xFFFFFFFFu));
}

void EmitFramedLog() {
  Bytes three;
  for (int i = 0; i < 3; ++i) {
    Bytes frame = BuildFrame(ToBytes("payload-" + std::to_string(i)));
    three.insert(three.end(), frame.begin(), frame.end());
  }
  WriteSeed("framed_log", "three_frames.bin", three);
  Bytes torn = three;
  Bytes tail = BuildFrame(ToBytes("torn-away"));
  torn.insert(torn.end(), tail.begin(), tail.end() - 4);
  WriteSeed("framed_log", "torn_tail.bin", torn);
  Bytes corrupt = three;
  corrupt[kFrameHeaderBytes] ^= 0x01;  // damage first payload byte
  WriteSeed("framed_log", "corrupt_crc.bin", corrupt);
}

void EmitKvSegment() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl =
      std::string(base != nullptr ? base : "/tmp") + "/provledger_seed_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  if (dir == nullptr) {
    std::fprintf(stderr, "make_corpus: mkdtemp failed\n");
    std::exit(1);
  }
  {
    storage::FileKvStoreOptions options;
    options.compress = LzCompress;
    options.decompress = LzDecompress;
    auto store = storage::FileKvStore::Open(dir, options);
    if (!store.ok()) std::exit(1);
    storage::WriteBatch batch;
    Bytes repetitive;
    for (int i = 0; i < 40; ++i) {
      Bytes chunk = ToBytes("blob-chunk-" + std::to_string(i % 3));
      repetitive.insert(repetitive.end(), chunk.begin(), chunk.end());
    }
    batch.Put("block/1", repetitive);       // compresses -> compressed frame
    batch.Put("meta/head", ToBytes("1"));
    if (!store.value()->Write(batch).ok()) std::exit(1);
    Rng rng(5);
    if (!store.value()->Put("dense", rng.NextBytes(48)).ok()) std::exit(1);
    if (!store.value()->Delete("meta/head").ok()) std::exit(1);
  }
  auto segment = ReadFileToBytes(std::string(dir) + "/000001.log");
  if (!segment.ok()) std::exit(1);
  WriteSeed("kv_segment", "segment.bin", segment.value());
  ::unlink((std::string(dir) + "/000001.log").c_str());
  ::rmdir(dir);
}

void EmitChainLogAndReplication(const std::vector<ledger::Block>& blocks) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl =
      std::string(base != nullptr ? base : "/tmp") + "/provledger_seed_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  if (dir == nullptr) std::exit(1);
  const std::string path = std::string(dir) + "/chain.log";
  {
    auto columnar_log = ledger::ChainLog::Open(path);
    if (!columnar_log.ok()) std::exit(1);
    ledger::ChainLogOptions legacy_options;
    legacy_options.columnar_bodies = false;
    for (size_t i = 0; i < blocks.size(); ++i) {
      // Mixed-format log: both body forms must replay from one file.
      if (i % 2 == 0) {
        if (!columnar_log.value()->Append(blocks[i]).ok()) std::exit(1);
      } else {
        auto legacy_log = ledger::ChainLog::Open(path, legacy_options);
        if (!legacy_log.ok() || !legacy_log.value()->Append(blocks[i]).ok()) {
          std::exit(1);
        }
      }
    }
  }
  auto log_bytes = ReadFileToBytes(path);
  if (!log_bytes.ok()) std::exit(1);
  WriteSeed("chain_log", "mixed_log.bin", log_bytes.value());
  ::unlink(path.c_str());
  ::rmdir(dir);

  // Replication wire seeds: byte 0 selects the message type in the harness.
  auto typed = [](uint8_t type, const Bytes& payload) {
    Bytes out(1, type);
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
  };
  WriteSeed("replication", "block.bin",
            typed(0, prov::columnar::EncodeBlock(blocks[0])));
  {
    Encoder status;
    status.PutU8(1);  // probe
    status.PutU64(blocks.back().header.height);
    status.PutRaw(crypto::DigestToBytes(blocks.back().header.Hash()));
    WriteSeed("replication", "status.bin", typed(1, status.TakeBuffer()));
  }
  {
    Encoder pull;
    pull.PutU64(1);
    WriteSeed("replication", "pull.bin", typed(2, pull.TakeBuffer()));
  }
  {
    Encoder msg;  // the repl/blocks shape HandlePull produces
    msg.PutU64(blocks.back().header.height);
    msg.PutU32(static_cast<uint32_t>(blocks.size()));
    for (const auto& block : blocks) {
      msg.PutBytes(prov::columnar::EncodeBlock(block));
    }
    WriteSeed("replication", "blocks.bin", typed(3, msg.TakeBuffer()));
  }
  {
    Encoder msg;  // trailing wire garbage must be rejected, not ignored
    msg.PutU64(1);
    msg.PutU32(0);
    msg.PutRaw(ToBytes("trailing-garbage"));
    WriteSeed("replication", "crash-blocks-trailing.bin",
              typed(3, msg.TakeBuffer()));
  }
}

void EmitLineageProof() {
  ledger::Blockchain chain;
  SimClock clock(3'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  auto rec = [](const std::string& id, std::vector<std::string> inputs,
                std::vector<std::string> outputs) {
    prov::ProvenanceRecord r;
    r.record_id = id;
    r.operation = "create";
    r.subject = "artifact";
    r.agent = "agent-a";
    r.timestamp = 3'000'000;
    r.inputs = std::move(inputs);
    r.outputs = std::move(outputs);
    return r;
  };
  if (!store.Anchor(rec("l0", {"raw"}, {"e0"})).ok()) std::exit(1);
  if (!store.Anchor(rec("l1", {"e0"}, {"e1"})).ok()) std::exit(1);
  // Batch the leaf with fillers so the seed carries multi-step Merkle
  // proofs (a 4-leaf tree), not just single-sibling paths.
  if (!store
           .AnchorBatch({rec("l2", {"e1"}, {"e2"}), rec("f0", {}, {}),
                         rec("f1", {}, {}), rec("f2", {}, {})})
           .ok()) {
    std::exit(1);
  }
  auto deep = audit::BuildLineageProof(store, "l2");
  auto single = audit::BuildLineageProof(store, "l0");
  if (!deep.ok() || !single.ok()) {
    std::fprintf(stderr, "make_corpus: lineage proof build failed\n");
    std::exit(1);
  }
  WriteSeed("lineage_proof", "chain_of_three.bin", deep.value().Encode());
  WriteSeed("lineage_proof", "single_node.bin", single.value().Encode());
  // Valid magic + target followed by a 2^32-1 header count: the classic
  // trusted-count-prefix shape; must be Corruption, not a giant resize.
  Encoder enc;
  enc.PutRaw(ToBytes("PLLPRF01"));
  enc.PutString("l2");
  enc.PutU32(0xFFFFFFFFu);
  WriteSeed("lineage_proof", "crash-header-count.bin", enc.TakeBuffer());
}

void EmitStoreSnapshot() {
  // A graph section with every column populated: derivations, repeated
  // subjects and agents, out-of-order timestamps and one invalidation
  // cascade.
  prov::ProvenanceGraph graph;
  for (size_t i = 0; i < 24; ++i) {
    prov::ProvenanceRecord rec;
    rec.record_id = "rec-" + std::to_string(1000 + i);
    rec.operation = i % 2 == 0 ? "create" : "update";
    rec.subject = "artifact-" + std::to_string(i % 5);
    rec.agent = "agent-" + std::to_string(i % 3);
    rec.timestamp = static_cast<Timestamp>(5'000'000 + (i * 7) % 11);
    if (i > 0) rec.inputs.push_back("out-" + std::to_string(i - 1));
    if (i % 3 != 0) rec.outputs.push_back("out-" + std::to_string(i));
    rec.fields["sensor"] = "s-" + std::to_string(i % 4);
    if (!graph.AddRecord(rec).ok()) std::exit(1);
  }
  if (!graph.Invalidate("rec-1002", 6'000'000, "drift").ok()) std::exit(1);
  Encoder image;
  graph.Image().EncodeTo(&image);
  WriteSeed("store_snapshot", "graph.bin", image.TakeBuffer());
  Encoder empty;
  prov::GraphImage().EncodeTo(&empty);
  WriteSeed("store_snapshot", "empty.bin", empty.TakeBuffer());
  {
    // A subject id past the entity table: validation must reject it
    // before the postings rebuild indexes a vector with it.
    prov::GraphImage bad = graph.Image();
    auto group = std::make_shared<prov::RowGroup>(*bad.groups[0]);
    group->subject[0] = 1u << 20;
    bad.groups[0] = group;
    Encoder enc;
    bad.EncodeTo(&enc);
    WriteSeed("store_snapshot", "crash-subject-range.bin", enc.TakeBuffer());
  }
  {
    // Three groups whose time ranges overlap: each group's first rows are
    // back-dated into its predecessor's range, with equal timestamps on
    // both sides of the boundary. The last group repeats a name the first
    // one interned (a checksum-valid image no builder writes), and one of
    // its rows consumes the repeat's id; the name resolves to its lowest
    // id.
    prov::ProvenanceGraph groups;
    for (size_t i = 0; i < 2 * prov::kRowGroupRows + 64; ++i) {
      prov::ProvenanceRecord rec;
      rec.record_id = "r" + std::to_string(i);
      rec.operation = "op";
      rec.subject = "s" + std::to_string(i % 40);
      rec.agent = "a" + std::to_string(i % 3);
      rec.timestamp = static_cast<Timestamp>(5'000'000 + i);
      if (i >= prov::kRowGroupRows && i % prov::kRowGroupRows < 32) {
        rec.timestamp -= 64;
      }
      rec.inputs.push_back("e" + std::to_string((i + 499) % 500));
      rec.outputs.push_back("e" + std::to_string(i % 500));
      if (!groups.AddRecord(rec).ok()) std::exit(1);
    }
    // Only each group's first 64 rows (the overlapping ones) keep whole
    // record encodings; the rest keep just their record ids, which decode
    // to empty records, so the seed stays near 1.5 MB.
    prov::GraphImage image = groups.Image();
    for (auto& group : image.groups) {
      auto slim = std::make_shared<prov::RowGroup>(*group);
      slim->records = prov::EntryColumn();
      for (size_t row = 0; row < group->rows(); ++row) {
        if (row >= 64) {
          slim->records.AppendName(group->records.name(row));
          continue;
        }
        const auto& bytes = group->records.bytes;
        slim->records.offsets.push_back(
            static_cast<uint32_t>(slim->records.bytes.size()));
        slim->records.bytes.insert(
            slim->records.bytes.end(),
            bytes.begin() + static_cast<ptrdiff_t>(group->records.offsets[row]),
            bytes.begin() + static_cast<ptrdiff_t>(group->records.end(row)));
      }
      group = slim;
    }
    auto last = std::make_shared<prov::RowGroup>(*image.groups.back());
    const uint32_t repeat = last->entity_end();
    last->entity_names.AppendName(image.groups[0]->entity_names.name(0));
    last->inputs[0] = repeat;
    image.groups.back() = last;
    Encoder enc;
    image.EncodeTo(&enc);
    WriteSeed("store_snapshot", "overlapping-groups.bin", enc.TakeBuffer());
  }
}

}  // namespace
}  // namespace provledger

int main(int argc, char** argv) {
  using namespace provledger;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus_root>\n", argv[0]);
    return 2;
  }
  g_root = argv[1];
  if (!EnsureDir(g_root).ok()) {
    std::fprintf(stderr, "make_corpus: cannot create %s\n", g_root.c_str());
    return 1;
  }

  // Three chained blocks on a default-options chain: every block-shaped
  // seed (columnar_block, chain_log, replication) derives from these, so
  // the replication harness seeds attach to its node's identical genesis.
  ledger::Blockchain chain;
  std::vector<ledger::Block> blocks;
  for (uint64_t nonce = 0; nonce < 3; ++nonce) {
    ledger::Block block = SampleBlock(&chain, nonce);
    if (!chain.SubmitBlock(block).ok()) {
      std::fprintf(stderr, "make_corpus: seed block rejected\n");
      return 1;
    }
    blocks.push_back(std::move(block));
  }

  EmitColumnarBatch();
  EmitColumnarBlock(blocks[0]);
  EmitRecord();
  EmitCompress();
  EmitFramedLog();
  EmitKvSegment();
  EmitChainLogAndReplication(blocks);
  EmitLineageProof();
  EmitStoreSnapshot();
  std::printf("make_corpus: seeds written under %s\n", g_root.c_str());
  return 0;
}
