// Harness: ProvenanceStore::LoadSnapshot over arbitrary graph bytes — the
// row-group decoder and its validation, then the first-touch index
// rebuilds that index vectors by the ids stored in the columns. Trust
// boundary: the snapshot file a restart loads. Each input is the graph
// section of a snapshot body; the harness wraps it in a valid header
// (magic, chain binding, checksum) and a txid column sized to the image,
// so mutations reach the decoder instead of dying at the checksum. Strict
// canonical: a decodable image re-encodes bit-identically. Not vacuous:
// the load must succeed exactly when the input is a whole image, so a
// header this harness writes in a stale format fails every input.

#include "harnesses.h"

#include <string>

#include "common/clock.h"
#include "common/hash64.h"
#include "ledger/chain.h"
#include "prov/store.h"

namespace provledger {
namespace fuzz {

void FuzzStoreSnapshot(const uint8_t* data, size_t size) {
  const std::string dir = ScratchDir();
  if (dir.empty()) return;
  const std::string path = dir + "/store.snap";

  // The txid column must hold one digest per graph row for the load to
  // succeed, so decode once up front to learn the count.
  Bytes input(data, data + size);
  prov::GraphImage image;
  Decoder peek(input);
  const bool decodes = prov::GraphImage::DecodeFrom(&peek, &image).ok();
  if (decodes) {
    Encoder again;
    image.EncodeTo(&again);
    PROVLEDGER_FUZZ_REQUIRE(
        again.buffer() == Bytes(input.begin(), input.begin() + peek.position()));
  }
  // An image with no trailing bytes: exactly the inputs that must load.
  const bool whole = decodes && peek.AtEnd();
  const uint32_t rows =
      decodes ? static_cast<uint32_t>(image.record_count()) : 0;

  ledger::Blockchain chain;
  auto genesis = chain.BlockHashAt(0);
  PROVLEDGER_FUZZ_REQUIRE(genesis.ok());
  Encoder body;
  body.PutString("prov");  // default ProvenanceStoreOptions::channel
  body.PutU64(0);
  body.PutRaw(crypto::DigestToBytes(genesis.value()));
  body.PutU64(0);  // nonce
  body.PutU64(rows);  // anchored count
  body.PutRaw(input);
  auto txid_of = [](uint32_t row) {
    return crypto::Sha256::Hash(ToBytes(std::to_string(row)));
  };
  body.PutU32(rows);
  for (uint32_t row = 0; row < rows; ++row) {
    body.PutRaw(crypto::DigestToBytes(txid_of(row)));
  }
  Encoder file;
  file.PutRaw(ToBytes("PLSNAP04"));
  file.PutU32(static_cast<uint32_t>(body.size()));
  file.PutU64(Hash64(body.buffer()));
  file.PutRaw(body.buffer());
  PROVLEDGER_FUZZ_REQUIRE(
      WriteScratchFile(path, file.buffer().data(), file.size()));

  SimClock clock(1'000'000);
  prov::ProvenanceStore store(&chain, &clock);
  const bool loaded = store.LoadSnapshot(path).ok();
  PROVLEDGER_FUZZ_REQUIRE(loaded == whole);
  if (!loaded) return;

  // One query per index kind, each forcing its first-touch rebuild. No
  // answer can exceed what the image holds.
  const prov::ProvenanceGraph& graph = store.graph();
  const size_t records = graph.record_count();
  const size_t entities = graph.entity_count();
  auto bounded = [records](const prov::QueryResult& result) {
    return result.count <= records;
  };
  auto first = store.Execute(prov::Query().Limit(1));  // full scan
  if (first.records.empty()) return;
  const prov::ProvenanceRecord rec = first.records[0];
  // The column answers for whichever row the graph resolves the id to (a
  // row whose bytes fail to decode comes back as an empty record).
  const uint32_t row = graph.RecordRow(rec.record_id);
  auto txid = store.RecordTxId(rec.record_id);
  PROVLEDGER_FUZZ_REQUIRE(row == prov::InternTable::kNone
                              ? txid.status().IsNotFound()
                              : txid.ok() && txid.value() == txid_of(row));
  PROVLEDGER_FUZZ_REQUIRE(
      bounded(store.Execute(prov::Query().WithSubject(rec.subject))));
  PROVLEDGER_FUZZ_REQUIRE(bounded(
      store.Execute(prov::Query().WithAgent(rec.agent).Descending())));
  PROVLEDGER_FUZZ_REQUIRE(bounded(
      store.Execute(prov::Query().Between(rec.timestamp, rec.timestamp))));
  PROVLEDGER_FUZZ_REQUIRE(
      bounded(store.Execute(prov::Query().OnlyInvalidated().CountOnly())));
  for (const auto& in : rec.inputs) {
    PROVLEDGER_FUZZ_REQUIRE(bounded(store.Execute(prov::Query().WithInput(in))));
  }
  for (const auto& out : rec.outputs) {
    PROVLEDGER_FUZZ_REQUIRE(
        bounded(store.Execute(prov::Query().WithOutput(out))));
    PROVLEDGER_FUZZ_REQUIRE(store.Lineage(out).size() < entities);
    PROVLEDGER_FUZZ_REQUIRE(graph.Descendants(out).size() < entities);
  }
  PROVLEDGER_FUZZ_REQUIRE(graph.ReexecutionSet(rec.record_id).size() < records);
  if (graph.IsInvalidated(rec.record_id)) {
    PROVLEDGER_FUZZ_REQUIRE(graph.GetInvalidation(rec.record_id).ok());
  }
}

}  // namespace fuzz
}  // namespace provledger

PROVLEDGER_FUZZ_SHIM(FuzzStoreSnapshot)
