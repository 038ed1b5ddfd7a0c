// Harness: ProvenanceStore::LoadSnapshot over arbitrary graph bytes — the
// row-group decoder and its validation, then the row-group index builds
// that index vectors by the ids stored in the columns. Trust boundary: the
// snapshot file a restart loads. Each input is the graph section of a
// snapshot body; the harness wraps it in a valid header (magic, chain
// binding, checksum) and a txid column sized to the image, so mutations
// reach the decoder instead of dying at the checksum. Strict canonical: a
// decodable image re-encodes bit-identically. Not vacuous: the load must
// succeed exactly when the input is a whole image, so a header this harness
// writes in a stale format fails every input. A loaded image is then
// published and read back through a SnapshotReader (whose last group is the
// epoch's fresh copy, so an index carried across the copy shows as a
// disagreement), and extended by one record in memory that reuses indexed
// keys.

#include "harnesses.h"

#include <string>
#include <vector>

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

  // One query per index kind, each building the group indexes it reads.
  // No answer can exceed what the image holds.
  const prov::ProvenanceGraph& graph = store.graph();
  const size_t records = graph.record_count();
  const size_t entities = graph.entity_count();
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
  std::vector<prov::Query> queries = {
      prov::Query().Limit(1),
      prov::Query().WithSubject(rec.subject),
      prov::Query().WithAgent(rec.agent).Descending(),
      prov::Query().Between(rec.timestamp, rec.timestamp),
      prov::Query().OnlyInvalidated().CountOnly()};
  for (const auto& in : rec.inputs) {
    queries.push_back(prov::Query().WithInput(in));
  }
  for (const auto& out : rec.outputs) {
    queries.push_back(prov::Query().WithOutput(out));
  }
  for (const prov::Query& query : queries) {
    PROVLEDGER_FUZZ_REQUIRE(store.Execute(query).count <= records);
  }
  for (const auto& out : rec.outputs) {
    PROVLEDGER_FUZZ_REQUIRE(store.Lineage(out).size() < entities);
    PROVLEDGER_FUZZ_REQUIRE(graph.Descendants(out).size() < entities);
  }
  PROVLEDGER_FUZZ_REQUIRE(graph.ReexecutionSet(rec.record_id).size() < records);
  if (graph.IsInvalidated(rec.record_id)) {
    PROVLEDGER_FUZZ_REQUIRE(graph.GetInvalidation(rec.record_id).ok());
  }

  // (a) A published epoch answers every query exactly like the store.
  PROVLEDGER_FUZZ_REQUIRE(store.PublishSnapshot().ok());
  auto snapshot = store.AcquireSnapshot();
  auto reader = snapshot->OpenReader();
  PROVLEDGER_FUZZ_REQUIRE(reader.ok());
  auto ids = [](const prov::QueryResult& result) {
    std::vector<std::string> out;
    for (const auto& r : result.records) out.push_back(r.record_id);
    return out;
  };
  const prov::ProvenanceGraph& view = reader->graph();
  for (const prov::Query& query : queries) {
    const prov::QueryResult want = store.Execute(query);
    const prov::QueryResult got = reader->Execute(query);
    PROVLEDGER_FUZZ_REQUIRE(got.count == want.count);
    PROVLEDGER_FUZZ_REQUIRE(ids(got) == ids(want));
  }
  for (const auto& out : rec.outputs) {
    PROVLEDGER_FUZZ_REQUIRE(view.Lineage(out) == graph.Lineage(out));
    PROVLEDGER_FUZZ_REQUIRE(view.Descendants(out) == graph.Descendants(out));
  }
  PROVLEDGER_FUZZ_REQUIRE(view.ReexecutionSet(rec.record_id) ==
                          graph.ReexecutionSet(rec.record_id));
  PROVLEDGER_FUZZ_REQUIRE(view.record_count() == records &&
                          view.entity_count() == entities &&
                          view.subject_count() == graph.subject_count() &&
                          view.edge_count() == graph.edge_count());

  // (b) One record added in memory on top of the base rows, reusing the
  // first record's subject, agent and input: every index finds it, and a
  // subject the base already holds is not counted again.
  prov::ProvenanceRecord extra;
  extra.record_id = "fuzz-extra-" + rec.record_id;
  extra.operation = "derive";
  extra.subject = rec.subject;
  extra.agent = rec.agent;
  extra.timestamp = rec.timestamp;
  if (!rec.inputs.empty()) extra.inputs.push_back(rec.inputs[0]);
  if (!extra.Validate().ok() || graph.HasRecord(extra.record_id)) return;
  const bool base_subject = graph.SubjectRecordCount(extra.subject) > 0;
  const size_t subjects = graph.subject_count();
  PROVLEDGER_FUZZ_REQUIRE(store.mutable_graph()->AddRecord(extra).ok());
  PROVLEDGER_FUZZ_REQUIRE(graph.subject_count() ==
                          subjects + (base_subject ? 0 : 1));
  auto finds = [&](const prov::Query& query) {
    for (const auto& r : store.Execute(query).records) {
      if (r.record_id == extra.record_id) return true;
    }
    return false;
  };
  PROVLEDGER_FUZZ_REQUIRE(finds(prov::Query().WithSubject(extra.subject)));
  PROVLEDGER_FUZZ_REQUIRE(finds(prov::Query().WithAgent(extra.agent)));
  PROVLEDGER_FUZZ_REQUIRE(
      finds(prov::Query().Between(extra.timestamp, extra.timestamp)));
  if (!extra.inputs.empty()) {
    PROVLEDGER_FUZZ_REQUIRE(finds(prov::Query().WithInput(extra.inputs[0])));
  }
}

}  // namespace fuzz
}  // namespace provledger

PROVLEDGER_FUZZ_SHIM(FuzzStoreSnapshot)
