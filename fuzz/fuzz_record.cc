// Harness: ProvenanceRecord::Decode — the canonical per-record form whose
// bytes are hashed into transaction ids and Merkle leaves. Trust boundary:
// record payloads ride inside transactions from peers and from disk.
// The decoder is strict-canonical: decodable bytes must re-encode to
// themselves (otherwise two distinct byte strings would share a Hash()).
//
// The same bytes then ride as the payload of a one-transaction block
// through the columnar block codec, whose encoder parses payloads in place
// instead of calling Decode: the block must round-trip bit-identically
// whichever lane the parse picks, so the two parsers cannot drift apart.

#include "harnesses.h"
#include "ledger/block.h"
#include "prov/columnar.h"
#include "prov/record.h"

namespace provledger {
namespace fuzz {

void FuzzRecord(const uint8_t* data, size_t size) {
  Bytes input(data, data + size);
  ledger::Block block = ledger::Block::Make(
      1, crypto::ZeroDigest(),
      {ledger::Transaction::MakeSystem("prov/record", "prov", input, 1, 1)},
      1, "fuzz");
  auto round_trip =
      prov::columnar::DecodeBlock(prov::columnar::EncodeBlock(block));
  PROVLEDGER_FUZZ_REQUIRE(round_trip.ok());
  PROVLEDGER_FUZZ_REQUIRE(round_trip.value().Encode() == block.Encode());

  auto decoded = prov::ProvenanceRecord::Decode(input);
  if (!decoded.ok()) return;
  PROVLEDGER_FUZZ_REQUIRE(decoded.value().Encode() == input);
  // Validate() must be total on decoded records (no crash on weird
  // contents), whatever it decides.
  (void)decoded.value().Validate();
}

}  // namespace fuzz
}  // namespace provledger

PROVLEDGER_FUZZ_SHIM(FuzzRecord)
