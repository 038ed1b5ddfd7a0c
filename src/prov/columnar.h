// Columnar batch codec for provenance records — the compact form of the
// record hot path. Records in a batch are extremely self-similar (shared
// agents/operations/field schemas, near-monotonic timestamps, record ids
// differing only in a numeric suffix): laying fields out column-major and
// encoding each column with a dictionary, prefix+delta ids, and
// zigzag-varint deltas shrinks the tiny high-frequency sensor records of
// IoT-scale ingest by roughly an order of magnitude versus the canonical
// per-record form.
//
// The strict invariant: decoding reproduces records **bit-identical** to
// their canonical ProvenanceRecord::Encode() form — same Hash(), so Merkle
// roots, dedup, and follower re-validation are untouched. The block codec
// enforces this at encode time by parsing each transaction payload in place
// under exactly ProvenanceRecord::Decode's rules (bounded u32-length
// strings, a known domain byte, counts bounded by the bytes left, strictly
// increasing field keys, a 32-byte payload hash, then the end): bytes that
// pass are the canonical encoding of the record they decode to and go
// through the record columns without a record being built; anything else
// (foreign tx types, non-canonical payloads) falls back to its raw bytes
// inside the same frame.
//
// Frame versioning: a columnar block body starts with the 8-byte magic
// "PLCOLB01"; DecodeBlock sniffs it and falls back to the legacy
// Block::Decode() wire form otherwise, so old ChainLog files replay and
// mixed-version peers interoperate. (A legacy body cannot collide with the
// magic: its first 8 bytes are the little-endian block height, and the
// magic read as a height is ~3.5e18.)
//
// Column layout inside a batch (after the shared string dictionary):
//   record ids   — trailing-digit split: dict(head) + digit width +
//                  zigzag-varint delta of the numeric suffix
//   domains      — one byte each
//   operations   — dict references
//   subjects     — id-encoded (same split as record ids; own delta chain)
//   agents       — id-encoded
//   timestamps   — zigzag-varint deltas
//   inputs/outputs — count + id-encoded entries
//   fields       — field-key *schemas* interned on first sight (a schema is
//                  the ordered key-id list); per record one schema ref plus
//                  dict refs for the values
//   payload hash — 1 flag byte (zero digest) or flag + 32 raw bytes
//
// Thread safety: free encode/decode functions over caller-owned buffers —
// safe concurrently on distinct data.

#ifndef PROVLEDGER_PROV_COLUMNAR_H_
#define PROVLEDGER_PROV_COLUMNAR_H_

#include <vector>

#include "ledger/block.h"
#include "prov/record.h"

namespace provledger {
namespace prov {
namespace columnar {

/// Magic prefix of a columnar block body ("PLCOLB01").
extern const uint8_t kBlockMagic[8];

/// \brief Encode a record batch column-major (self-contained: dictionary +
/// columns). Round trip is exact: decoding yields records whose Encode()
/// bytes — and therefore Hash() — equal the originals'.
void EncodeRecordBatch(const std::vector<ProvenanceRecord>& records,
                       Encoder* enc);
Bytes EncodeRecordBatch(const std::vector<ProvenanceRecord>& records);

/// \brief Decode a batch produced by EncodeRecordBatch. Truncated or
/// corrupt frames (bad dict/schema references, overlong varints, unknown
/// domain bytes, trailing garbage in the Bytes overload) fail loudly with
/// Corruption — never a partial batch.
Status DecodeRecordBatch(Decoder* dec, std::vector<ProvenanceRecord>* out);
Result<std::vector<ProvenanceRecord>> DecodeRecordBatch(const Bytes& data);

/// \brief Encode a block with a columnar body: header as today, then the
/// transaction columns, with record payloads stored once through the
/// record columns. Safe for arbitrary blocks — transactions that do not
/// carry a canonical record payload ride along as raw bytes. Payloads are
/// read in place: no record is decoded.
Bytes EncodeBlock(const ledger::Block& block);

/// \brief Decode a block body of either form: columnar (magic-prefixed) or
/// legacy Block::Encode() bytes. This is the one entry point the byte-bound
/// layers (ChainLog replay, replication ingest) use, so a reader never
/// needs to know which format a peer or an old log wrote.
Result<ledger::Block> DecodeBlock(const Bytes& payload);

/// True when `payload` carries the columnar magic.
bool IsColumnarBlock(const Bytes& payload);

}  // namespace columnar
}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_COLUMNAR_H_
