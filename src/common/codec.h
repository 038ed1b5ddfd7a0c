// Deterministic binary serialization used for every on-ledger structure.
//
// All multi-byte integers are little-endian fixed width; variable-size fields
// are length-prefixed with a u32. Encoding is canonical: re-encoding a decoded
// structure yields byte-identical output, which is required because structure
// hashes (transaction ids, Merkle leaves, block ids) are hashes of encodings.
//
// Thread safety: Encoder and Decoder are single-owner value objects;
// distinct instances are independent.

#ifndef PROVLEDGER_COMMON_CODEC_H_
#define PROVLEDGER_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace provledger {

/// \brief Append-only binary encoder.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  /// LEB128 varint (1 byte for values < 128, at most 10). The compact-form
  /// primitive behind the columnar record codec (prov/columnar.h): dict
  /// references, counts, and deltas are almost always tiny.
  void PutUVarint(uint64_t v);
  /// ZigZag-mapped signed varint: small magnitudes of either sign stay
  /// short (delta-encoded timestamps go both ways).
  void PutSVarint(int64_t v);
  /// Encodes an IEEE-754 double by bit pattern.
  void PutDouble(double v);
  void PutBool(bool v);
  /// Length-prefixed (u32) byte string.
  void PutBytes(const Bytes& b);
  /// Length-prefixed (u32) character string.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix (caller must know the length when decoding).
  void PutRaw(const Bytes& b);
  void PutRaw(const uint8_t* data, size_t len);
  /// u32-length-prefixed little-endian u32 array, written in one append —
  /// the bulk form the snapshot codecs use for index/adjacency vectors.
  void PutU32Array(const uint32_t* v, size_t n);
  void PutU32Array(const std::vector<uint32_t>& v) {
    PutU32Array(v.data(), v.size());
  }

  const Bytes& buffer() const { return buf_; }
  Bytes TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  /// Drop the contents but keep the capacity — the reuse primitive for
  /// scratch encoders on hot paths (ingest shard workers encode every
  /// record/transaction into one buffer that never reallocates in steady
  /// state).
  void Clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

/// \brief Sequential decoder over a byte buffer; every getter validates
/// remaining length and returns Corruption on truncated input.
class Decoder {
 public:
  /// Decode from `buf`, optionally starting at byte offset `pos` (used to
  /// decode one record out of a larger snapshot blob without copying it).
  explicit Decoder(const Bytes& buf, size_t pos = 0)
      : data_(buf.data()),
        size_(buf.size()),
        pos_(pos < buf.size() ? pos : buf.size()) {}
  /// Decode a raw byte range (zero-copy views into snapshot buffers). The
  /// memory must outlive the decoder.
  Decoder(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  /// Counterparts of PutUVarint/PutSVarint; Corruption on truncation or a
  /// varint running past 10 bytes (no silent wraparound).
  Status GetUVarint(uint64_t* v);
  Status GetSVarint(int64_t* v);
  Status GetDouble(double* v);
  Status GetBool(bool* v);
  Status GetBytes(Bytes* b);
  Status GetString(std::string* s);
  /// Zero-copy GetString: `s` views the decoder's buffer, so it is valid
  /// only while that buffer is.
  Status GetStringView(std::string_view* s);
  /// Reads exactly `len` raw bytes.
  Status GetRaw(size_t len, Bytes* b);
  /// Reads exactly `len` raw bytes into `out` (which must hold `len`):
  /// fixed-size fields such as digests, with no temporary buffer.
  Status GetRaw(size_t len, uint8_t* out);
  /// Bulk counterpart of Encoder::PutU32Array: one bounds check, one tight
  /// assemble loop. `max_count` caps the prefixed length (Corruption past
  /// it) so corrupt input cannot force a huge allocation.
  Status GetU32Array(std::vector<uint32_t>* v, size_t max_count);

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// Current byte offset from the start of the buffer.
  size_t position() const { return pos_; }
  /// Advance past `n` bytes without materializing them (section skipping).
  Status Skip(size_t n);

 private:
  Status Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace provledger

#endif  // PROVLEDGER_COMMON_CODEC_H_
