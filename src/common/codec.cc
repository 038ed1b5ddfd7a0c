#include "common/codec.h"

#include <algorithm>
#include <cstring>

namespace provledger {

void Encoder::PutU8(uint8_t v) { buf_.push_back(v); }

void Encoder::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void Encoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutBool(bool v) { PutU8(v ? 1 : 0); }

void Encoder::PutUVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Encoder::PutSVarint(int64_t v) {
  // ZigZag: interleave signs so small magnitudes stay one byte either way.
  PutUVarint((static_cast<uint64_t>(v) << 1) ^
             static_cast<uint64_t>(v >> 63));
}

void Encoder::PutBytes(const Bytes& b) {
  PutU32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Encoder::PutRaw(const Bytes& b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Encoder::PutRaw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void Encoder::PutU32Array(const uint32_t* v, size_t n) {
  PutU32(static_cast<uint32_t>(n));
  size_t at = buf_.size();
  buf_.resize(at + 4 * n);
  uint8_t* out = buf_.data() + at;
  for (size_t i = 0; i < n; ++i) {
    uint32_t x = v[i];
    out[0] = static_cast<uint8_t>(x);
    out[1] = static_cast<uint8_t>(x >> 8);
    out[2] = static_cast<uint8_t>(x >> 16);
    out[3] = static_cast<uint8_t>(x >> 24);
    out += 4;
  }
}

Status Decoder::Need(size_t n) {
  if (size_ - pos_ < n) {
    return Status::Corruption("decode past end of buffer");
  }
  return Status::OK();
}

Status Decoder::Skip(size_t n) {
  PROVLEDGER_RETURN_NOT_OK(Need(n));
  pos_ += n;
  return Status::OK();
}

Status Decoder::GetU8(uint8_t* v) {
  PROVLEDGER_RETURN_NOT_OK(Need(1));
  *v = data_[pos_++];
  return Status::OK();
}

Status Decoder::GetU16(uint16_t* v) {
  PROVLEDGER_RETURN_NOT_OK(Need(2));
  *v = static_cast<uint16_t>(data_[pos_]) |
       static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return Status::OK();
}

Status Decoder::GetU32(uint32_t* v) {
  PROVLEDGER_RETURN_NOT_OK(Need(4));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status Decoder::GetU64(uint64_t* v) {
  PROVLEDGER_RETURN_NOT_OK(Need(8));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status Decoder::GetI64(int64_t* v) {
  uint64_t u;
  PROVLEDGER_RETURN_NOT_OK(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status Decoder::GetDouble(double* v) {
  uint64_t bits;
  PROVLEDGER_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status Decoder::GetUVarint(uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte;
    PROVLEDGER_RETURN_NOT_OK(GetU8(&byte));
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte carries only the top bit of a u64; anything above
      // that is an overlong/overflowing encoding, not a value.
      if (shift == 63 && byte > 1) {
        return Status::Corruption("uvarint overflows 64 bits");
      }
      *v = out;
      return Status::OK();
    }
  }
  return Status::Corruption("uvarint runs past 10 bytes");
}

Status Decoder::GetSVarint(int64_t* v) {
  uint64_t zz;
  PROVLEDGER_RETURN_NOT_OK(GetUVarint(&zz));
  *v = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  return Status::OK();
}

Status Decoder::GetBool(bool* v) {
  uint8_t b;
  PROVLEDGER_RETURN_NOT_OK(GetU8(&b));
  if (b > 1) return Status::Corruption("bool byte out of range");
  *v = b != 0;
  return Status::OK();
}

Status Decoder::GetBytes(Bytes* b) {
  uint32_t len;
  PROVLEDGER_RETURN_NOT_OK(GetU32(&len));
  PROVLEDGER_RETURN_NOT_OK(Need(len));
  b->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetString(std::string* s) {
  uint32_t len;
  PROVLEDGER_RETURN_NOT_OK(GetU32(&len));
  PROVLEDGER_RETURN_NOT_OK(Need(len));
  s->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetStringView(std::string_view* s) {
  uint32_t len;
  PROVLEDGER_RETURN_NOT_OK(GetU32(&len));
  PROVLEDGER_RETURN_NOT_OK(Need(len));
  *s = std::string_view(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetRaw(size_t len, Bytes* b) {
  PROVLEDGER_RETURN_NOT_OK(Need(len));
  b->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetRaw(size_t len, uint8_t* out) {
  PROVLEDGER_RETURN_NOT_OK(Need(len));
  std::copy(data_ + pos_, data_ + pos_ + len, out);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetU32Array(std::vector<uint32_t>* v, size_t max_count) {
  uint32_t n = 0;
  PROVLEDGER_RETURN_NOT_OK(GetU32(&n));
  if (n > max_count) {
    return Status::Corruption("u32 array length exceeds limit");
  }
  PROVLEDGER_RETURN_NOT_OK(Need(4 * static_cast<size_t>(n)));
  v->resize(n);
  const uint8_t* in = data_ + pos_;
  for (uint32_t i = 0; i < n; ++i) {
    (*v)[i] = static_cast<uint32_t>(in[0]) |
              static_cast<uint32_t>(in[1]) << 8 |
              static_cast<uint32_t>(in[2]) << 16 |
              static_cast<uint32_t>(in[3]) << 24;
    in += 4;
  }
  pos_ += 4 * static_cast<size_t>(n);
  return Status::OK();
}

}  // namespace provledger
