// LazySlice: a zero-copy view into a shared snapshot buffer whose decoding
// is deferred until first use (the store's rec/ index section). The whole
// snapshot body is checksummed at load time (common/hash64.h), so slices
// can be handed out without re-verification; holding a slice pins the
// backing buffer alive.
//
// Thread safety: thread-compatible value type over an immutable shared
// buffer — concurrent const reads of one slice are safe; mutation
// (clear/assign) needs a single owner.

#ifndef PROVLEDGER_PROV_LAZY_SLICE_H_
#define PROVLEDGER_PROV_LAZY_SLICE_H_

#include <memory>

#include "common/codec.h"

namespace provledger {
namespace prov {

/// \brief [offset, offset + length) of a shared, immutable byte buffer.
struct LazySlice {
  std::shared_ptr<const Bytes> backing;
  size_t offset = 0;
  size_t length = 0;

  bool empty() const { return backing == nullptr; }
  const uint8_t* data() const { return backing->data() + offset; }
  void clear() {
    backing.reset();
    offset = 0;
    length = 0;
  }
};

/// \brief Read a `[u32 length][bytes]`-framed section from `dec` as a
/// zero-copy slice of `backing`. `dec` must be decoding `*backing` itself
/// (from offset 0), so dec->position() is an absolute offset into it.
inline Status GetSlice(Decoder* dec,
                       const std::shared_ptr<const Bytes>& backing,
                       LazySlice* out) {
  uint32_t len = 0;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&len));
  out->backing = backing;
  out->offset = dec->position();
  out->length = len;
  return dec->Skip(len);
}

}  // namespace prov
}  // namespace provledger

#endif  // PROVLEDGER_PROV_LAZY_SLICE_H_
