// Harness: the common/framed_log read path — frame classification
// (valid / torn / corrupt) over an arbitrary byte buffer, walked exactly the
// way ChainLog::ScanExisting walks a log file. Trust boundary: raw log
// files on disk.

#include "harnesses.h"
#include "common/crc32.h"
#include "common/framed_log.h"

namespace provledger {
namespace fuzz {

void FuzzFramedLog(const uint8_t* data, size_t size) {
  Bytes buf(data, data + size);

  // Replay-loop walk: every kValid frame advances; torn/corrupt stop the
  // scan (the two recovery verdicts). The scan itself must never read out
  // of bounds whatever the declared lengths say.
  size_t pos = 0;
  while (pos < buf.size()) {
    size_t payload_len = 0;
    FrameScan scan = ScanFrameAt(buf, pos, &payload_len);
    if (scan != FrameScan::kValid) break;
    PROVLEDGER_FUZZ_REQUIRE(pos + kFrameHeaderBytes + payload_len <=
                            buf.size());
    // A valid frame's CRC must verify against exactly its payload slice.
    PROVLEDGER_FUZZ_REQUIRE(
        Crc32(buf.data() + pos + kFrameHeaderBytes, payload_len) ==
        Crc32(Bytes(buf.begin() + static_cast<ptrdiff_t>(pos +
                                                         kFrameHeaderBytes),
                    buf.begin() + static_cast<ptrdiff_t>(
                                      pos + kFrameHeaderBytes + payload_len))));
    pos += kFrameHeaderBytes + payload_len;
  }

  // Build/scan inverse: framing arbitrary bytes always yields one valid
  // frame of exactly that payload.
  Bytes frame = BuildFrame(buf);
  size_t built_len = 0;
  PROVLEDGER_FUZZ_REQUIRE(ScanFrameAt(frame, 0, &built_len) ==
                          FrameScan::kValid);
  PROVLEDGER_FUZZ_REQUIRE(built_len == buf.size());
}

}  // namespace fuzz
}  // namespace provledger

PROVLEDGER_FUZZ_SHIM(FuzzFramedLog)
