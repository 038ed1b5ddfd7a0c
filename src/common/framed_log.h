// CRC-framed append-only log records, shared by the ledger ChainLog's
// writer and reader and the offline chain-log audit so the torn-vs-corrupt
// recovery policy is single-sourced:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// A single-writer append that crashes mid-write always leaves a *prefix*
// of the intended record, so a frame whose declared extent runs past the
// end of the file is a torn write (recoverable: truncate it away). A frame
// that is fully present but fails its CRC was completed and then damaged —
// that is corruption and must fail loudly, never be silently truncated
// (valid records may follow it).
//
// Thread safety: NOT internally synchronized — one writer or reader per log
// instance; concurrent access needs external locking.

#ifndef PROVLEDGER_COMMON_FRAMED_LOG_H_
#define PROVLEDGER_COMMON_FRAMED_LOG_H_

#include <cstddef>

#include "common/bytes.h"

namespace provledger {

/// Frame header size: u32 payload length + u32 CRC-32.
inline constexpr size_t kFrameHeaderBytes = 8;

/// \brief Classification of the bytes at a frame boundary.
enum class FrameScan {
  kValid,    // complete frame, CRC matches
  kTorn,     // frame extends past the buffer end (crash artifact)
  kCorrupt,  // complete frame, CRC mismatch
};

/// \brief Classify the frame starting at `pos`; on kValid, *payload_len
/// holds the payload size (frame ends at pos + kFrameHeaderBytes +
/// *payload_len).
FrameScan ScanFrameAt(const Bytes& buf, size_t pos, size_t* payload_len);

/// \brief Frame `payload` for appending: header + payload in one buffer.
Bytes BuildFrame(const Bytes& payload);

}  // namespace provledger

#endif  // PROVLEDGER_COMMON_FRAMED_LOG_H_
