// Shared tamper-injection utilities for integrity suites (audit,
// recovery, replication): flip bytes at chosen offsets in durable
// artifacts — framed chain-log frames, store snapshots — or corrupt one
// transaction of a block, in memory or installed in a live chain. Centralizing the corruption code means every suite tampers
// the same way, and localization tests can name the exact frame/block/tx
// they damaged. Header-only so the one definition serves every suite
// (tests/*.cc are each their own executable).

#ifndef PROVLEDGER_TESTS_TAMPER_H_
#define PROVLEDGER_TESTS_TAMPER_H_

#include <string>

#include "common/fileio.h"
#include "common/framed_log.h"
#include "ledger/chain.h"

namespace provledger {
namespace testutil {

/// XOR one byte of `path` at `offset` with `mask`. Out-of-range offsets
/// are InvalidArgument; mask 0 would be a no-op and is rejected too.
inline Status FlipByteInFile(const std::string& path, size_t offset,
                             uint8_t mask = 0x01) {
  if (mask == 0) return Status::InvalidArgument("mask 0 tampers nothing");
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes data, ReadFileToBytes(path));
  if (offset >= data.size()) {
    return Status::InvalidArgument("tamper offset past end of file");
  }
  data[offset] ^= mask;
  return WriteFileAtomic(path, data);
}

/// Byte offset of frame `frame_index` (0-based) in a framed-log file.
/// NotFound when the file holds fewer frames.
inline Result<size_t> FrameOffset(const std::string& path,
                                  size_t frame_index) {
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes data, ReadFileToBytes(path));
  size_t pos = 0;
  size_t index = 0;
  while (pos < data.size()) {
    size_t payload_len = 0;
    FrameScan scan = ScanFrameAt(data, pos, &payload_len);
    if (scan == FrameScan::kTorn) break;
    if (index == frame_index) return pos;
    pos += kFrameHeaderBytes + payload_len;
    ++index;
  }
  return Status::NotFound("frame " + std::to_string(frame_index) +
                          " not present in " + path);
}

/// Flip one payload byte of frame `frame_index` in a framed-log file
/// (a chain log), leaving the stored CRC stale — the classic
/// bit-rot/tamper signature. Returns the file offset of the damaged
/// frame so tests can pin findings to it.
inline Result<size_t> CorruptFrame(const std::string& path,
                                   size_t frame_index,
                                   size_t payload_offset = 0,
                                   uint8_t mask = 0x01) {
  PROVLEDGER_ASSIGN_OR_RETURN(size_t frame_at, FrameOffset(path, frame_index));
  PROVLEDGER_RETURN_NOT_OK(FlipByteInFile(
      path, frame_at + kFrameHeaderBytes + payload_offset, mask));
  return frame_at;
}

/// Flip one byte in the middle of a snapshot (or any opaque) file — deep
/// enough to land in the body, past any header magic.
inline Status CorruptSnapshotFile(const std::string& path) {
  PROVLEDGER_ASSIGN_OR_RETURN(Bytes data, ReadFileToBytes(path));
  if (data.empty()) return Status::InvalidArgument("empty file: " + path);
  return FlipByteInFile(path, data.size() / 2);
}

/// Corrupt one transaction of an in-memory block (for forged-broadcast
/// tests): XOR the first payload byte of `tx_index`.
inline Status TamperBlockTx(ledger::Block* block, size_t tx_index,
                            uint8_t mask = 0x01) {
  if (tx_index >= block->transactions.size()) {
    return Status::InvalidArgument("tx index past end of block");
  }
  if (block->transactions[tx_index].payload.empty()) {
    return Status::InvalidArgument("transaction has no payload to tamper");
  }
  block->transactions[tx_index].payload[0] ^= mask;
  return Status::OK();
}

/// Corrupt one transaction of a block *installed in a live chain*
/// (Blockchain::TamperForTesting wrapper): the Merkle root and installed
/// hash go stale, which is exactly what the continuous auditor must
/// localize to (height, tx_index). Single-threaded tests only — see the
/// TamperForTesting contract.
inline Status TamperChainTx(ledger::Blockchain* chain, uint64_t height,
                            size_t tx_index, uint8_t mask = 0x01) {
  return chain->TamperForTesting(height, tx_index, mask);
}

}  // namespace testutil
}  // namespace provledger

#endif  // PROVLEDGER_TESTS_TAMPER_H_
