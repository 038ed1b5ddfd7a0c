// CRC-32 (IEEE 802.3 polynomial, reflected) for storage-record framing.
//
// Every on-disk log record in the durable storage layer (the ledger
// ChainLog) carries a CRC over its payload so torn or bit-rotted tail
// records are detected at reopen instead of being replayed as garbage. CRC is the right tool here: it is cheap, and integrity against
// an *adversary* is already covered one layer up by the hash chain and
// Merkle roots — the CRC only needs to catch accidental corruption.
//
// Thread safety: stateless free functions — safe from any thread.

#ifndef PROVLEDGER_COMMON_CRC32_H_
#define PROVLEDGER_COMMON_CRC32_H_

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace provledger {

/// \brief CRC-32 of `data` (initial value 0xFFFFFFFF, final XOR, reflected
/// polynomial 0xEDB88320 — the zlib/PNG convention).
uint32_t Crc32(const uint8_t* data, size_t len);
uint32_t Crc32(const Bytes& data);

}  // namespace provledger

#endif  // PROVLEDGER_COMMON_CRC32_H_
