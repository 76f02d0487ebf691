// Shared byte-level codec for durable artifacts (DESIGN.md §7, §10).
//
// Every durable byte stream in the system — the Monitor/MDS journals
// (durability/wal.h), the LSM engine's memtable WAL and MANIFEST, and the
// SSTable blocks (storage/) — uses the same little-endian integer layout
// and the same CRC frame:
//
//   ┌────────────┬────────────┬──────────────────────────────┐
//   │ u32 length │ u32 crc32  │ payload (`length` bytes)      │
//   └────────────┴────────────┴──────────────────────────────┘
//
// The CRC covers the payload only. A scan walks frames in order and stops
// at the first short header, overlong payload, or CRC mismatch — a *torn
// tail*, the footprint of a crash mid-append. This header is the single
// definition of that framing; wal.cpp and the storage engine both build on
// it so d2fsck audits one format, not three.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "d2tree/durability/crc32.h"

namespace d2tree::frame {

inline constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void PutDouble(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline std::uint32_t LoadU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Bounds-checked little-endian reader over one payload.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}

  bool U32(std::uint32_t* v) {
    if (len_ - pos_ < 4) return failed_ = true, false;
    *v = LoadU32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (len_ - pos_ < 8) return failed_ = true, false;
    *v = LoadU64(data_ + pos_);
    pos_ += 8;
    return true;
  }
  bool U8(std::uint8_t* v) {
    if (len_ - pos_ < 1) return failed_ = true, false;
    *v = data_[pos_++];
    return true;
  }
  bool Double(double* v) {
    std::uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Raw byte span of length `n`; nullptr when the payload is short.
  const std::uint8_t* Bytes(std::size_t n) {
    if (len_ - pos_ < n) {
      failed_ = true;
      return nullptr;
    }
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  void Skip(std::size_t n) {
    if (len_ - pos_ < n) {
      failed_ = true;
      return;
    }
    pos_ += n;
  }
  bool exhausted() const { return pos_ == len_; }
  bool failed() const { return failed_; }
  std::size_t remaining() const { return len_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Frames one payload (length + CRC32 + payload) onto `out`.
inline void AppendFrame(std::vector<std::uint8_t>& out,
                        const std::uint8_t* payload, std::size_t len) {
  PutU32(out, static_cast<std::uint32_t>(len));
  PutU32(out, Crc32(payload, len));
  out.insert(out.end(), payload, payload + len);
}

inline void AppendFrame(std::vector<std::uint8_t>& out,
                        const std::vector<std::uint8_t>& payload) {
  AppendFrame(out, payload.data(), payload.size());
}

/// Outcome of one frame scan.
struct ScanStats {
  std::size_t frames = 0;         // well-formed frames visited
  std::size_t bytes_scanned = 0;  // valid prefix length
  bool torn_tail = false;         // trailing bytes did not frame a payload
  std::size_t torn_bytes = 0;     // length of the torn fragment
};

/// Walks every valid frame from the start of `data`, calling
/// `fn(payload, len)` for each. `fn` returns false to reject a payload
/// whose CRC matched but whose contents do not decode — the scan stops
/// there and reports the rest of the buffer as torn (a CRC collision on
/// garbage is still a tear). The valid prefix always wins; corrupt input
/// never throws.
template <typename Fn>
ScanStats ScanFrames(const std::uint8_t* data, std::size_t size, Fn&& fn) {
  ScanStats stats;
  std::size_t pos = 0;
  while (pos + kFrameHeader <= size) {
    const std::uint32_t len = LoadU32(data + pos);
    const std::uint32_t crc = LoadU32(data + pos + 4);
    const std::size_t payload_at = pos + kFrameHeader;
    if (payload_at + len > size) break;                       // torn payload
    if (Crc32(data + payload_at, len) != crc) break;          // corrupt
    if (!fn(data + payload_at, static_cast<std::size_t>(len)))  // undecodable
      break;
    ++stats.frames;
    pos = payload_at + len;
  }
  stats.bytes_scanned = pos;
  stats.torn_bytes = size - pos;
  stats.torn_tail = stats.torn_bytes > 0;
  return stats;
}

}  // namespace d2tree::frame
