// Wire codec for the socket transport (DESIGN.md §9).
//
// Every frame on a TCP connection is length-prefixed and CRC-framed with
// the same discipline as the WAL (durability/wal.h):
//
//   ┌────────────┬────────────┬──────────────────────────────┐
//   │ u32 length │ u32 crc32  │ body (`length` bytes)         │
//   └────────────┴────────────┴──────────────────────────────┘
//
// all integers little-endian, the CRC covering the body only. The body is
// an envelope — wire version, frame kind, correlation id, from/to
// addresses — followed by the full serialized Message (net/message.h),
// including the name and record payloads, so everything the in-process
// transports hand over by reference round-trips byte-exactly across
// processes.
//
// Frame kinds: kOneWay (fire-and-forget, acked at the receiving event
// loop), kCall (expects a kResponse from the bound handler), kResponse
// and kAck (terminate the correlation id they echo).
//
// Decoding is streaming and total: DecodeFrame peels at most one frame
// off a byte buffer and reports kNeedMore for a short prefix, kCorrupt
// for a CRC mismatch, an oversized length, or a body that does not parse
// — it never throws and never reads past `len` (the fuzz suite in
// tests/test_wire_codec.cpp holds it to that under ASan/UBSan).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "d2tree/net/message.h"

namespace d2tree {

/// Version 2 dropped three rename-only message types, renumbering
/// kBulkTable; a version-1 peer's frames are rejected, never misread.
inline constexpr std::uint8_t kWireVersion = 2;
/// Frame header: u32 body length + u32 CRC32(body).
inline constexpr std::size_t kWireHeaderBytes = 8;

enum class FrameKind : std::uint8_t {
  kOneWay = 0,  // Send(): no response expected, event loop acks receipt
  kCall,        // Call(): the bound handler's kResponse closes the id
  kResponse,    // handler answer, echoes the request's correlation id
  kAck,         // loop-level receipt for a kOneWay frame
};

const char* FrameKindName(FrameKind kind);

/// One frame's decoded body: the routing envelope plus the message.
struct WireEnvelope {
  FrameKind kind = FrameKind::kOneWay;
  std::uint64_t correlation_id = 0;
  Address from;
  Address to;
  Message msg;

  bool operator==(const WireEnvelope&) const = default;
};

/// Serializes `env` into a complete frame (header + body). Names longer
/// than kMaxWireNameBytes are truncated to the bound — the encoder never
/// produces a frame its own decoder rejects.
std::vector<std::uint8_t> EncodeFrame(const WireEnvelope& env);

enum class [[nodiscard]] DecodeStatus : std::uint8_t {
  kOk = 0,    // one frame decoded; `*consumed` bytes eaten
  kNeedMore,  // prefix of a valid frame; read more bytes and retry
  kCorrupt,   // CRC mismatch / oversized length / malformed body
};

/// Attempts to peel one frame off the front of [data, data+len). On kOk
/// fills `*env` and sets `*consumed` to the frame's total size; on
/// kCorrupt sets `*consumed` to the bytes that must be discarded (the
/// whole claimed frame when its length field is plausible, else 0 — a
/// socket connection is torn down on any corrupt frame regardless).
DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len,
                         WireEnvelope* env, std::size_t* consumed);

}  // namespace d2tree
