// Durable serialization of one InodeRecord (DESIGN.md §10).
//
// This is the *storage* codec — the byte layout of a record inside the
// LSM engine's WAL entries and SSTable blocks. It is deliberately separate
// from the wire codec (net/wire.h): the wire format can evolve with the
// RPC protocol while files written by an older build keep decoding.
// Layout (all integers little-endian, durability/frame.h writers):
//
//   u32 id | u32 parent | u8 type | u32 mode | u32 uid | u32 gid |
//   u64 size | u64 mtime | u64 ctime | u64 version | u32 name_len | name
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "d2tree/mds/inode.h"

namespace d2tree {

/// Appends the encoded record to `out`.
void EncodeInodeRecord(const InodeRecord& record,
                       std::vector<std::uint8_t>& out);

/// Decodes one record occupying the whole span; nullopt on malformed
/// input (short buffer, trailing bytes, out-of-range enum).
std::optional<InodeRecord> DecodeInodeRecord(const std::uint8_t* data,
                                             std::size_t len);

}  // namespace d2tree
