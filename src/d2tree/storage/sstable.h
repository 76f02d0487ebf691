// Immutable sorted-table files (SSTables) for the LSM engine
// (DESIGN.md §10).
//
// A sealed table is written once, never modified, and read by binary
// search over an in-memory block index with a bloom filter to short-cut
// misses. The same sealed file is the unit of *bulk subtree shipping*: a
// migration source seals the extracted subtree into one table, the
// destination ingests it by file link-in — IndexFS-style bulk insertion
// instead of per-record inserts.
//
// On-disk layout (all integers little-endian, storage record codec for
// values):
//
//   data block*   entry := u32 id | u8 kind | u32 vlen | vlen bytes
//                 kind: 1 = live record (vlen = encoded InodeRecord),
//                       2 = tombstone   (vlen = 0)
//                 blocks close at ~block_bytes; ids strictly increase
//                 across the whole file.
//   index         u32 nblocks, then per block:
//                 u32 first_id | u32 last_id | u64 offset | u32 len | u32 crc
//   bloom         u32 nbits | u32 nhashes | bits (ceil(nbits/8) bytes)
//   footer (52B)  u64 index_off | u32 index_len | u32 index_crc |
//                 u64 bloom_off | u32 bloom_len | u32 bloom_crc |
//                 u64 entry_count | u32 min_id | u32 max_id | u32 magic
//
// Every region is CRC-guarded (per-block CRCs live in the index), so
// d2fsck / d2sst can audit a table without trusting any of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "d2tree/mds/inode.h"

namespace d2tree {

inline constexpr std::uint32_t kSSTableMagic = 0xD275B1E5;
inline constexpr std::size_t kSSTableFooterBytes = 52;

struct SSTableOptions {
  std::size_t block_bytes = 4096;      // data-block close threshold
  std::size_t bloom_bits_per_key = 10; // 0 disables the filter
};

/// One entry as the table stores it: a live record or a tombstone that
/// shadows older tables during reads and merges.
struct SSTableEntry {
  NodeId id = kInvalidNode;
  bool tombstone = false;
  InodeRecord record;  // valid when !tombstone

  bool operator==(const SSTableEntry&) const = default;
};

/// Streams strictly-increasing-id entries into a sealed table file.
class SSTableBuilder {
 public:
  explicit SSTableBuilder(std::string path, SSTableOptions options = {});

  /// Adds the next entry; fails (and poisons the builder) when ids are not
  /// strictly increasing or the file cannot be written.
  [[nodiscard]] bool Add(const SSTableEntry& entry);
  [[nodiscard]] bool AddRecord(const InodeRecord& record) {
    return Add({record.id, false, record});
  }
  [[nodiscard]] bool AddTombstone(NodeId id) { return Add({id, true, {}}); }

  /// Seals the table: writes index, bloom and footer, flushes the file.
  /// False when nothing was added or any write failed.
  [[nodiscard]] bool Finish();

  std::size_t entries_added() const noexcept { return count_; }
  bool failed() const noexcept { return failed_; }

 private:
  void CloseBlock();

  struct IndexEntry {
    NodeId first_id = kInvalidNode;
    NodeId last_id = kInvalidNode;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
  };

  std::string path_;
  SSTableOptions options_;
  std::ofstream out_;
  std::vector<std::uint8_t> block_;
  NodeId block_first_ = kInvalidNode;
  NodeId last_id_ = kInvalidNode;
  std::uint64_t offset_ = 0;
  std::vector<IndexEntry> index_;
  std::vector<NodeId> keys_;  // bloom input
  std::size_t count_ = 0;
  NodeId min_id_ = kInvalidNode;
  NodeId max_id_ = kInvalidNode;
  bool finished_ = false;
  bool failed_ = false;
};

/// Read side: footer + index + bloom stay in memory, data blocks are read
/// (and CRC-checked) on demand. Not internally synchronized — the LSM
/// engine serializes access under its own lock.
class SSTableReader {
 public:
  SSTableReader() = default;
  SSTableReader(SSTableReader&&) = default;
  SSTableReader& operator=(SSTableReader&&) = default;

  /// Opens and validates footer/index/bloom; false on any mismatch.
  [[nodiscard]] bool Open(const std::string& path);

  /// Point lookup. nullopt = not in this table; an engaged optional holds
  /// the entry (possibly a tombstone, which shadows older tables).
  std::optional<SSTableEntry> Get(NodeId id);

  /// Visits every entry in id order. False when a block fails its CRC.
  [[nodiscard]] bool Scan(const std::function<void(const SSTableEntry&)>& fn);

  std::uint64_t entry_count() const noexcept { return entry_count_; }
  NodeId min_id() const noexcept { return min_id_; }
  NodeId max_id() const noexcept { return max_id_; }
  const std::string& path() const noexcept { return path_; }

  /// True when the bloom filter rules the id out (read short-cut).
  bool BloomRejects(NodeId id) const;

 private:
  struct IndexEntry {
    NodeId first_id;
    NodeId last_id;
    std::uint64_t offset;
    std::uint32_t length;
    std::uint32_t crc;
  };

  [[nodiscard]] bool ReadBlock(const IndexEntry& block,
                               std::vector<std::uint8_t>* out);

  std::string path_;
  mutable std::ifstream in_;
  std::vector<IndexEntry> index_;
  std::vector<std::uint8_t> bloom_bits_;
  std::uint32_t bloom_nbits_ = 0;
  std::uint32_t bloom_nhashes_ = 0;
  std::uint64_t entry_count_ = 0;
  NodeId min_id_ = kInvalidNode;
  NodeId max_id_ = kInvalidNode;
};

/// Full offline audit of one table file: footer magic, index/bloom CRCs,
/// per-block CRCs, strict global key ordering, per-block [first,last]
/// agreement, entry count, min/max, and bloom completeness (every stored
/// id must test positive). `issues` empty = clean.
struct SSTableAudit {
  std::size_t blocks = 0;
  std::size_t entries = 0;
  std::size_t tombstones = 0;
  std::vector<std::string> issues;

  bool clean() const noexcept { return issues.empty(); }
};

SSTableAudit AuditSSTable(const std::string& path);

/// Seals `records` (any order; sorted internally) into a table at `path`.
/// The one-call path migration PREPARE uses to package a subtree.
[[nodiscard]] bool WriteRecordsTable(std::vector<InodeRecord> records,
                                     const std::string& path,
                                     SSTableOptions options = {});

}  // namespace d2tree
