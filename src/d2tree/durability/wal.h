// Append-only write-ahead log for the metadata service (DESIGN.md §7).
//
// The Monitor and every MDS journal their durable state transitions here
// before applying them: every subtree transfer — a pending-pool
// migration or a rename — travels as INTENT/PREPARE/COMMIT/ABORT records
// keyed by a monotonically assigned transaction id, global-layer
// version bumps and capacity/placement snapshots checkpoint the cluster
// control state, and a receiving MDS journals every transfer it applied
// so replay can deduplicate re-deliveries.
//
// On-disk/in-memory framing (all integers little-endian):
//
//   ┌────────────┬────────────┬──────────────────────────────┐
//   │ u32 length │ u32 crc32  │ payload (`length` bytes)      │
//   └────────────┴────────────┴──────────────────────────────┘
//
// The CRC covers the payload only. Replay walks the frames in order and
// stops at the first frame whose header is short, whose payload runs past
// the buffer, or whose CRC mismatches — a *torn tail*, the footprint of a
// crash mid-append. Everything before the tear is valid; the tear itself
// is reported so recovery can truncate it and append fresh records.
//
// Thread-safety: Append/Replay/TruncateTail may be called concurrently;
// one Mutex (rank 45 — between the per-store lock and the SimNet link
// locks, see DESIGN.md "Lock hierarchy") guards the byte buffer. Appends
// are leaf operations: no other lock is ever acquired while holding it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/nstree/tree.h"
#include "d2tree/partition/partition.h"

namespace d2tree {

enum class WalRecordType : std::uint8_t {
  /// Checkpoint: owner per local-layer subtree (index-aligned with the
  /// scheme's subtree list) + the GL master version at snapshot time.
  kPlacementSnapshot = 0,
  /// Checkpoint: per-MDS capacities the Monitor plans with.
  kCapacitySnapshot,
  /// Subtree-transfer transaction (DESIGN.md §7), keyed by `txn_id`. A
  /// pure migration leaves `name`/`prev_name` empty; a rename carries
  /// both; `from == to` (in-place or GL rename) has no transfer step.
  kTxnIntent,   // planned: subtree `root`, from → to, optional new name
  kTxnPrepare,  // records extracted (`count`), parked in the pending pool
  kTxnCommit,   // durable at `to`; `version` = GL version a rename bumped
  kTxnAbort,    // rolled back: owner and name unchanged (recovery
                // restores `prev_name` if a rename's apply step had run)
  /// Global-layer master version bump (journaled before the broadcast).
  kGlVersion,
  /// MDS side: this server applied the transfer of `txn_id` (`count`
  /// records) — replayed to rebuild the receiver's dedup set.
  kPullApplied,
};
/// Record types a decoder accepts: type bytes at or past this are
/// malformed (a retired rename record byte included).
inline constexpr std::size_t kWalRecordTypeCount =
    static_cast<std::size_t>(WalRecordType::kPullApplied) + 1;

const char* WalRecordTypeName(WalRecordType type);

/// One journal entry. Which fields are meaningful depends on `type`;
/// unused fields encode/decode as zero/empty.
struct WalRecord {
  WalRecordType type = WalRecordType::kPlacementSnapshot;
  std::uint64_t txn_id = 0;
  NodeId root = kInvalidNode;  // transferred subtree's root
  MdsId from = -1;
  MdsId to = -1;
  std::uint64_t version = 0;  // GL master version (snapshots, kGlVersion)
  std::uint64_t count = 0;    // record counts (prepare/pull payload sizes)
  std::vector<MdsId> owners;  // kPlacementSnapshot
  std::vector<double> capacities;  // kCapacitySnapshot
  std::string name;       // kTxn* of a rename: the post-rename name
  std::string prev_name;  // kTxn* of a rename: the pre-rename name

  bool operator==(const WalRecord&) const = default;
};

/// Serializes `record` into the frame payload format (no frame header).
std::vector<std::uint8_t> EncodeWalRecord(const WalRecord& record);
/// Decodes one payload; nullopt on malformed input (fsck treats that as a
/// corrupt record even when the CRC happens to match).
std::optional<WalRecord> DecodeWalRecord(const std::uint8_t* data,
                                         std::size_t len);

/// Outcome of one replay pass.
struct WalReplayStats {
  std::size_t records = 0;        // well-formed records decoded
  std::size_t bytes_scanned = 0;  // valid prefix length
  bool torn_tail = false;         // trailing bytes did not frame a record
  std::size_t torn_bytes = 0;     // length of the torn fragment
};

class Wal {
 public:
  Wal() = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frames and appends one record (length + CRC32 + payload).
  void Append(const WalRecord& record);

  /// Decodes every well-formed record from the start of the log; fills
  /// `stats` (optional) with the replay outcome including torn-tail
  /// detection. Never throws on corrupt input — the valid prefix wins.
  std::vector<WalRecord> Replay(WalReplayStats* stats = nullptr) const;

  /// Torn-write injection: drops the last `bytes` bytes of the log, as if
  /// the process died mid-append. Clamped to the log size; dropping fewer
  /// bytes than the last frame leaves a torn tail replay must skip.
  void TruncateTail(std::size_t bytes);

  /// Log size in bytes / records appended since construction. The record
  /// count is the *append* count; after TruncateTail the replayable count
  /// (WalReplayStats::records) may be smaller.
  std::size_t size_bytes() const;
  std::size_t records_appended() const;

  /// Raw byte snapshot (d2fsck, tests).
  std::vector<std::uint8_t> Bytes() const;
  /// Replaces the log contents wholesale (file load).
  void Assign(std::vector<std::uint8_t> bytes);

  /// File persistence for the d2fsck CLI and the recovery bench.
  [[nodiscard]] bool SaveTo(const std::string& path) const;
  [[nodiscard]] bool LoadFrom(const std::string& path);

 private:
  /// Journal buffer lock — leaf rank 45 (DESIGN.md "Lock hierarchy"):
  /// taken with the cluster's placement/GL locks (20/30) or a store lock
  /// (40) already held, never the other way around.
  mutable Mutex mu_ D2T_LOCK_RANK(45);
  std::vector<std::uint8_t> bytes_ D2T_GUARDED_BY(mu_);
  std::size_t appended_ D2T_GUARDED_BY(mu_) = 0;
};

}  // namespace d2tree
