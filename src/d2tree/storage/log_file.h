// Group-committed, file-backed append log for the LSM engine
// (DESIGN.md §10).
//
// Framing is exactly durability/wal.h's (`u32 length + u32 crc32 +
// payload`, CRC over the payload only) via the shared durability/frame.h
// helpers, so d2fsck's torn-tail logic applies unchanged. The difference
// is the commit discipline: Append() only buffers the framed bytes;
// Commit() hands the whole pending batch to the OS in one write — the
// *group commit*. A batch mutation (InsertAll, ExtractAll) therefore costs
// one syscall however many records it carries, and a crash between Append
// and Commit loses only the uncommitted batch, never a committed prefix.
//
// Durability level: a committed batch survives process death (SIGKILL) —
// the bytes are in the page cache. `sync_on_commit` adds an fsync per
// commit for power-loss durability at the obvious throughput cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/durability/frame.h"

namespace d2tree {

class LogFile {
 public:
  LogFile() = default;
  ~LogFile();
  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  /// Opens (creating or appending) the log at `path`. Replays existing
  /// frames through `fn` first (same contract as frame::ScanFrames: return
  /// false to reject an undecodable payload); a torn tail is truncated off
  /// the file so fresh appends land on a clean frame boundary. Returns
  /// false when the file cannot be opened.
  [[nodiscard]] bool Open(const std::string& path, bool sync_on_commit,
            const std::function<bool(const std::uint8_t*, std::size_t)>& fn,
            frame::ScanStats* stats);

  /// Frames `payload` into the pending batch (no I/O yet).
  void Append(const std::vector<std::uint8_t>& payload);

  /// Writes the pending batch to the file in one write. Returns the
  /// number of frames committed (0 = nothing pending).
  std::size_t Commit();

  /// Truncates the log to zero length (after a memtable flush sealed its
  /// contents into a table). Drops any uncommitted batch.
  void Reset();

  /// Crash injection: discards the last `bytes` bytes of the *file*, as
  /// if the process died mid-write. Pending bytes are dropped too.
  void TearTail(std::size_t bytes);

  std::uint64_t committed_bytes() const;
  std::uint64_t group_commits() const;

 private:
  void CloseLocked() D2T_REQUIRES(mu_);

  /// Leaf lock of the storage engine (rank 43): taken with the engine
  /// lock (42) held, never the other way around (DESIGN.md §6).
  mutable Mutex mu_ D2T_LOCK_RANK(43);
  std::string path_ D2T_GUARDED_BY(mu_);
  std::FILE* file_ D2T_GUARDED_BY(mu_) = nullptr;
  bool sync_on_commit_ D2T_GUARDED_BY(mu_) = false;
  std::vector<std::uint8_t> pending_ D2T_GUARDED_BY(mu_);
  std::size_t pending_frames_ D2T_GUARDED_BY(mu_) = 0;
  std::uint64_t committed_bytes_ D2T_GUARDED_BY(mu_) = 0;
  std::uint64_t group_commits_ D2T_GUARDED_BY(mu_) = 0;
};

}  // namespace d2tree
