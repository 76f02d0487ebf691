// Named crash sites of the subtree-transfer transaction (DESIGN.md §7).
//
// Every subtree transfer — a pending-pool migration driven by an
// adjustment round, or a rename (in place or cross-server) — journals
// INTENT → PREPARE → COMMIT records to the Monitor's write-ahead log.
// Each transaction site below sits *between* two of those durable steps
// and is reached by both drivers, so arming a crash there
// (FaultKind::kCrashAtSite, or FunctionalCluster::ArmCrash directly)
// reproduces exactly one of the partial-failure windows recovery must
// handle:
//
//   kAfterIntent   intent journaled, nothing moved or renamed → roll back
//   kAfterPrepare  records extracted into the pending pool    → roll forward
//   kAfterApply    destination applied and journaled the
//                  transfer, a rename's name applied; commit
//                  not yet journaled                          → roll forward
//                                                               (re-delivery
//                                                               deduplicated)
//   kAfterCommit   commit durable, in-memory indexes
//                  possibly stale                             → replay
//                                                               idempotently
//
// One more site belongs to the global-layer update protocol:
//
//   kAfterGlBump   GL version bump journaled, replica
//                  broadcast incomplete                       → rebuild at
//                                                               WAL version
//
// A crash can additionally tear the last WAL record (torn-write
// truncation); replay must then treat the torn record as never written.
#pragma once

#include <cstddef>
#include <cstdint>

namespace d2tree {

enum class CrashSite : std::uint8_t {
  kAfterIntent = 0,
  kAfterPrepare,
  kAfterApply,
  kAfterCommit,
  kAfterGlBump,
};
inline constexpr std::size_t kCrashSiteCount =
    static_cast<std::size_t>(CrashSite::kAfterGlBump) + 1;

const char* CrashSiteName(CrashSite site);

}  // namespace d2tree
