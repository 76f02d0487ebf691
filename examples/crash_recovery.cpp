// Crash-recovery smoke: trip a crash at every named site (torn and intact
// WAL tails) — each transaction site through both drivers, the
// adjustment round's migration and a cross-server rename — Recover(), and
// report recovery wall time percentiles plus WAL replay volume against the
// subtree count as JSON — the CI artifact (BENCH_recovery.json) that
// tracks recovery cost over time.
//
//   example_crash_recovery [output.json] [reps]
//
// Every recovery is audited with d2fsck; exit code is nonzero if any
// audit fails, so the CI step doubles as a correctness gate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <unordered_map>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/metrics/metrics.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

using Clock = std::chrono::steady_clock;

MdsId VictimWithSubtrees(const FunctionalCluster& cluster) {
  const auto owners = cluster.scheme().subtree_owners();
  for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k) {
    std::size_t held = 0;
    for (const MdsId o : owners) held += (o == k);
    if (held > 0) return k;
  }
  return -1;
}

enum class Driver { kRound, kGlUpdate, kRename };

/// One (site, driver) pair the smoke trips, in run order: every
/// transaction site through the adjustment round, the GL site through a
/// GL update, then every transaction site through a rename.
struct Drive {
  CrashSite site;
  Driver driver;
};
constexpr Drive kDrives[] = {
    {CrashSite::kAfterIntent, Driver::kRound},
    {CrashSite::kAfterPrepare, Driver::kRound},
    {CrashSite::kAfterApply, Driver::kRound},
    {CrashSite::kAfterCommit, Driver::kRound},
    {CrashSite::kAfterGlBump, Driver::kGlUpdate},
    {CrashSite::kAfterIntent, Driver::kRename},
    {CrashSite::kAfterPrepare, Driver::kRename},
    {CrashSite::kAfterApply, Driver::kRename},
    {CrashSite::kAfterCommit, Driver::kRename},
};
constexpr std::size_t kDriveCount = std::size(kDrives);

const char* DriverName(Driver driver) {
  switch (driver) {
    case Driver::kRound:
      return "round";
    case Driver::kGlUpdate:
      return "gl-update";
    case Driver::kRename:
      return "rename";
  }
  return "?";
}

struct SiteTally {
  std::size_t recoveries = 0;
  std::size_t rolled_forward = 0;
  std::size_t rolled_back = 0;
  std::size_t torn_tails = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  const std::size_t reps =
      argc > 2 ? static_cast<std::size_t>(std::strtoul(argv[2], nullptr, 10))
               : 3;
  const std::size_t mds_count = 4;

  const Workload w = GenerateWorkload(DtrProfile(0.05));
  LatencyHistogram recovery_wall_us;
  SiteTally per_drive[kDriveCount];
  std::size_t replayed_min = SIZE_MAX, replayed_max = 0, replayed_sum = 0;
  std::size_t recoveries = 0;
  std::size_t subtree_count = 0;
  bool all_clean = true;
  std::uint64_t mtime = 0;

  for (std::size_t rep = 0; rep < reps; ++rep) {
    FunctionalCluster cluster(w.tree, mds_count);
    // Current component name of every subtree root a rename touched (the
    // cluster's tree copy drifts from `w.tree` as renames commit).
    std::unordered_map<NodeId, std::string> renamed_roots;
    subtree_count = cluster.scheme().layers().subtrees.size();
    for (NodeId id = 0; id < w.tree.size(); id += 3)
      cluster.Stat(w.tree.PathOf(id));

    for (std::size_t d = 0; d < kDriveCount; ++d) {
      const CrashSite site = kDrives[d].site;
      const Driver driver = kDrives[d].driver;
      for (const bool torn : {false, true}) {
        MdsId victim = -1;
        NodeId rn_root = kInvalidNode;
        std::string rn_prefix, rn_name;
        if (driver == Driver::kRound) {
          victim = VictimWithSubtrees(cluster);
          if (victim < 0) continue;
        }
        if (driver == Driver::kRename) {
          // The rename driver: re-home some subtree whose owner is alive
          // to another alive server. Subtree-root
          // component names drift as renames commit, so resolve through
          // the tracker; the GL prefix above a root never changes here.
          const auto owners = cluster.scheme().subtree_owners();
          const auto& subtrees = cluster.scheme().layers().subtrees;
          std::string path;
          MdsId src = -1;
          for (std::size_t i = 0; i < subtrees.size() && i < owners.size();
               ++i) {
            if (!cluster.IsServerAlive(owners[i])) continue;
            const std::string orig = w.tree.PathOf(subtrees[i].root);
            rn_root = subtrees[i].root;
            rn_prefix = orig.substr(0, orig.find_last_of('/') + 1);
            const auto it = renamed_roots.find(rn_root);
            path = it == renamed_roots.end() ? orig : rn_prefix + it->second;
            src = owners[i];
            break;
          }
          MdsId dst = -1;
          for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
            if (k != src && cluster.IsServerAlive(k)) {
              dst = k;
              break;
            }
          if (path.empty() || dst < 0) continue;
          rn_name = "bench_rn_" + std::to_string(++mtime);
          cluster.ArmCrash(site, torn);
          cluster.RenameTo(path, rn_name, dst);
        } else {
          cluster.ArmCrash(site, torn);
          if (driver == Driver::kGlUpdate) {
            cluster.Update("/", ++mtime);
          } else {
            cluster.SetHeartbeatSuppressed(victim, true);
            cluster.RunAdjustmentRound();
          }
        }
        if (!cluster.crashed()) {
          std::fprintf(stderr, "site %s (%s) never tripped\n",
                       CrashSiteName(site), DriverName(driver));
          all_clean = false;
          continue;
        }

        const auto t0 = Clock::now();
        const auto recovery = cluster.Recover();
        const double wall_us =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count()) /
            1e3;
        if (victim >= 0) cluster.SetHeartbeatSuppressed(victim, false);

        recovery_wall_us.Record(wall_us);
        ++recoveries;
        SiteTally& tally = per_drive[d];
        ++tally.recoveries;
        tally.rolled_forward += recovery.txns_rolled_forward;
        tally.rolled_back += recovery.txns_rolled_back;
        tally.torn_tails += recovery.torn_tail_detected ? 1 : 0;
        if (rn_root != kInvalidNode &&
            cluster.Stat(rn_prefix + rn_name).status == MdsStatus::kOk) {
          renamed_roots[rn_root] = rn_name;  // rolled forward or committed
        }
        replayed_min = std::min(replayed_min, recovery.wal_records_replayed);
        replayed_max = std::max(replayed_max, recovery.wal_records_replayed);
        replayed_sum += recovery.wal_records_replayed;

        const FsckReport fsck = FsckCluster(cluster);
        if (!fsck.clean()) {
          std::fprintf(stderr, "d2fsck UNCLEAN after %s (%s)%s:\n%s",
                       CrashSiteName(site), DriverName(driver),
                       torn ? " (torn)" : "",
                       FormatFsckReport(fsck).c_str());
          all_clean = false;
        }
        cluster.RunAdjustmentRound();  // stabilize before the next site
      }
    }
  }

  std::string json = "{\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"bench\": \"crash_recovery\",\n"
      "  \"mds\": %zu, \"tree_nodes\": %zu, \"subtrees\": %zu,\n"
      "  \"recoveries\": %zu,\n"
      "  \"recovery_wall_us\": {\"mean\": %.2f, \"p50\": %.2f, "
      "\"p99\": %.2f, \"max\": %.2f},\n"
      "  \"wal_records_replayed\": {\"min\": %zu, \"mean\": %.1f, "
      "\"max\": %zu},\n"
      "  \"fsck_clean\": %s,\n",
      mds_count, w.tree.size(), subtree_count, recoveries,
      recovery_wall_us.mean(), recovery_wall_us.Quantile(0.5),
      recovery_wall_us.Quantile(0.99), recovery_wall_us.max(),
      recoveries > 0 ? replayed_min : 0,
      recoveries > 0 ? static_cast<double>(replayed_sum) /
                           static_cast<double>(recoveries)
                     : 0.0,
      replayed_max, all_clean ? "true" : "false");
  json += buf;
  json += "  \"per_site\": [\n";
  for (std::size_t d = 0; d < kDriveCount; ++d) {
    const SiteTally& tally = per_drive[d];
    std::snprintf(buf, sizeof(buf),
                  "    {\"site\": \"%s/%s\", \"recoveries\": %zu, "
                  "\"rolled_forward\": %zu, \"rolled_back\": %zu, "
                  "\"torn_tails\": %zu}%s\n",
                  CrashSiteName(kDrives[d].site),
                  DriverName(kDrives[d].driver), tally.recoveries,
                  tally.rolled_forward, tally.rolled_back, tally.torn_tails,
                  d + 1 == kDriveCount ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 2;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);

  std::printf("%s", json.c_str());
  std::printf("wrote %s; %zu recoveries, d2fsck %s\n", out_path, recoveries,
              all_clean ? "CLEAN" : "UNCLEAN");
  return all_clean && recoveries > 0 ? 0 : 1;
}
