// d2fsck CLI — audit a saved write-ahead log, or demo the full
// crash → recover → audit loop on a synthetic cluster.
//
//   d2fsck <wal-file>
//     Offline mode: load a Monitor journal saved with Wal::SaveTo (or by
//     this tool's demo mode) and run the journal audit: framing/CRC
//     validity, torn-tail detection, and the subtree-transfer state
//     machine — no txn both committed and aborted, no COMMIT without its
//     PREPARE, INTENT ids strictly monotone, rename name pairs whole.
//     Exit 0 when clean, 1 otherwise.
//
//   d2fsck --store <dir>
//     Offline store mode: audit one LSM store-engine directory (as left
//     behind by `mdsd --data-dir` or the store bench) — MANIFEST framing
//     and table list, every sealed table's footer/CRCs/ordering/bloom,
//     stray or missing .sst files, and a frame-by-frame decode of the
//     engine WAL. A torn engine-WAL tail is reported (crash footprint),
//     a torn MANIFEST is flagged. Exit 0 when clean, 1 otherwise.
//
//   d2fsck --demo [site 0..4] [torn 0|1] [wal-out]
//     Online mode: build a small cluster, drive traffic, then arm a crash
//     at the named site (durability/crash_point.h; default kAfterPrepare),
//     optionally tearing the last WAL record, and trip it — a transaction
//     site (0..3) once through a migration (adjustment round) and once
//     through a cross-server rename, the GL site (4) through a GL update —
//     recovering and auditing after each trip. With [wal-out] the final
//     journal is saved for offline runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

int AuditFile(const char* path) {
  Wal wal;
  if (!wal.LoadFrom(path)) {
    std::fprintf(stderr, "d2fsck: cannot read %s\n", path);
    return 2;
  }
  const FsckReport report = FsckJournal(wal);
  std::fputs(FormatFsckReport(report).c_str(), stdout);
  return report.clean() ? 0 : 1;
}

int AuditStoreDir(const char* dir) {
  const FsckReport report = FsckStoreDir(dir);
  std::fputs(FormatFsckReport(report).c_str(), stdout);
  return report.clean() ? 0 : 1;
}

/// Recovers `cluster` after one armed drive and audits it; false when
/// the site never tripped or the recovered cluster is not clean.
bool RecoverAndAudit(FunctionalCluster& cluster, const char* driver) {
  std::printf("%s: crashed: %s\n", driver, cluster.crashed() ? "yes" : "no");
  const bool tripped = cluster.crashed();
  const auto recovery = cluster.Recover();
  std::printf(
      "%s: recovered: %zu records replayed%s, %zu rolled forward, %zu "
      "rolled back, %zu records rematerialized, GL v%llu\n",
      driver, recovery.wal_records_replayed,
      recovery.torn_tail_detected ? " (torn tail truncated)" : "",
      recovery.txns_rolled_forward, recovery.txns_rolled_back,
      recovery.records_rematerialized,
      static_cast<unsigned long long>(recovery.gl_version));
  const FsckReport report = FsckCluster(cluster);
  std::fputs(FormatFsckReport(report).c_str(), stdout);
  return tripped && report.clean();
}

int Demo(int argc, char** argv) {
  const int site_index = argc > 2 ? std::atoi(argv[2]) : 1;
  const bool torn = argc > 3 && std::atoi(argv[3]) != 0;
  const char* wal_out = argc > 4 ? argv[4] : nullptr;
  if (site_index < 0 ||
      static_cast<std::size_t>(site_index) >= kCrashSiteCount) {
    std::fprintf(stderr, "d2fsck: site must be 0..%zu\n", kCrashSiteCount - 1);
    return 2;
  }
  const auto site = static_cast<CrashSite>(site_index);

  const Workload w = GenerateWorkload(DtrProfile(0.05));
  FunctionalCluster cluster(w.tree, 4);
  // Skew the popularity so the adjustment round actually migrates.
  const auto& ops = w.trace.records();
  for (std::size_t i = 0; i < ops.size() && i < 4000; ++i)
    cluster.Stat(w.tree.PathOf(ops[i].node));

  std::printf("demo: arming crash at %s%s\n", CrashSiteName(site),
              torn ? " + torn tail" : "");
  bool clean = true;
  if (site == CrashSite::kAfterGlBump) {
    cluster.ArmCrash(site, torn);
    cluster.Update("/", 42);  // the GL-update site fires on a GL write
    clean = RecoverAndAudit(cluster, "gl-update");
  } else {
    // Kill a server so the round must migrate its subtrees through the
    // pending pool — guaranteeing the armed site is reached.
    cluster.ArmCrash(site, torn);
    cluster.KillServer(3);
    cluster.RunAdjustmentRound();
    clean = RecoverAndAudit(cluster, "migration");

    // The same site through the rename driver: re-home a local-layer
    // subtree root with a live owner to another live server.
    const auto owners = cluster.scheme().subtree_owners();
    const auto& subtrees = cluster.scheme().layers().subtrees;
    std::size_t pick = subtrees.size();
    for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i)
      if (cluster.IsServerAlive(owners[i])) {
        pick = i;
        break;
      }
    MdsId dest = -1;
    for (MdsId k = 0; pick < subtrees.size() &&
                      k < static_cast<MdsId>(cluster.mds_count());
         ++k)
      if (k != owners[pick] && cluster.IsServerAlive(k)) {
        dest = k;
        break;
      }
    if (dest < 0) {
      std::fprintf(stderr, "d2fsck: no renameable subtree in the demo tree\n");
      return 2;
    }
    const std::string path = w.tree.PathOf(subtrees[pick].root);
    cluster.ArmCrash(site, torn);
    const auto result = cluster.RenameTo(path, "renamed_demo", dest);
    std::printf("rename %s → renamed_demo on MDS %d (txn %llu)\n",
                path.c_str(), dest,
                static_cast<unsigned long long>(result.rename_id));
    clean = RecoverAndAudit(cluster, "rename") && clean;
  }
  if (wal_out != nullptr) {
    if (cluster.monitor_wal().SaveTo(wal_out))
      std::printf("journal saved to %s\n", wal_out);
    else
      std::fprintf(stderr, "d2fsck: cannot write %s\n", wal_out);
  }
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) return Demo(argc, argv);
  if (argc == 3 && std::strcmp(argv[1], "--store") == 0)
    return AuditStoreDir(argv[2]);
  if (argc == 2) return AuditFile(argv[1]);
  std::fprintf(stderr,
               "usage: d2fsck <wal-file>\n"
               "       d2fsck --store <store-dir>\n"
               "       d2fsck --demo [site 0..%zu] [torn 0|1] [wal-out]\n",
               kCrashSiteCount - 1);
  return 2;
}
