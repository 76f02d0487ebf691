// Rename-cost ablation (the Sec. II claim): "the overhead of rehashing
// metadata when renaming an upper directory … is also considerable" for
// hash-based mapping, while subtree schemes keep placement keyed on
// structure, not pathnames.
//
// Two halves:
//   1. Placement ablation per scheme — rename a deep and a top-level
//      directory, re-derive every scheme's placement, count records that
//      changed owner. D2-Tree must move zero.
//   2. The transactional path (DESIGN.md §7) — drive the journaled
//      rename transaction on a live FunctionalCluster, in place and
//      cross-server, and report wall/simulated latency and the records a
//      cross-server re-home actually transfers. This is the half the
//      committed BENCH_trajectory.json ratchets.
//
//   ablation_rename [output.json]
//
// Exit code is nonzero if any transaction fails or the closing d2fsck
// audit is unclean, so the CI step doubles as a correctness gate.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "d2tree/baselines/registry.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/metrics/metrics.h"
#include "d2tree/net/simnet.h"
#include "d2tree/partition/partition.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

using Clock = std::chrono::steady_clock;

std::size_t RenameCost(const std::string& scheme_id, const Workload& base,
                       NodeId victim, std::size_t m) {
  const MdsCluster cluster = MdsCluster::Homogeneous(m);
  // Placement before the rename…
  Workload w = base;  // private copy: Rename mutates the tree
  const Assignment before = MakeScheme(scheme_id)->Partition(w.tree, cluster);
  // …the rename… (metadata only; structure and popularity untouched)
  w.tree.Rename(victim, "renamed-directory");
  // …and the placement every scheme derives afterwards.
  const Assignment after = MakeScheme(scheme_id)->Partition(w.tree, cluster);
  return CountMovedNodes(before, after);
}

struct TxnStats {
  LatencyHistogram wall_us;
  LatencyHistogram sim_us;
  std::size_t count = 0;
  std::size_t failed = 0;
  std::size_t records_moved = 0;
};

void PrintTxnRow(const char* label, const TxnStats& s) {
  std::printf("%-12s %6zu %7zu %12.2f %12.2f %12.2f %14zu\n", label, s.count,
              s.failed, s.wall_us.mean(), s.wall_us.Quantile(0.99),
              s.sim_us.mean(), s.records_moved);
}

void AppendTxn(std::string& json, const char* key, const TxnStats& s,
               bool last) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "    \"%s\": {\"count\": %zu, \"failed\": %zu, "
      "\"wall_us_mean\": %.2f, \"wall_us_p99\": %.2f, "
      "\"sim_us_mean\": %.2f, \"records_moved\": %zu}%s\n",
      key, s.count, s.failed, s.wall_us.mean(), s.wall_us.Quantile(0.99),
      s.sim_us.mean(), s.records_moved, last ? "" : ",");
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : nullptr;
  bench::PrintHeader("Ablation — rename cost per scheme (Sec. II claim)",
                     "Sec. II discussion");
  const Workload w = GenerateWorkload(DtrProfile(bench::BenchScale()));
  const std::size_t m = 16;

  // Victim (a): the biggest top-level directory; (b): one of its deep
  // descendants with a few hundred nodes.
  NodeId top = kInvalidNode;
  std::size_t top_size = 0;
  for (NodeId c : w.tree.node(w.tree.root()).children) {
    const std::size_t s = w.tree.SubtreeSize(c);
    if (s > top_size) {
      top = c;
      top_size = s;
    }
  }
  NodeId deep = kInvalidNode;
  std::size_t deep_size = 0;
  w.tree.VisitSubtree(top, [&](NodeId v) {
    if (w.tree.node(v).depth >= 4 && w.tree.node(v).is_directory()) {
      const std::size_t s = w.tree.SubtreeSize(v);
      if (s > deep_size && s < top_size / 2) {
        deep = v;
        deep_size = s;
      }
    }
  });

  std::printf("victims: top-level %s (%zu nodes), deep %s (%zu nodes); M=%zu\n\n",
              w.tree.PathOf(top).c_str(), top_size,
              w.tree.PathOf(deep).c_str(), deep_size, m);
  std::printf("%-16s %22s %22s\n", "scheme", "deep rename (moved)",
              "top-level rename (moved)");
  struct SchemeRow {
    std::string id;
    std::size_t deep_moved;
    std::size_t top_moved;
  };
  std::vector<SchemeRow> scheme_rows;
  for (const auto& id : AllSchemeIds()) {
    const SchemeRow row{id, RenameCost(id, w, deep, m),
                        RenameCost(id, w, top, m)};
    std::printf("%-16s %22zu %22zu\n", row.id.c_str(), row.deep_moved,
                row.top_moved);
    scheme_rows.push_back(row);
  }
  std::printf(
      "\nReading: pathname hashing (hash; static/dynamic near the cut) "
      "re-homes the\nrenamed subtree — D2-Tree and the structural "
      "linearizations move nothing.\n(Real DROP/AngleCut key on pathnames "
      "too; this implementation keys on\nstructure, so their rename cost is "
      "a lower bound.)\n");

  // ---- Transactional path: the journaled rename state machine against a
  // live cluster. Every local-layer subtree root is renamed in place,
  // then re-homed cross-server to the next alive MDS.
  const std::size_t mds_count = 4;
  auto net = std::make_shared<SimNetTransport>();
  FunctionalCluster cluster(w.tree, mds_count, {}, net);
  for (NodeId id = 0; id < w.tree.size(); id += 3)
    cluster.Stat(w.tree.PathOf(id));

  const auto& subtrees = cluster.scheme().layers().subtrees;
  const std::size_t rename_ops = subtrees.size();
  std::vector<std::string> prefix(rename_ops), current(rename_ops);
  for (std::size_t i = 0; i < rename_ops; ++i) {
    const std::string path = w.tree.PathOf(subtrees[i].root);
    prefix[i] = path.substr(0, path.find_last_of('/') + 1);
    current[i] = path.substr(path.find_last_of('/') + 1);
  }

  TxnStats in_place, cross;
  for (std::size_t i = 0; i < rename_ops; ++i) {
    const std::string next = "ip_" + std::to_string(i);
    const auto t0 = Clock::now();
    const auto r = cluster.Rename(prefix[i] + current[i], next);
    const double us =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0)
                                .count()) /
        1e3;
    ++in_place.count;
    if (r.status != MdsStatus::kOk) {
      ++in_place.failed;
      continue;
    }
    current[i] = next;
    in_place.wall_us.Record(us);
    in_place.sim_us.Record(static_cast<double>(r.sim_latency_us));
  }
  for (std::size_t i = 0; i < rename_ops; ++i) {
    const MdsId owner = cluster.scheme().subtree_owners()[i];
    MdsId dst = -1;
    for (MdsId step = 1; step < static_cast<MdsId>(cluster.mds_count());
         ++step) {
      const MdsId cand =
          (owner + step) % static_cast<MdsId>(cluster.mds_count());
      if (cluster.IsServerAlive(cand)) {
        dst = cand;
        break;
      }
    }
    if (dst < 0) continue;
    const std::string next = "xs_" + std::to_string(i);
    const auto t0 = Clock::now();
    const auto r = cluster.RenameTo(prefix[i] + current[i], next, dst);
    const double us =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0)
                                .count()) /
        1e3;
    ++cross.count;
    if (r.status != MdsStatus::kOk) {
      ++cross.failed;
      continue;
    }
    current[i] = next;
    cross.wall_us.Record(us);
    cross.sim_us.Record(static_cast<double>(r.sim_latency_us));
    cross.records_moved += r.records_moved;
  }

  const FsckReport fsck = FsckCluster(cluster);
  std::string consistency_error;
  const bool consistent = cluster.CheckConsistency(&consistency_error) &&
                          cluster.CheckPathIntegrity(&consistency_error) == 0;

  std::printf(
      "\nTransactional rename (journaled state machine, %zu subtrees, "
      "M=%zu):\n",
      rename_ops, mds_count);
  std::printf("%-12s %6s %7s %12s %12s %12s %14s\n", "mode", "ops", "failed",
              "wall mean us", "wall p99 us", "sim mean us", "records moved");
  PrintTxnRow("in-place", in_place);
  PrintTxnRow("cross-server", cross);
  std::printf("d2fsck after the storm: %s; audit: %s%s\n",
              fsck.clean() ? "CLEAN" : "UNCLEAN",
              consistent ? "CLEAN" : "BROKEN ",
              consistent ? "" : consistency_error.c_str());

  const bool ok = fsck.clean() && consistent && in_place.failed == 0 &&
                  cross.failed == 0 && cross.records_moved > 0;
  if (out_path != nullptr) {
    std::string json = "{\n  \"bench\": \"ablation_rename\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"tree_nodes\": %zu, \"subtrees\": %zu, \"mds\": %zu,\n",
                  w.tree.size(), rename_ops, mds_count);
    json += buf;
    json += "  \"schemes\": [\n";
    for (std::size_t i = 0; i < scheme_rows.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "    {\"scheme\": \"%s\", \"deep_moved\": %zu, "
                    "\"top_moved\": %zu}%s\n",
                    scheme_rows[i].id.c_str(), scheme_rows[i].deep_moved,
                    scheme_rows[i].top_moved,
                    i + 1 == scheme_rows.size() ? "" : ",");
      json += buf;
    }
    json += "  ],\n  \"txn\": {\n";
    AppendTxn(json, "in_place", in_place, false);
    AppendTxn(json, "cross_server", cross, false);
    std::snprintf(buf, sizeof(buf),
                  "    \"renames_committed\": %lu, \"fsck_clean\": %s\n",
                  static_cast<unsigned long>(cluster.renames_committed()),
                  ok ? "true" : "false");
    json += buf;
    json += "  }\n}\n";
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  }
  return ok ? 0 : 1;
}
