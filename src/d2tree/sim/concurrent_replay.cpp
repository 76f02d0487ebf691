#include "d2tree/sim/concurrent_replay.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "d2tree/common/zipf.h"

namespace d2tree {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - t0)
                 .count()) /
         1e3;
}

void IssueOp(FunctionalCluster& cluster, const std::string& path,
             bool is_update, MdsId via, std::uint64_t mtime,
             ThreadReplayStats& stats) {
  const auto t0 = Clock::now();
  FunctionalCluster::ClientResult r;
  if (is_update) {
    r = cluster.Update(path, mtime);
  } else if (via >= 0) {
    r = cluster.StatVia(path, via);
  } else {
    r = cluster.Stat(path);
  }
  stats.latency.Record(MicrosSince(t0));
  stats.sim_latency.Record(r.sim_latency_us);
  const auto cls = static_cast<std::size_t>(r.op_class);
  stats.class_latency[cls].Record(r.sim_latency_us);
  ++stats.class_ops[cls];
  ++stats.ops;
  if (r.status == MdsStatus::kOk) {
    ++stats.ok;
  } else {
    ++stats.failed;
    if (r.status == MdsStatus::kUnavailable) ++stats.unavailable;
  }
  if (r.hops > 1) ++stats.forwarded;
}

/// Runs `body(thread_index, stats)` on `thread_count` barrier-started
/// threads with the background adjustment thread interleaved, then
/// aggregates stats, counter deltas and the final audit into the report.
/// `injector` (may be null) is the fault layer; the bodies drive it via
/// OnOp, and a run in which faults fired ends with one extra recovery
/// adjustment round before the audit.
ConcurrentReplayReport RunHarness(
    FunctionalCluster& cluster, const ConcurrentReplayConfig& config,
    FaultInjector* injector,
    const std::function<void(std::size_t, ThreadReplayStats&)>& body) {
  ConcurrentReplayReport report;
  report.per_thread.resize(config.thread_count);

  const std::uint64_t forwards_before = cluster.total_forwards();
  const std::uint64_t gl_updates_before = cluster.gl_updates();
  const double gl_wait_before = cluster.gl_lock_wait_seconds();
  const std::uint64_t redirects_before = cluster.failover_redirects();
  const std::uint64_t recovered_before = cluster.recovered_records();
  const std::uint64_t sent_before = cluster.transport().messages_sent();
  const std::uint64_t dropped_before = cluster.transport().messages_dropped();
  const std::uint64_t hb_lost_before = cluster.heartbeats_lost();
  const std::uint64_t retries_before = cluster.retries_total();
  const std::uint64_t deadline_before = cluster.deadline_exceeded_total();
  const std::uint64_t crashes_before = cluster.crashes_injected();
  const std::uint64_t recoveries_before = cluster.recoveries_completed();
  const std::uint64_t dup_pulls_before = cluster.duplicate_pulls_dropped();

  // +1 worker slot for the adjuster, +1 for the timing thread (main).
  std::barrier start(static_cast<std::ptrdiff_t>(config.thread_count) + 2);
  std::atomic<bool> clients_done{false};
  std::atomic<std::size_t> rounds_run{0};
  std::atomic<std::size_t> migrated{0};

  std::thread adjuster([&] {
    start.arrive_and_wait();
    // Keep migrating while clients replay; always complete the configured
    // minimum so short runs still see churn.
    while (true) {
      if (config.adjustment_interval_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config.adjustment_interval_us));
      } else {
        // Back-to-back rounds still pause for the shortest sleep: the
        // cluster's mutexes are not fair, so a round that re-locks the
        // moment it unlocks can starve every client thread.
        std::this_thread::sleep_for(std::chrono::microseconds(1));
      }
      migrated.fetch_add(cluster.RunAdjustmentRound());
      const std::size_t done = rounds_run.fetch_add(1) + 1;
      if (clients_done.load() && done >= config.min_adjustment_rounds) break;
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(config.thread_count);
  for (std::size_t t = 0; t < config.thread_count; ++t) {
    clients.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t, report.per_thread[t]);
    });
  }

  start.arrive_and_wait();
  const auto t0 = Clock::now();
  for (auto& th : clients) th.join();
  report.wall_seconds = MicrosSince(t0) / 1e6;
  clients_done.store(true);
  adjuster.join();

  // A crash that tripped with no later kRecover in the schedule leaves the
  // service down; replay the WAL so the closing audit sees a live tree.
  if (cluster.crashed()) {
    const auto recovery = cluster.Recover();
    report.recovered_before_audit = true;
    report.wal_records_replayed = recovery.wal_records_replayed;
  }

  // Recovery round: a kill near the end of the replay may leave subtrees
  // orphaned with no adjustment round left to re-place them; with faults
  // in play the harness always closes with one.
  if (injector != nullptr && injector->fired() > 0) {
    migrated.fetch_add(cluster.RunAdjustmentRound());
    rounds_run.fetch_add(1);
  }

  for (const ThreadReplayStats& s : report.per_thread) {
    report.total_ops += s.ops;
    report.total_ok += s.ok;
    report.total_forwarded += s.forwarded;
    report.total_failed += s.failed;
    report.total_unavailable += s.unavailable;
    report.latency.Merge(s.latency);
    report.sim_latency.Merge(s.sim_latency);
    for (std::size_t c = 0; c < kOpClassCount; ++c) {
      report.class_latency[c].Merge(s.class_latency[c]);
      report.class_ops[c] += s.class_ops[c];
    }
  }
  report.throughput_ops_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.total_ops) / report.wall_seconds
          : 0.0;
  report.forwards = cluster.total_forwards() - forwards_before;
  report.gl_updates = cluster.gl_updates() - gl_updates_before;
  report.gl_lock_wait_seconds =
      cluster.gl_lock_wait_seconds() - gl_wait_before;
  report.adjustment_rounds_run = rounds_run.load();
  report.migrated_records = migrated.load();
  report.failover_redirects = cluster.failover_redirects() - redirects_before;
  report.recovered_records = cluster.recovered_records() - recovered_before;
  report.messages_sent = cluster.transport().messages_sent() - sent_before;
  report.messages_dropped =
      cluster.transport().messages_dropped() - dropped_before;
  report.heartbeats_lost = cluster.heartbeats_lost() - hb_lost_before;
  report.retries = cluster.retries_total() - retries_before;
  report.deadline_exceeded =
      cluster.deadline_exceeded_total() - deadline_before;
  report.crashes_injected = cluster.crashes_injected() - crashes_before;
  report.recoveries_completed =
      cluster.recoveries_completed() - recoveries_before;
  report.duplicate_pulls_dropped =
      cluster.duplicate_pulls_dropped() - dup_pulls_before;
  if (injector != nullptr) {
    report.faults_applied = injector->applied();
    report.faults_skipped = injector->skipped();
  }
  report.final_mds_count = cluster.mds_count();
  report.final_alive_count = cluster.alive_count();
  report.consistent = cluster.CheckConsistency(&report.consistency_error);
  return report;
}

std::vector<std::string> AllPaths(const NamespaceTree& tree) {
  std::vector<std::string> paths;
  paths.reserve(tree.size());
  for (NodeId id = 0; id < tree.size(); ++id) paths.push_back(tree.PathOf(id));
  return paths;
}

}  // namespace

ConcurrentReplayReport RunConcurrentReplay(
    FunctionalCluster& cluster, const NamespaceTree& tree,
    const ConcurrentReplayConfig& config) {
  const std::vector<std::string> paths = AllPaths(tree);
  const ZipfSampler zipf(paths.size(), config.zipf_theta);
  const std::size_t mds_count = cluster.mds_count();
  std::optional<FaultInjector> injector;
  if (!config.fault_schedule.empty())
    injector.emplace(cluster, config.fault_schedule);
  FaultInjector* inj = injector.has_value() ? &*injector : nullptr;

  return RunHarness(cluster, config, inj, [&, inj](std::size_t t,
                                                   ThreadReplayStats& stats) {
    // Per-thread deterministic op stream (timing is the only nondeterminism).
    std::uint64_t sm = config.seed + 0x9E3779B97F4A7C15ULL * (t + 1);
    Rng rng(SplitMix64(sm));
    for (std::size_t i = 0; i < config.ops_per_thread; ++i) {
      const std::string& path = paths[zipf.Sample(rng)];
      const bool is_update = rng.NextBool(config.update_fraction);
      MdsId via = -1;
      if (!is_update && rng.NextBool(config.stale_entry_fraction))
        via = static_cast<MdsId>(rng.NextBounded(mds_count));
      IssueOp(cluster, path, is_update, via, /*mtime=*/i, stats);
      if (inj != nullptr) inj->OnOp();
    }
  });
}

ConcurrentReplayReport ReplayTraceConcurrently(
    FunctionalCluster& cluster, const NamespaceTree& tree, const Trace& trace,
    const ConcurrentReplayConfig& config) {
  const std::vector<std::string> paths = AllPaths(tree);
  const auto& records = trace.records();
  const std::size_t per_thread =
      config.thread_count == 0 ? 0 : records.size() / config.thread_count;
  const std::size_t mds_count = cluster.mds_count();
  std::optional<FaultInjector> injector;
  if (!config.fault_schedule.empty())
    injector.emplace(cluster, config.fault_schedule);
  FaultInjector* inj = injector.has_value() ? &*injector : nullptr;

  return RunHarness(cluster, config, inj, [&, inj](std::size_t t,
                                                   ThreadReplayStats& stats) {
    std::uint64_t sm = config.seed + 0x9E3779B97F4A7C15ULL * (t + 1);
    Rng rng(SplitMix64(sm));
    const std::size_t begin = t * per_thread;
    const std::size_t end =
        t + 1 == config.thread_count ? records.size() : begin + per_thread;
    for (std::size_t i = begin; i < end; ++i) {
      const TraceRecord& rec = records[i];
      const bool is_update = rec.op == OpType::kUpdate;
      MdsId via = -1;
      if (!is_update && rng.NextBool(config.stale_entry_fraction))
        via = static_cast<MdsId>(rng.NextBounded(mds_count));
      IssueOp(cluster, paths[rec.node], is_update, via, /*mtime=*/i, stats);
      if (inj != nullptr) inj->OnOp();
    }
  });
}

}  // namespace d2tree
