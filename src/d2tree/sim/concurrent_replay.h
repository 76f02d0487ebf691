// Concurrent trace-replay harness: real threads against the functional
// cluster.
//
// The discrete-event simulator (cluster_sim.h) validates the paper's
// claims in single-threaded virtual time; this harness validates them
// under actual contention. N client threads replay a Zipf-skewed workload
// (Stat / StatVia / Update mix) against a live FunctionalCluster while a
// background thread periodically runs RunAdjustmentRound(), so migrations
// race with reads and global-layer writes — the execution shape the
// sanitizer presets (-DD2TREE_SANITIZE=thread) are wired for. Per-thread
// latency histograms, forward counts and GL-lock contention are collected
// through the metrics module, and the run ends with the cluster's
// consistency audit.
//
// A run may additionally carry a FaultSchedule: a FaultInjector then
// crashes, revives and adds servers (and toggles heartbeats) at fixed
// aggregate op counts while the client threads replay, so failover and
// crash recovery race live traffic. When faults fired, the harness runs
// one extra adjustment round after the clients finish — the recovery
// round that re-places any subtree still orphaned by a late kill —
// before the final audit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "d2tree/mds/cluster.h"
#include "d2tree/metrics/metrics.h"
#include "d2tree/sim/fault_injector.h"
#include "d2tree/trace/trace.h"

namespace d2tree {

struct ConcurrentReplayConfig {
  /// Client threads replaying operations.
  std::size_t thread_count = 4;
  /// Operations each thread issues (fixed, for deterministic op totals).
  std::size_t ops_per_thread = 10'000;
  /// Zipf exponent over target nodes (0 = uniform); ignored when an
  /// explicit trace is supplied to RunConcurrentReplay.
  double zipf_theta = 0.8;
  /// Fraction of operations that mutate (Update); the rest are reads.
  double update_fraction = 0.10;
  /// Fraction of reads issued through StatVia at a random server,
  /// modelling stale client routing knowledge (exercises forwarding).
  double stale_entry_fraction = 0.05;
  /// Minimum adjustment rounds the background thread runs. While client
  /// threads are still replaying it keeps going past this, one round per
  /// interval, so migrations overlap the whole run.
  std::size_t min_adjustment_rounds = 4;
  /// Sleep between adjustment rounds, microseconds (0 = back-to-back,
  /// apart from the shortest sleep that keeps clients from starving).
  std::size_t adjustment_interval_us = 1000;
  std::uint64_t seed = 0xD27EE;
  /// Faults injected while the clients replay (empty = fault-free run).
  /// Events fire on the aggregate client op counter, so a schedule is
  /// reproducible from its seed regardless of thread interleaving.
  FaultSchedule fault_schedule;
};

/// What one client thread observed (index = thread id).
struct ThreadReplayStats {
  std::size_t ops = 0;
  std::size_t ok = 0;
  std::size_t forwarded = 0;    // served with hops > 1
  std::size_t failed = 0;       // any status other than kOk
  std::size_t unavailable = 0;  // kUnavailable (dead-server windows)
  LatencyHistogram latency;     // per-op wall latency, µs
  /// Per-op *simulated* network latency (sum of the op's message legs),
  /// µs — all zero on InProcessTransport.
  LatencyHistogram sim_latency;
  /// sim_latency split by how the op routed (index = OpClass).
  std::array<LatencyHistogram, kOpClassCount> class_latency;
  std::array<std::size_t, kOpClassCount> class_ops{};
};

struct ConcurrentReplayReport {
  std::vector<ThreadReplayStats> per_thread;

  // Aggregates over all client threads.
  std::size_t total_ops = 0;
  std::size_t total_ok = 0;
  std::size_t total_forwarded = 0;
  std::size_t total_failed = 0;
  LatencyHistogram latency;  // merged per-thread histograms
  LatencyHistogram sim_latency;
  std::array<LatencyHistogram, kOpClassCount> class_latency;
  std::array<std::size_t, kOpClassCount> class_ops{};
  double wall_seconds = 0.0;
  double throughput_ops_per_sec = 0.0;

  // Cluster-side counters, deltas over the run.
  std::uint64_t forwards = 0;
  std::uint64_t gl_updates = 0;
  double gl_lock_wait_seconds = 0.0;

  // Message-layer counters, deltas over the run.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t heartbeats_lost = 0;

  // Background adjustment activity.
  std::size_t adjustment_rounds_run = 0;
  std::size_t migrated_records = 0;

  // Fault-injection activity (all zero on a fault-free run).
  std::size_t total_unavailable = 0;      // ops lost to dead-server windows
  std::uint64_t failover_redirects = 0;   // delta of the cluster counter
  std::uint64_t recovered_records = 0;    // delta of the cluster counter
  std::size_t faults_applied = 0;         // events the cluster accepted
  std::size_t faults_skipped = 0;         // events it rejected
  std::size_t final_mds_count = 0;        // membership after the run
  std::size_t final_alive_count = 0;

  // Control-plane retry layer, deltas over the run (net/retry.h).
  std::uint64_t retries = 0;             // re-sends beyond first attempts
  std::uint64_t deadline_exceeded = 0;   // ops that ran out their deadline
  // Durability layer, deltas over the run (DESIGN.md §7).
  std::uint64_t crashes_injected = 0;        // armed crashes that tripped
  std::uint64_t recoveries_completed = 0;    // Recover() calls that finished
  std::uint64_t duplicate_pulls_dropped = 0; // receiver dedup on txn id
  /// True when the service was still down at the end of the replay (a
  /// kCrashAtSite with no later kRecover): the harness runs Recover()
  /// itself before the audit, so `consistent` always reflects a live tree.
  bool recovered_before_audit = false;
  std::size_t wal_records_replayed = 0;  // from that recovery, else 0

  // Final audit.
  bool consistent = false;
  std::string consistency_error;
};

/// Replays a synthetic Zipf workload over every node of `tree` (the
/// namespace the cluster was built from). Deterministic op sequence per
/// thread in config.seed; timing (and therefore histograms and migration
/// interleavings) is real.
ConcurrentReplayReport RunConcurrentReplay(FunctionalCluster& cluster,
                                           const NamespaceTree& tree,
                                           const ConcurrentReplayConfig& config);

/// Same harness, but threads replay disjoint contiguous slices of an
/// explicit trace (records are resolved to paths via `tree`) instead of
/// sampling a Zipf distribution. kUpdate records go through Update;
/// reads obey config.stale_entry_fraction.
ConcurrentReplayReport ReplayTraceConcurrently(
    FunctionalCluster& cluster, const NamespaceTree& tree, const Trace& trace,
    const ConcurrentReplayConfig& config);

}  // namespace d2tree
