// Message-layer tests: transport determinism, per-op jump/latency
// telemetry, network fault semantics (client⇄MDS drop windows, Monitor⇄MDS
// partitions) and their FaultSchedule plumbing.
//
// The twin-cluster tests exploit that FunctionalCluster is deterministic
// given the same construction + call sequence: two clusters built from the
// same tree answer identically unless the transport differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "d2tree/mds/cluster.h"
#include "d2tree/net/simnet.h"
#include "d2tree/sim/concurrent_replay.h"
#include "d2tree/sim/fault_injector.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

constexpr std::size_t kMds = 4;

Workload SmallWorkload() { return GenerateWorkload(DtrProfile(0.05)); }

/// An MDS that owns at least one local-layer subtree.
MdsId OwnerOfSomeSubtree(const FunctionalCluster& cluster) {
  for (MdsId o : cluster.scheme().subtree_owners())
    if (o >= 0) return o;
  return -1;
}

/// Path of a subtree root owned by `mds` ("" if none).
std::string SubtreePathOwnedBy(const FunctionalCluster& cluster,
                               const NamespaceTree& tree, MdsId mds) {
  const auto& subtrees = cluster.scheme().layers().subtrees;
  const auto& owners = cluster.scheme().subtree_owners();
  for (std::size_t i = 0; i < subtrees.size(); ++i)
    if (owners[i] == mds) return tree.PathOf(subtrees[i].root);
  return {};
}

// --- InProcessTransport: the message layer must not change semantics.

TEST(InProcessTransport, ZeroLatencyAlwaysDelivered) {
  InProcessTransport t;
  const Delivery d =
      t.Send(ClientAddress(), MdsAddress(2), {MsgType::kStatRequest});
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kNone);
  EXPECT_EQ(d.latency_us, 0.0);
  EXPECT_EQ(t.messages_sent(), 1u);
  EXPECT_EQ(t.messages_dropped(), 0u);
  EXPECT_EQ(t.total_latency_us(), 0.0);
}

TEST(InProcessTransport, RefusesNetworkFaults) {
  const Workload w = SmallWorkload();
  FunctionalCluster cluster(w.tree, kMds);  // default transport
  EXPECT_FALSE(cluster.SetClientLinkDrop(1, 0.5));
  EXPECT_FALSE(cluster.SetMonitorPartition(1, true));
}

TEST(ClientResult, InProcessOpsPayNoSimulatedLatency) {
  const Workload w = SmallWorkload();
  FunctionalCluster cluster(w.tree, kMds);
  for (NodeId id = 0; id < w.tree.size(); id += 7) {
    const auto r = cluster.Stat(w.tree.PathOf(id));
    EXPECT_EQ(r.status, MdsStatus::kOk);
    EXPECT_EQ(r.sim_latency_us, 0.0);
  }
  EXPECT_EQ(cluster.transport().total_latency_us(), 0.0);
  EXPECT_GT(cluster.transport().messages_sent(), 0u);
}

// The paper's Def. 1 bound, now directly assertable per op: a fresh local
// index resolves every access with zero jumps, and even a deliberately
// wrong entry server forwards at most once.
TEST(ClientResult, JumpCountRespectsOneJumpBound) {
  const Workload w = SmallWorkload();
  FunctionalCluster cluster(w.tree, kMds);
  for (NodeId id = 0; id < w.tree.size(); ++id) {
    const auto direct = cluster.Stat(w.tree.PathOf(id));
    ASSERT_EQ(direct.status, MdsStatus::kOk);
    EXPECT_EQ(direct.jumps, 0) << "fresh index must resolve without jumps";
    const MdsId wrong = static_cast<MdsId>((direct.served_by + 1) % kMds);
    const auto via = cluster.StatVia(w.tree.PathOf(id), wrong);
    ASSERT_EQ(via.status, MdsStatus::kOk);
    EXPECT_LE(via.jumps, 1) << "D2-Tree bound: at most one forward";
    EXPECT_EQ(via.op_class == OpClass::kLl1Jump, via.jumps == 1);
  }
}

TEST(ClientResult, OpClassMatchesPlacement) {
  const Workload w = SmallWorkload();
  FunctionalCluster cluster(w.tree, kMds);
  const NodeId gl_node = cluster.scheme().split().global_layer.front();
  EXPECT_EQ(cluster.Stat(w.tree.PathOf(gl_node)).op_class, OpClass::kGlHit);
  EXPECT_EQ(cluster.Update(w.tree.PathOf(gl_node), 42).op_class,
            OpClass::kGlHit);

  const MdsId owner = OwnerOfSomeSubtree(cluster);
  ASSERT_GE(owner, 0);
  const std::string ll_path = SubtreePathOwnedBy(cluster, w.tree, owner);
  const auto direct = cluster.Stat(ll_path);
  EXPECT_EQ(direct.op_class, OpClass::kLl0Jump);
  const auto forwarded =
      cluster.StatVia(ll_path, static_cast<MdsId>((owner + 1) % kMds));
  EXPECT_EQ(forwarded.op_class, OpClass::kLl1Jump);
  EXPECT_EQ(forwarded.jumps, 1);
}

// --- SimNetTransport: deterministic latency under a fixed seed.

TEST(SimNetTransport, LatencyAtLeastBasePerLeg) {
  const Workload w = SmallWorkload();
  auto net = std::make_shared<SimNetTransport>();
  FunctionalCluster cluster(w.tree, kMds, {}, net);
  const auto r = cluster.Stat(w.tree.PathOf(0));
  ASSERT_EQ(r.status, MdsStatus::kOk);
  // Request + response legs, each at least the base propagation delay.
  EXPECT_GE(r.sim_latency_us, 2 * net->config().base_latency_us);
}

std::pair<std::vector<std::string>, double> RunSeededSequence(
    const Workload& w, std::uint64_t seed) {
  SimNetConfig net_cfg;
  net_cfg.seed = seed;
  net_cfg.drop_probability = 0.05;  // exercise the drop draw too
  auto net = std::make_shared<SimNetTransport>(net_cfg);
  FunctionalCluster cluster(w.tree, kMds, {}, net);
  net->set_record_log(true);
  for (NodeId id = 0; id < w.tree.size(); id += 5)
    cluster.Stat(w.tree.PathOf(id));
  cluster.Update(w.tree.PathOf(0), 7);
  cluster.StatVia(w.tree.PathOf(w.tree.size() - 1), 0);
  cluster.RunAdjustmentRound();
  return {net->TakeLog(), net->total_latency_us()};
}

TEST(SimNetTransport, SameSeedSameDeliveryOrderAndLatency) {
  const Workload w = SmallWorkload();
  const auto [log_a, latency_a] = RunSeededSequence(w, 0xABCDEF);
  const auto [log_b, latency_b] = RunSeededSequence(w, 0xABCDEF);
  ASSERT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);  // byte-identical delivery order
  EXPECT_EQ(latency_a, latency_b);

  const auto [log_c, latency_c] = RunSeededSequence(w, 0x123456);
  EXPECT_NE(log_a, log_c) << "different seed must reshuffle the wire";
  EXPECT_NE(latency_a, latency_c);
}

TEST(SimNetTransport, PartitionDefeatsReliableSend) {
  SimNetTransport net;
  ASSERT_TRUE(net.SetPartitioned(MonitorAddress(), MdsAddress(1), true));
  const Delivery d = net.SendReliable(MdsAddress(1), MonitorAddress(),
                                      {MsgType::kHeartbeat});
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kUndeliverable)
      << "a partitioned link is unreachable, not slow";
  EXPECT_GT(d.latency_us, 0.0);  // timeouts accrued
  ASSERT_TRUE(net.SetPartitioned(MonitorAddress(), MdsAddress(1), false));
  EXPECT_TRUE(
      net.Send(MdsAddress(1), MonitorAddress(), {MsgType::kHeartbeat})
          .delivered);
}

// CallAll's legs fan out concurrently, so the caller's clock is charged
// the slowest leg, not their sum.
TEST(SimNetTransport, CallAllChargesTheSlowestLeg) {
  SimNetConfig cfg;
  cfg.jitter_mean_us = 0.0;
  SimNetTransport net(cfg);
  const Address peers[] = {MdsAddress(1), MdsAddress(2), MdsAddress(3)};
  for (const Address& peer : peers)
    ASSERT_TRUE(net.Bind(peer, [](const Address&, const Message& req) {
      Message ack = req;
      ack.status = MdsStatus::kOk;
      return ack;
    }));
  std::vector<Message> acks;
  const double start = Transport::ThreadClockUs();
  const std::vector<Delivery> legs =
      net.CallAll(MdsAddress(0), peers, {MsgType::kGlCommit}, &acks);
  ASSERT_EQ(legs.size(), 3u);
  ASSERT_EQ(acks.size(), 3u);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    EXPECT_TRUE(legs[i].delivered) << "leg " << i;
    EXPECT_EQ(acks[i].type, MsgType::kGlCommit) << "leg " << i;
  }
  EXPECT_DOUBLE_EQ(Transport::ThreadClockUs() - start,
                   2 * cfg.base_latency_us);
}

// A posted message is resent while its legs are lost, at no cost to the
// caller's clock: on a link that drops half its messages nearly every post
// still arrives (one in two would without the resends).
TEST(SimNetTransport, PostResendsLostMessagesAtNoCost) {
  SimNetConfig cfg;
  cfg.jitter_mean_us = 0.0;
  SimNetTransport net(cfg);
  ASSERT_TRUE(net.SetLinkDropRate(MdsAddress(0), MonitorAddress(), 0.5));
  std::vector<bool> arrived(40, false);
  ASSERT_TRUE(net.Bind(MonitorAddress(),
                       [&](const Address&, const Message& req) {
                         arrived[req.target] = true;
                         return req;
                       }));
  const double start = Transport::ThreadClockUs();
  for (NodeId i = 0; i < arrived.size(); ++i)
    net.Post(MdsAddress(0), MonitorAddress(),
             {.type = MsgType::kGlCommit, .target = i});
  EXPECT_EQ(Transport::ThreadClockUs(), start);
  EXPECT_GE(std::count(arrived.begin(), arrived.end(), true), 34);
}

// --- Network faults against the live cluster.

// A lock round whose answers are all lost may still have been granted:
// the Monitor then handed out a version no replica applied, and every
// replica lags the master. The next sweep must rebuild them from the
// replicas' own data, not re-materialize the namespace over acked writes.
TEST(NetworkFaults, LostLockGrantsKeepAckedGlWrites) {
  const Workload w = SmallWorkload();
  SimNetConfig cfg;
  cfg.jitter_mean_us = 0.0;
  auto net = std::make_shared<SimNetTransport>(cfg);
  FunctionalCluster cluster(w.tree, kMds, {}, net);
  const auto& gl = cluster.scheme().split().global_layer;
  ASSERT_GE(gl.size(), 3u);
  ASSERT_EQ(cluster.Update(w.tree.PathOf(gl[1]), 4242).status,
            MdsStatus::kOk);

  for (MdsId k = 0; k < static_cast<MdsId>(kMds); ++k)
    ASSERT_TRUE(net->SetLinkDropRate(MonitorAddress(), MdsAddress(k), 0.3));
  int failed = 0;
  for (int i = 0; i < 60; ++i)
    failed += cluster.Update(w.tree.PathOf(gl[2]), 100 + i).status !=
              MdsStatus::kOk;
  ASSERT_GT(failed, 0) << "no lock round was lost";
  for (MdsId k = 0; k < static_cast<MdsId>(kMds); ++k)
    ASSERT_TRUE(net->SetLinkDropRate(MonitorAddress(), MdsAddress(k), 0.0));

  cluster.RunAdjustmentRound();
  std::string why;
  EXPECT_TRUE(cluster.CheckConsistency(&why)) << why;
  for (MdsId k = 0; k < static_cast<MdsId>(kMds); ++k)
    EXPECT_EQ(cluster.server(k).global_replica().Get(gl[1])->attrs.mtime,
              4242u)
        << "replica " << k << " lost an acked write";
}

// A fully lossy client⇄owner link: local-layer ops on that owner pay the
// bounded failover (one retry) and then fail; healing the link restores
// service. Other servers are untouched.
TEST(NetworkFaults, ClientLinkDropTriggersBoundedFailover) {
  const Workload w = SmallWorkload();
  auto net = std::make_shared<SimNetTransport>();
  FunctionalCluster cluster(w.tree, kMds, {}, net);
  const MdsId victim = OwnerOfSomeSubtree(cluster);
  ASSERT_GE(victim, 0);
  const std::string path = SubtreePathOwnedBy(cluster, w.tree, victim);
  ASSERT_EQ(cluster.Stat(path).status, MdsStatus::kOk);

  ASSERT_TRUE(cluster.SetClientLinkDrop(victim, 1.0));
  const std::uint64_t redirects_before = cluster.failover_redirects();
  const auto r = cluster.Stat(path);
  EXPECT_EQ(r.status, MdsStatus::kUnavailable);
  EXPECT_EQ(r.op_class, OpClass::kFailover);
  EXPECT_EQ(r.net_error, DeliveryError::kTimeout)
      << "a dropped leg may have executed server-side — the taxonomy must "
         "say timeout, not undeliverable";
  EXPECT_LE(r.hops, 2) << "failover is bounded to one retry";
  EXPECT_GT(cluster.failover_redirects(), redirects_before);
  // The server itself is fine — only its client link is lossy.
  EXPECT_TRUE(cluster.IsServerAlive(victim));

  ASSERT_TRUE(cluster.SetClientLinkDrop(victim, 0.0));
  EXPECT_EQ(cluster.Stat(path).status, MdsStatus::kOk);
}

// The other half of the error taxonomy: a *crashed* server is
// kUndeliverable (the op certainly did not execute), while a lossy link
// is kTimeout (asserted above) — the same split the socket transport
// reports for a dead peer vs a stuck one.
TEST(NetworkFaults, CrashedServerSurfacesUndeliverable) {
  const Workload w = SmallWorkload();
  auto net = std::make_shared<SimNetTransport>();
  FunctionalCluster cluster(w.tree, kMds, {}, net);
  const MdsId victim = OwnerOfSomeSubtree(cluster);
  ASSERT_GE(victim, 0);
  const std::string path = SubtreePathOwnedBy(cluster, w.tree, victim);

  ASSERT_TRUE(cluster.KillServer(victim));
  const auto r = cluster.Stat(path);
  EXPECT_EQ(r.status, MdsStatus::kUnavailable);
  EXPECT_EQ(r.net_error, DeliveryError::kUndeliverable);

  ASSERT_TRUE(cluster.ReviveServer(victim));
  const auto healed = cluster.Stat(path);
  EXPECT_EQ(healed.status, MdsStatus::kOk);
  EXPECT_EQ(healed.net_error, DeliveryError::kNone);
}

// Monitor⇄MDS partition drains the target exactly like heartbeat
// suppression: twin clusters — one partitioned on SimNet, one suppressed
// on InProcess — end the adjustment round with identical subtree owners,
// and the audit holds on both (no double ownership).
TEST(NetworkFaults, MonitorPartitionDrainsLikeHeartbeatSuppression) {
  const Workload w = SmallWorkload();
  auto net = std::make_shared<SimNetTransport>();
  FunctionalCluster partitioned(w.tree, kMds, {}, net);
  FunctionalCluster suppressed(w.tree, kMds);

  const MdsId victim = OwnerOfSomeSubtree(partitioned);
  ASSERT_GE(victim, 0);
  ASSERT_EQ(OwnerOfSomeSubtree(suppressed), victim);  // twins start equal

  // Identical charged traffic on both clusters.
  for (NodeId id = 0; id < w.tree.size(); id += 3) {
    partitioned.Stat(w.tree.PathOf(id));
    suppressed.Stat(w.tree.PathOf(id));
  }
  ASSERT_TRUE(partitioned.SetMonitorPartition(victim, true));
  ASSERT_TRUE(suppressed.SetHeartbeatSuppressed(victim, true));

  const std::uint64_t hb_lost_before = partitioned.heartbeats_lost();
  EXPECT_GT(partitioned.RunAdjustmentRound(), 0u);
  EXPECT_GT(suppressed.RunAdjustmentRound(), 0u);
  EXPECT_GT(partitioned.heartbeats_lost(), hb_lost_before)
      << "the partitioned server's heartbeat must be lost on the wire";

  EXPECT_EQ(partitioned.scheme().subtree_owners(),
            suppressed.scheme().subtree_owners())
      << "partition and suppression must drain identically";
  for (MdsId o : partitioned.scheme().subtree_owners())
    EXPECT_NE(o, victim) << "victim must own nothing after the drain";

  std::string err;
  EXPECT_TRUE(partitioned.CheckConsistency(&err)) << err;
  EXPECT_TRUE(suppressed.CheckConsistency(&err)) << err;

  // Healing the partition lets the next round hand subtrees back.
  ASSERT_TRUE(partitioned.SetMonitorPartition(victim, false));
  partitioned.RunAdjustmentRound();
  EXPECT_TRUE(partitioned.CheckConsistency(&err)) << err;
}

// --- FaultSchedule plumbing for the new event kinds.

TEST(FaultSchedule, PairsDropAndPartitionWindows) {
  FaultMix mix;
  mix.kills = 0;
  mix.revives = 0;
  mix.server_additions = 0;
  mix.link_drops = 2;
  mix.monitor_partitions = 1;
  mix.link_drop_probability = 0.5;
  const FaultSchedule s = FaultSchedule::Random(0xFEED, kMds, 10'000, mix);
  std::size_t drop_starts = 0, drop_stops = 0, part_starts = 0,
              part_stops = 0;
  std::vector<MdsId> open_drops, open_parts;
  for (const FaultEvent& e : s.events) {
    switch (e.kind) {
      case FaultKind::kLinkDropStart:
        ++drop_starts;
        EXPECT_EQ(e.drop_prob, 0.5);
        open_drops.push_back(e.target);
        break;
      case FaultKind::kLinkDropStop: {
        ++drop_stops;
        const auto it =
            std::find(open_drops.begin(), open_drops.end(), e.target);
        ASSERT_NE(it, open_drops.end()) << "stop without a matching start";
        open_drops.erase(it);
        break;
      }
      case FaultKind::kMonitorPartitionStart:
        ++part_starts;
        open_parts.push_back(e.target);
        break;
      case FaultKind::kMonitorPartitionStop: {
        ++part_stops;
        const auto it =
            std::find(open_parts.begin(), open_parts.end(), e.target);
        ASSERT_NE(it, open_parts.end());
        open_parts.erase(it);
        break;
      }
      // d2lint: allow-default(guard: any kind outside the mix is a failure)
      default:
        ADD_FAILURE() << "unexpected kind in a drops-only mix";
    }
  }
  EXPECT_EQ(drop_starts, 2u);
  EXPECT_EQ(drop_stops, 2u);
  EXPECT_EQ(part_starts, 1u);
  EXPECT_EQ(part_stops, 1u);
  EXPECT_TRUE(open_drops.empty());
  EXPECT_TRUE(open_parts.empty());
  EXPECT_NE(s.ToString().find("link-drop"), std::string::npos);
  EXPECT_NE(s.ToString().find("p=0.5"), std::string::npos);
}

TEST(FaultSchedule, DefaultMixUnchangedByNewKinds) {
  // Schedules that ask for no network faults must not contain (or burn RNG
  // draws on) the new kinds — seeded legacy schedules stay byte-identical.
  const FaultSchedule s = FaultSchedule::Random(0xBEEF, kMds, 10'000);
  for (const FaultEvent& e : s.events) {
    EXPECT_NE(e.kind, FaultKind::kLinkDropStart);
    EXPECT_NE(e.kind, FaultKind::kLinkDropStop);
    EXPECT_NE(e.kind, FaultKind::kMonitorPartitionStart);
    EXPECT_NE(e.kind, FaultKind::kMonitorPartitionStop);
  }
}

TEST(FaultInjector, NetworkEventsSkippedOnInProcessTransport) {
  const Workload w = SmallWorkload();
  FunctionalCluster cluster(w.tree, kMds);  // no network model
  FaultSchedule schedule;
  schedule.events.push_back({1, FaultKind::kLinkDropStart, 1, 0.5});
  schedule.events.push_back({2, FaultKind::kMonitorPartitionStart, 1});
  FaultInjector injector(cluster, schedule);
  injector.OnOp();
  injector.OnOp();
  EXPECT_EQ(injector.applied(), 0u);
  EXPECT_EQ(injector.skipped(), 2u);
}

// --- Concurrent replay carries the per-op-class telemetry.

TEST(ConcurrentReplayTelemetry, ClassCountsAndLatencyAddUp) {
  const Workload w = SmallWorkload();
  auto net = std::make_shared<SimNetTransport>();
  FunctionalCluster cluster(w.tree, kMds, {}, net);
  ConcurrentReplayConfig cfg;
  cfg.thread_count = 4;
  cfg.ops_per_thread = 500;
  const ConcurrentReplayReport r = RunConcurrentReplay(cluster, w.tree, cfg);

  EXPECT_TRUE(r.consistent) << r.consistency_error;
  EXPECT_EQ(r.total_ops, cfg.thread_count * cfg.ops_per_thread);
  std::size_t class_total = 0;
  for (std::size_t c = 0; c < kOpClassCount; ++c)
    class_total += r.class_ops[c];
  EXPECT_EQ(class_total, r.total_ops) << "every op lands in exactly one class";
  EXPECT_EQ(r.sim_latency.count(), r.total_ops);
  // No faults and no drops: nothing fails, nothing classifies as failover.
  EXPECT_EQ(r.total_failed, 0u);
  EXPECT_EQ(r.class_ops[static_cast<std::size_t>(OpClass::kFailover)], 0u);
  EXPECT_EQ(r.messages_dropped, 0u);
  EXPECT_GT(r.messages_sent, 0u);
  // Simulated latency is real on SimNet.
  EXPECT_GT(r.sim_latency.mean(), 0.0);
  const auto& gl = r.class_latency[static_cast<std::size_t>(OpClass::kGlHit)];
  if (gl.count() > 0) {
    EXPECT_GT(gl.Quantile(0.5), 0.0);
  }
}

TEST(ConcurrentReplayTelemetry, InProcessAggregatesStayZeroLatency) {
  const Workload w = SmallWorkload();
  FunctionalCluster cluster(w.tree, kMds);
  ConcurrentReplayConfig cfg;
  cfg.thread_count = 4;
  cfg.ops_per_thread = 250;
  const ConcurrentReplayReport r = RunConcurrentReplay(cluster, w.tree, cfg);
  EXPECT_TRUE(r.consistent) << r.consistency_error;
  EXPECT_EQ(r.sim_latency.max(), 0.0);
  EXPECT_EQ(r.messages_dropped, 0u);
  EXPECT_EQ(r.heartbeats_lost, 0u);
}

}  // namespace
}  // namespace d2tree
