// d2bench-client — multi-threaded trace replay against a real mdsd
// cluster, over SocketTransport.
//
// Regenerates the same deterministic workload as the daemons (identical
// --profile/--scale/--seed/--mds-count flags), routes each trace record
// with the same D2-Tree partition the daemons computed, and replays the
// operations as real RPCs:
//
//   * GL-resident target  → any MDS (hashed entry; every replica answers)
//   * local-layer target  → the owning MDS; with probability --stale the
//     client deliberately enters at the wrong server to exercise the
//     honest 1-jump path (kWrongServer + `peer` hint → one more real RPC)
//   * a failed leg        → one bounded failover retry at the owner
//
// Emits the same per-op-class p50/p99 JSON section as the sim harness
// (examples/simnet_latency.cpp) — plus honest ops/sec — so
// scripts/bench_snapshot.sh can fold real-socket numbers into
// BENCH_trajectory.json next to the simulated ones.
//
//   d2bench-client --peers mds0=...,mds1=...,mds2=...,monitor=...
//       --mds-count 3 --profile lmbe --scale 0.05 --seed 1
//       --threads 4 --ops 2000 --out BENCH_socket.json
//
// Exit code 0 iff every replayed operation eventually succeeded.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/core/d2tree.h"
#include "d2tree/metrics/metrics.h"
#include "d2tree/net/endpoint.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

struct Flags {
  std::string peers;
  std::size_t mds_count = 3;
  std::string profile = "lmbe";
  double scale = 0.05;
  std::uint64_t seed = 1;
  std::size_t threads = 4;
  std::size_t ops = 2000;  // per thread
  double stale = 0.02;     // deliberate wrong-entry probability (1-jump)
  std::string out = "BENCH_socket.json";
};

TraceProfile ProfileByName(const std::string& name, double scale) {
  if (name == "dtr") return DtrProfile(scale);
  if (name == "ra") return RaProfile(scale);
  return LmbeProfile(scale);
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--peers" && (v = value()))
      f->peers = v;
    else if (arg == "--mds-count" && (v = value()))
      f->mds_count = static_cast<std::size_t>(std::atoll(v));
    else if (arg == "--profile" && (v = value()))
      f->profile = v;
    else if (arg == "--scale" && (v = value()))
      f->scale = std::atof(v);
    else if (arg == "--seed" && (v = value()))
      f->seed = static_cast<std::uint64_t>(std::atoll(v));
    else if (arg == "--threads" && (v = value()))
      f->threads = static_cast<std::size_t>(std::atoll(v));
    else if (arg == "--ops" && (v = value()))
      f->ops = static_cast<std::size_t>(std::atoll(v));
    else if (arg == "--stale" && (v = value()))
      f->stale = std::atof(v);
    else if (arg == "--out" && (v = value()))
      f->out = v;
    else
      return false;
  }
  return !f->peers.empty() && f->mds_count > 0 && f->threads > 0;
}

struct ThreadReport {
  std::array<LatencyHistogram, kOpClassCount> by_class;
  std::array<std::size_t, kOpClassCount> ops{};
  std::size_t failed = 0;
  std::size_t redirects = 0;
  std::size_t failovers = 0;
};

/// xorshift64* — cheap deterministic per-thread stream.
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: d2bench-client --peers name=h:p,... [--mds-count M] "
                 "[--profile dtr|lmbe|ra] [--scale S] [--seed N] "
                 "[--threads T] [--ops N] [--stale P] [--out f.json]\n");
    return 2;
  }

  TraceProfile profile = ProfileByName(flags.profile, flags.scale);
  profile.seed = flags.seed;
  const Workload workload = GenerateWorkload(profile);
  // The same partition the daemons computed — used only for routing.
  const Assignment assignment = D2TreeScheme{}.Partition(
      workload.tree, MdsCluster::Homogeneous(flags.mds_count));

  auto transport = std::make_shared<SocketTransport>();
  const auto specs = ParsePeerList(flags.peers);
  if (!specs.has_value()) {
    std::fprintf(stderr, "d2bench-client: malformed --peers list\n");
    return 2;
  }
  for (const PeerSpec& spec : *specs) {
    if (!transport->AddPeer(spec.addr, spec.host_port)) {
      std::fprintf(stderr, "d2bench-client: malformed peer endpoint '%s'\n",
                   spec.host_port.c_str());
      return 2;
    }
  }

  const auto& records = workload.trace.records();
  if (records.empty()) {
    std::fprintf(stderr, "d2bench-client: empty trace\n");
    return 2;
  }

  std::vector<ThreadReport> reports(flags.threads);
  std::vector<std::thread> threads;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < flags.threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadReport& rep = reports[t];
      std::uint64_t rng = flags.seed * 0x9E3779B97F4A7C15ULL + t + 1;
      for (std::size_t i = 0; i < flags.ops; ++i) {
        const TraceRecord& rec =
            records[(t * flags.ops + i) % records.size()];
        const bool is_update = rec.op == OpType::kUpdate;
        Message req{.type = is_update ? MsgType::kUpdateRequest
                                      : MsgType::kStatRequest,
                    .target = rec.node,
                    .mtime = is_update ? NextRand(rng) : 0};

        const MdsId owner = assignment.OwnerOf(rec.node);
        MdsId entry;
        if (owner == kReplicated) {
          entry = static_cast<MdsId>(NextRand(rng) % flags.mds_count);
        } else if (flags.stale > 0.0 &&
                   static_cast<double>(NextRand(rng) % 10000) <
                       flags.stale * 10000.0 &&
                   flags.mds_count > 1) {
          // Stale-cache entry: deliberately wrong server; the daemon's
          // kWrongServer + peer hint costs a real second RPC.
          entry = static_cast<MdsId>(NextRand(rng) % flags.mds_count);
        } else {
          entry = owner;
        }

        double wall_us = 0.0;
        int jumps = 0;
        bool failed_over = false;
        Message resp;
        Delivery d = transport->Call(ClientAddress(), MdsAddress(entry), req,
                                     &resp);
        wall_us += d.latency_us;
        if (!d.delivered) {
          // Bounded failover: invalidate the cached route, retry once at
          // the authoritative owner (any server for GL targets).
          ++rep.failovers;
          failed_over = true;
          const MdsId retry =
              owner == kReplicated
                  ? static_cast<MdsId>(NextRand(rng) % flags.mds_count)
                  : owner;
          d = transport->Call(ClientAddress(), MdsAddress(retry), req, &resp);
          wall_us += d.latency_us;
        }
        if (d.delivered && resp.status == MdsStatus::kWrongServer &&
            resp.peer >= 0) {
          ++rep.redirects;
          jumps = 1;
          d = transport->Call(ClientAddress(), MdsAddress(resp.peer), req,
                              &resp);
          wall_us += d.latency_us;
        }

        const bool ok = d.delivered && resp.status == MdsStatus::kOk;
        if (!ok) ++rep.failed;
        const OpClass op_class =
            failed_over || !ok          ? OpClass::kFailover
            : owner == kReplicated      ? OpClass::kGlHit
            : jumps == 0                ? OpClass::kLl0Jump
                                        : OpClass::kLl1Jump;
        rep.by_class[static_cast<std::size_t>(op_class)].Record(wall_us);
        ++rep.ops[static_cast<std::size_t>(op_class)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ThreadReport total;
  for (const ThreadReport& rep : reports) {
    for (std::size_t c = 0; c < kOpClassCount; ++c) {
      total.by_class[c].Merge(rep.by_class[c]);
      total.ops[c] += rep.ops[c];
    }
    total.failed += rep.failed;
    total.redirects += rep.redirects;
    total.failovers += rep.failovers;
  }
  const std::size_t total_ops = flags.threads * flags.ops;
  const double ops_per_sec =
      wall_s > 0.0 ? static_cast<double>(total_ops) / wall_s : 0.0;

  std::string json = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"bench\": \"socket_replay\",\n"
                "  \"mds\": %zu, \"threads\": %zu, \"ops\": %zu,\n"
                "  \"ops_per_sec\": %.1f, \"wall_seconds\": %.3f,\n"
                "  \"failed\": %zu, \"redirects\": %zu, \"failovers\": %zu,\n"
                "  \"messages_sent\": %llu, \"messages_dropped\": %llu,\n"
                "  \"reconnects\": %llu, \"dedup_hits\": %llu,\n",
                flags.mds_count, flags.threads, total_ops, ops_per_sec, wall_s,
                total.failed, total.redirects, total.failovers,
                static_cast<unsigned long long>(transport->messages_sent()),
                static_cast<unsigned long long>(transport->messages_dropped()),
                static_cast<unsigned long long>(transport->reconnects()),
                static_cast<unsigned long long>(transport->dedup_hits()));
  json += buf;
  json += "  \"latency_by_class\": [\n";
  for (std::size_t c = 0; c < kOpClassCount; ++c) {
    const LatencyHistogram& h = total.by_class[c];
    std::snprintf(buf, sizeof(buf),
                  "    {\"class\": \"%s\", \"ops\": %zu, \"mean_us\": %.2f, "
                  "\"p50_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f}%s\n",
                  OpClassName(static_cast<OpClass>(c)), total.ops[c], h.mean(),
                  h.Quantile(0.5), h.Quantile(0.99), h.max(),
                  c + 1 == kOpClassCount ? "" : ",");
    json += buf;
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(flags.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "d2bench-client: cannot write %s\n",
                 flags.out.c_str());
    return 2;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());

  transport->Shutdown();
  return total.failed == 0 ? 0 : 1;
}
