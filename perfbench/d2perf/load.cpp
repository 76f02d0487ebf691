#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "d2tree/core/d2tree.h"
#include "d2tree/net/endpoint.h"

namespace perfbench {

using namespace d2tree;
using Clock = std::chrono::steady_clock;

namespace {

/// xorshift64*: the per-thread stream behind redirects and update mtimes.
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

std::uint32_t ClampNs(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, UINT32_MAX));
}

/// Share of local-layer ops that deliberately enter at a random server,
/// as a client with a stale local-index entry would (the paper's 1-jump).
constexpr double kStaleEntry = 0.02;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

TraceProfile ProfileFor(const std::string& name, double scale,
                        std::uint64_t seed) {
  TraceProfile p = name == "ra" ? RaProfile(scale) : LmbeProfile(scale);
  p.seed = seed;
  return p;
}

Model BuildModel(const TraceProfile& profile, std::size_t mds_count) {
  Model m;
  m.mds_count = mds_count;
  m.workload = GenerateWorkload(profile);
  // The partition FunctionalCluster computes in every daemon (default
  // D2TreeConfig over homogeneous servers), without materializing stores.
  D2TreeScheme scheme;
  m.assignment =
      scheme.Partition(m.workload.tree, MdsCluster::Homogeneous(mds_count));
  return m;
}

LoadClient::LoadClient(const Model& model, const std::string& peers,
                       std::uint64_t seed, std::size_t threads)
    : model_(model),
      peers_(peers),
      transport_(std::make_shared<SocketTransport>()),
      cursors_(threads) {
  const std::size_t n = model_.workload.trace.size();
  for (std::size_t t = 0; t < threads; ++t) {
    cursors_[t].next = t * n / threads;
    cursors_[t].rng = seed * 0x9E3779B97F4A7C15ULL + t + 1;
  }
}

LoadClient::~LoadClient() { transport_->Shutdown(/*drain=*/false); }

bool LoadClient::Connect(std::string* error) {
  const auto specs = ParsePeerList(peers_);
  if (!specs.has_value()) {
    *error = "malformed peer list " + peers_;
    return false;
  }
  for (const PeerSpec& spec : *specs) {
    if (!transport_->AddPeer(spec.addr, spec.host_port)) {
      *error = "bad peer endpoint " + spec.host_port;
      return false;
    }
  }
  for (const PeerSpec& spec : *specs) {
    for (int i = 0; i < 50; ++i) {
      Message resp;
      const Delivery d = transport_->Call(
          ClientAddress(), spec.addr, Message{.type = MsgType::kHeartbeat},
          &resp);
      ++probe_calls_;
      if (!d.delivered || resp.status != MdsStatus::kOk) {
        *error = "warm-up heartbeat to " + spec.host_port + " failed";
        return false;
      }
    }
  }
  return true;
}

PhaseResult LoadClient::Run(Phase phase, double seconds, bool trace,
                            int slices,
                            const std::function<void()>& at_boundary) {
  const auto& records = model_.workload.trace.records();
  const NamespaceTree& tree = model_.workload.tree;
  const Assignment& assignment = model_.assignment;
  const auto mds = static_cast<MdsId>(model_.mds_count);
  std::atomic<bool> stop{false};
  std::vector<PhaseResult> per(cursors_.size());
  const auto start = Clock::now();

  const auto client = [&](std::size_t t) {
    PhaseResult& r = per[t];
    Cursor& c = cursors_[t];
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (phase == Phase::kUpdates) {
        // Alternate global-layer and local-layer targets, in trace order,
        // so the update window's GL:LL mix is 1:1 on every seed.
        c.gl_next = !c.gl_next;
        for (std::size_t k = 0;
             k < records.size() &&
             assignment.IsReplicated(records[c.next % records.size()].node) !=
                 c.gl_next;
             ++k)
          ++c.next;
      }
      const TraceRecord& rec = records[c.next++ % records.size()];
      const bool update = phase == Phase::kUpdates || rec.op == OpType::kUpdate;
      const Message req{
          .type = update ? MsgType::kUpdateRequest : MsgType::kStatRequest,
          .target = rec.node,
          .mtime = update ? NextRand(c.rng) : 0};
      const std::uint64_t trace_id = ((t + 1) << 40) | seq++;
      const std::size_t root = r.spans.size();
      const auto t0 = Clock::now();
      if (trace) r.spans.push_back({trace_id, "client.op", -1, NowNs(), 0});

      // core: the client's routing decision (local index or GL entry).
      const MdsId owner = assignment.OwnerOf(rec.node);
      MdsId entry = owner;
      if (owner == kReplicated ||
          static_cast<double>(NextRand(c.rng) % 10000) < kStaleEntry * 1e4)
        entry = static_cast<MdsId>(NextRand(c.rng) % mds);
      if (trace) {
        r.spans.push_back({trace_id, "core.route",
                           static_cast<std::int32_t>(root),
                           r.spans[root].start_ns, NowNs()});
      }

      Message resp;
      const auto call = [&](MdsId to) {
        const std::int64_t leg_start = trace ? NowNs() : 0;
        const Delivery d =
            transport_->Call(ClientAddress(), MdsAddress(to), req, &resp);
        ++r.legs;
        if (trace)
          r.spans.push_back({trace_id, "net.call",
                             static_cast<std::int32_t>(root), leg_start,
                             NowNs()});
        return d;
      };
      Delivery d = call(entry);
      if (!d.delivered) {
        // Bounded failover: retry once at the authoritative owner.
        ++r.failovers;
        d = call(owner == kReplicated
                     ? static_cast<MdsId>(NextRand(c.rng) % mds)
                     : owner);
      }
      if (d.delivered && resp.status == MdsStatus::kWrongServer &&
          resp.peer >= 0) {
        ++r.redirects;
        d = call(resp.peer);
      }
      const auto t1 = Clock::now();
      const std::uint32_t ns = ClampNs(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      if (trace) r.spans[root].end_ns = r.spans[root].start_ns + ns;

      const MsgType want =
          update ? MsgType::kUpdateResponse : MsgType::kStatResponse;
      const bool ok = d.delivered && resp.status == MdsStatus::kOk &&
                      resp.type == want && resp.record.id == rec.node &&
                      resp.record.name == tree.node(rec.node).name;
      ++r.ops;
      r.ancestors += tree.node(rec.node).depth;
      if (!ok) {
        ++r.failed;
        if (r.errors.size() < 4) {
          r.errors.push_back(
              std::string(update ? "update" : "stat") + " of node " +
              std::to_string(rec.node) + ": delivered=" +
              (d.delivered ? "1" : "0") + " status=" +
              MdsStatusName(resp.status) + " reply id=" +
              std::to_string(resp.record.id) + " name='" + resp.record.name +
              "' expected '" + tree.node(rec.node).name + "'");
        }
        continue;  // a failed op carries no latency sample
      }
      const Sample sample{
          static_cast<std::uint32_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(t1 - start)
                  .count()),
          ns};
      if (!update) {
        r.stats.push_back(sample);
      } else {
        r.updates.push_back(sample);
        (owner == kReplicated ? r.gl_updates : r.ll_updates).push_back(sample);
      }
    }
  };

  PhaseResult out;
  const auto boundary = [&] {
    out.slice_us.push_back(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count()));
    if (at_boundary) at_boundary();
  };
  std::vector<std::thread> threads;
  boundary();
  for (std::size_t t = 0; t < cursors_.size(); ++t)
    threads.emplace_back(client, t);
  for (int i = 1; i <= slices; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds * i / slices)));
    boundary();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (PhaseResult& r : per) {
    out.ops += r.ops;
    out.failed += r.failed;
    out.redirects += r.redirects;
    out.failovers += r.failovers;
    out.legs += r.legs;
    out.ancestors += r.ancestors;
    const auto append = [](auto& to, auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out.stats, r.stats);
    append(out.updates, r.updates);
    append(out.gl_updates, r.gl_updates);
    append(out.ll_updates, r.ll_updates);
    append(out.errors, r.errors);
    // Parent indexes are thread-local; re-base them onto the merged list.
    const auto base = static_cast<std::int32_t>(out.spans.size());
    for (Span s : r.spans) {
      if (s.parent >= 0) s.parent += base;
      out.spans.push_back(s);
    }
  }
  return out;
}

std::vector<std::uint32_t> LoadClient::NullRpc(std::size_t count) {
  std::vector<std::uint32_t> samples;
  for (std::size_t i = 0; i < count; ++i) {
    Message resp;
    const auto t0 = Clock::now();
    const Delivery d = transport_->Call(ClientAddress(), MdsAddress(0),
                                        Message{.type = MsgType::kHeartbeat},
                                        &resp);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    ++probe_calls_;
    if (d.delivered && resp.status == MdsStatus::kOk)
      samples.push_back(ClampNs(ns));
  }
  return samples;
}

std::vector<std::uint32_t> LoadClient::GlLockRpc(std::size_t count) {
  std::vector<std::uint32_t> samples;
  for (std::size_t i = 0; i < count; ++i) {
    Message resp;
    const auto t0 = Clock::now();
    const Delivery d = transport_->Call(
        ClientAddress(), MonitorAddress(),
        Message{.type = MsgType::kGlWriteLock, .target = 0}, &resp);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    ++probe_calls_;
    if (d.delivered && resp.status == MdsStatus::kOk)
      samples.push_back(ClampNs(ns));
  }
  return samples;
}

std::vector<std::uint32_t> SliceNs(const PhaseResult& phase,
                                   const std::vector<Sample>& samples,
                                   std::size_t i) {
  std::vector<std::uint32_t> out;
  for (const Sample& s : samples) {
    if (s.end_us >= phase.slice_us[i] && s.end_us < phase.slice_us[i + 1])
      out.push_back(s.ns);
  }
  return out;
}

double QuantileUs(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1] * 1e-3;
}

bool TailSupported(std::size_t samples, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples)));
  return samples >= rank + 10;
}

std::vector<std::uint32_t> LoopbackFloor(std::size_t count,
                                         std::size_t bytes) {
  std::vector<std::uint32_t> samples;
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    if (listener >= 0) ::close(listener);
    return samples;
  }
  const auto exact = [bytes](int fd, char* buf, bool write) {
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n = write ? ::send(fd, buf + done, bytes - done, 0)
                              : ::recv(fd, buf + done, bytes - done, 0);
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  };
  const int one = 1;
  std::thread echo([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<char> buf(bytes);
    while (exact(fd, buf.data(), false) && exact(fd, buf.data(), true)) {
    }
    ::close(fd);
  });
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<char> buf(bytes, 'x');
    for (std::size_t i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      if (!exact(fd, buf.data(), true) || !exact(fd, buf.data(), false))
        break;
      samples.push_back(ClampNs(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
    }
  }
  if (fd >= 0) ::close(fd);           // ends the echo loop
  ::shutdown(listener, SHUT_RDWR);    // or its accept, if never connected
  echo.join();
  ::close(listener);
  return samples;
}

}  // namespace perfbench
