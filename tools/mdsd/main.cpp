// mdsd — one metadata-service role as a real process.
//
// Each daemon hosts exactly one role behind a SocketTransport listener and
// holds only what the paper gives that role (Sec. III, IV-B):
//   * The Monitor holds the GL lock table and version counter, and no
//     namespace.
//   * An MDS regenerates the namespace tree from --profile/--scale/--seed
//     (its popularity drives the partition), partitions it over
//     --mds-count servers, and loads one server: the GL replica and its
//     own local-layer shard. Every MDS gets the same flags, so routing
//     agrees across processes with no placement exchange at boot.
//
//   mdsd --role mds --id 0 --listen 127.0.0.1:7100
//        --peers mds0=127.0.0.1:7100,mds1=127.0.0.1:7101,monitor=127.0.0.1:7190
//        --mds-count 3 --profile lmbe --scale 0.05 --seed 1
//
// The daemon has no protocol of its own: it binds the MdsService or
// MonitorService of mds/service.h, the handlers the in-process cluster
// runs under its fault and crash suites, and loads and audits its server
// with the same MdsService calls the cluster makes for each of its own.
//   * An MDS answers kWrongServer with `peer` naming the owner for another
//     server's local-layer subtree: the client pays the redirect as a
//     real second RPC (the paper's 1-jump).
//   * A global-layer update is the locked, versioned round of DESIGN.md
//     §6, its commits fanned out to the peer MDS daemons. The Monitor's
//     requests and a replica's commits are answered on the event loop,
//     never queued for a worker, so a round never waits on a busy peer.
//   * Daemons never run adjustment rounds: each process only observes its
//     own traffic, so re-planning locally would diverge the placements.
//
// With --data-dir <dir> an MDS keeps its local store in the embedded LSM
// engine under <dir>/mds<id>/ instead of RAM: restarted on the same
// directory after a SIGKILL, it replays its engine WAL and resumes from
// the durable namespace, mutations included.
//
// After Bind succeeds the daemon prints "MDSD LISTENING <port>" on stdout
// (port 0 in --listen auto-assigns); tests parse that line. SIGTERM/SIGINT
// drains the transport, audits an MDS's server (the Monitor holds no
// records), and prints a one-line JSON stats summary; exit 0 iff the
// audit is clean. A malformed or out-of-range flag exits 2 with usage.
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/core/d2tree.h"
#include "d2tree/mds/service.h"
#include "d2tree/net/endpoint.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

/// --mds-count must stay under this: the partition and the peer list are
/// sized by it, so an absurd count is refused rather than attempted.
constexpr std::size_t kMaxMdsCount = 1024;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Flags {
  std::string role = "mds";
  MdsId id = 0;
  std::string listen;  // host:port ("" = 127.0.0.1:0)
  std::string peers;
  std::size_t mds_count = 3;
  std::string profile = "lmbe";
  double scale = 0.05;
  std::uint64_t seed = 1;
  std::string data_dir;  // "" = volatile in-memory store
};

TraceProfile ProfileOf(const Flags& f) {
  TraceProfile profile = f.profile == "dtr" ? DtrProfile(f.scale)
                         : f.profile == "ra" ? RaProfile(f.scale)
                                             : LmbeProfile(f.scale);
  profile.seed = f.seed;
  return profile;
}

/// Parses all of `text` as one number (no junk, no overflow).
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && stop == end && end != text;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  bool numbers_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--role" && (v = value()))
      f->role = v;
    else if (arg == "--id" && (v = value()))
      numbers_ok &= ParseNumber(v, &f->id);
    else if (arg == "--listen" && (v = value()))
      f->listen = v;
    else if (arg == "--peers" && (v = value()))
      f->peers = v;
    else if (arg == "--mds-count" && (v = value()))
      numbers_ok &= ParseNumber(v, &f->mds_count);
    else if (arg == "--profile" && (v = value()))
      f->profile = v;
    else if (arg == "--scale" && (v = value()))
      numbers_ok &= ParseNumber(v, &f->scale);
    else if (arg == "--seed" && (v = value()))
      numbers_ok &= ParseNumber(v, &f->seed);
    else if (arg == "--data-dir" && (v = value()))
      f->data_dir = v;
    else
      return false;
  }
  return numbers_ok && (f->role == "mds" || f->role == "monitor") &&
         f->mds_count >= 1 && f->mds_count < kMaxMdsCount && f->id >= 0 &&
         static_cast<std::size_t>(f->id) < f->mds_count &&
         std::isfinite(f->scale) && f->scale > 0.0;
}

/// An MDS daemon's state: the namespace tree, the partition, and one
/// server loaded with the GL replica and its own local-layer shard.
struct MdsRole {
  MdsRole(const Flags& flags, Transport& transport)
      : tree(GenerateWorkload(ProfileOf(flags)).tree),
        assignment(D2TreeScheme{}.Partition(
            tree, MdsCluster::Homogeneous(flags.mds_count))),
        // --data-dir puts the local store on the LSM engine, under
        // <dir>/mds<id>/ so daemons sharing the directory never collide.
        server(flags.id,
               flags.data_dir.empty()
                   ? StoreSpec{}
                   : StoreSpec{StoreSpec::Backend::kLsm,
                               flags.data_dir + "/mds" +
                                   std::to_string(flags.id)}),
        service(server, tree, assignment, transport,
                [n = static_cast<MdsId>(flags.mds_count), self = flags.id] {
                  std::vector<MdsId> peers;
                  for (MdsId p = 0; p < n; ++p)
                    if (p != self) peers.push_back(p);
                  return peers;
                }) {
    service.LoadGlReplica();
    service.LoadShard();
  }

  NamespaceTree tree;
  Assignment assignment;
  MdsServer server;
  MdsService service;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: mdsd --role mds|monitor [--id N] [--listen h:p] "
                 "[--peers name=h:p,...] [--mds-count M] "
                 "[--profile dtr|lmbe|ra] [--scale S] [--seed N] "
                 "[--data-dir DIR]\n");
    return 2;
  }
  const bool is_monitor = flags.role == "monitor";
  const Address self = is_monitor ? MonitorAddress() : MdsAddress(flags.id);

  auto transport = std::make_shared<SocketTransport>();
  if (!flags.peers.empty()) {
    const auto specs = ParsePeerList(flags.peers);
    if (!specs.has_value()) {
      std::fprintf(stderr, "mdsd: malformed --peers list\n");
      return 2;
    }
    for (const PeerSpec& spec : *specs) {
      if (!transport->AddPeer(spec.addr, spec.host_port)) {
        std::fprintf(stderr, "mdsd: malformed peer endpoint '%s'\n",
                     spec.host_port.c_str());
        return 2;
      }
    }
  }
  if (!flags.listen.empty() && !transport->AddPeer(self, flags.listen)) {
    std::fprintf(stderr, "mdsd: malformed --listen endpoint\n");
    return 2;
  }

  // The Monitor serves the GL lock table and version counter; an MDS
  // serves its own shard and GL replica, the other MDS daemons being its
  // GL peers.
  std::optional<MonitorService> monitor;
  std::optional<MdsRole> mds;
  if (is_monitor)
    monitor.emplace();
  else
    mds.emplace(flags, *transport);
  Transport::Handler handler = [&](const Address& from, const Message& req) {
    return mds ? mds->service.Handle(from, req) : monitor->Handle(from, req);
  };
  // The Monitor and a replica's kGlCommit never wait on another call, so
  // the loop answers them: a GL round then waits on no peer's worker, and
  // daemons whose workers all coordinate rounds cannot stall each other.
  transport->AnswerOnLoop([is_monitor](const Message& req) {
    return is_monitor || MdsService::NeverWaits(req);
  });

  if (!transport->Bind(self, std::move(handler))) {
    std::fprintf(stderr, "mdsd: cannot listen on %s\n",
                 flags.listen.empty() ? "127.0.0.1:0" : flags.listen.c_str());
    return 1;
  }
  const std::string endpoint = transport->EndpointOf(self);
  std::string host;
  std::uint16_t port = 0;
  if (!SplitHostPort(endpoint, &host, &port)) {
    std::fprintf(stderr, "mdsd: bad bound endpoint '%s'\n", endpoint.c_str());
    return 1;
  }
  std::printf("MDSD LISTENING %u\n", static_cast<unsigned>(port));
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (g_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Clean SIGTERM drain: stop accepting, let the workers finish, then
  // audit this server before reporting. The Monitor holds no records.
  transport->Shutdown(/*drain=*/true);
  std::string audit_error;
  const bool consistent = !mds || mds->service.Audit({}, &audit_error);
  const MetadataStore* local = mds ? &mds->server.local() : nullptr;
  const StoreEngineStats store_stats = local ? local->EngineStats()
                                             : StoreEngineStats{};
  std::printf(
      "{\"role\": \"%s\", \"id\": %d, \"handled\": %llu, "
      "\"dedup_hits\": %llu, \"corrupt_frames\": %llu, "
      "\"busy_rejections\": %llu, \"gl_version\": %llu, "
      "\"store\": \"%s\", \"store_records\": %zu, "
      "\"store_tables\": %llu, \"store_wal_commits\": %llu, "
      "\"consistent\": %s}\n",
      flags.role.c_str(), flags.id,
      static_cast<unsigned long long>(transport->handled_requests()),
      static_cast<unsigned long long>(transport->dedup_hits()),
      static_cast<unsigned long long>(transport->corrupt_frames()),
      static_cast<unsigned long long>(transport->busy_rejections()),
      static_cast<unsigned long long>(mds ? mds->server.gl_version()
                                          : monitor->version()),
      local ? local->engine_name() : "none", local ? local->size() : 0,
      static_cast<unsigned long long>(store_stats.tables),
      static_cast<unsigned long long>(store_stats.wal_group_commits),
      consistent ? "true" : "false");
  if (!consistent)
    std::fprintf(stderr, "mdsd: audit failed: %s\n", audit_error.c_str());
  return consistent ? 0 : 1;
}
