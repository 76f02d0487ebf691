// mdsd — one metadata-service role as a real process.
//
// Each daemon hosts exactly one role (one MDS, or the Monitor) behind a
// SocketTransport listener. All daemons of a cluster are started with the
// same --profile/--scale/--seed/--mds-count flags, so each deterministically
// regenerates the identical namespace and D2-Tree partition (the same way
// every MDS in the paper's system shares the global layer and the local
// index): routing decisions agree across processes without any placement
// exchange at boot.
//
//   mdsd --role mds --id 0 --listen 127.0.0.1:7100
//        --peers mds0=127.0.0.1:7100,mds1=127.0.0.1:7101,monitor=127.0.0.1:7190
//        --mds-count 3 --profile lmbe --scale 0.05 --seed 1
//
// Serving: the daemon binds the library handlers of mds/service.h — the
// same MdsService / MonitorService the in-process cluster runs under its
// fault and crash suites — to its socket, so it holds no protocol of its
// own:
//   * An MDS answers kWrongServer with `peer` naming the owner for another
//     server's local-layer subtree — the client pays the redirect as a
//     real second RPC (the paper's 1-jump).
//   * A global-layer update is the locked, versioned round: a per-node
//     lease lock from the Monitor (which assigns the version), the write
//     applied here and fanned out to every peer MDS in one concurrent
//     kGlCommit round, the release posted to the Monitor after the acks,
//     then the client answered. A replica applies a commit only when its
//     version is newer than the node's stored one. The Monitor's requests
//     and a replica's commits are answered on the event loop, never
//     queued for a worker, so a round never waits on a busy peer.
//   * Daemons never run adjustment rounds: each process only observes its
//     own traffic, so re-planning locally would diverge the placements.
//     The other servers of the local cluster model are marked dead: they
//     live in other processes, and the shutdown audit covers this one.
//
// With --data-dir <dir> an MDS daemon keeps its local store in the
// embedded LSM engine under <dir>/mds<id>/ instead of RAM: a SIGKILLed
// daemon restarted on the same directory replays its engine WAL and
// resumes from the durable namespace — mutations (mtimes, versions,
// renames) survive where a memory daemon would silently regenerate the
// pristine tree. Only this daemon's own role persists.
//
// After Bind succeeds the daemon prints "MDSD LISTENING <port>" on stdout
// (port 0 in --listen auto-assigns); tests parse that line. SIGTERM/SIGINT
// drains the transport, audits the local model with CheckConsistency, and
// prints a one-line JSON stats summary; exit 0 iff the audit is clean.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/mds/cluster.h"
#include "d2tree/mds/service.h"
#include "d2tree/net/endpoint.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"

using namespace d2tree;

namespace {

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
    if (arg == "--role" && (v = value()))
      f->role = v;
    else if (arg == "--id" && (v = value()))
      f->id = static_cast<MdsId>(std::atoi(v));
    else if (arg == "--listen" && (v = value()))
      f->listen = v;
    else if (arg == "--peers" && (v = value()))
      f->peers = v;
    else if (arg == "--mds-count" && (v = value()))
      f->mds_count = static_cast<std::size_t>(std::atoll(v));
    else if (arg == "--profile" && (v = value()))
      f->profile = v;
    else if (arg == "--scale" && (v = value()))
      f->scale = std::atof(v);
    else if (arg == "--seed" && (v = value()))
      f->seed = static_cast<std::uint64_t>(std::atoll(v));
    else if (arg == "--data-dir" && (v = value()))
      f->data_dir = v;
    else
      return false;
  }
  return (f->role == "mds" || f->role == "monitor") && f->mds_count > 0 &&
         (f->role != "mds" ||
          (f->id >= 0 && static_cast<std::size_t>(f->id) < f->mds_count));
}

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
  const Address self = flags.role == "monitor" ? MonitorAddress()
                                               : MdsAddress(flags.id);

  // Identical flags → identical namespace, partition and local index in
  // every daemon of the cluster.
  TraceProfile profile = ProfileByName(flags.profile, flags.scale);
  profile.seed = flags.seed;
  const Workload workload = GenerateWorkload(profile);
  // --data-dir puts this daemon's own role on the durable LSM engine;
  // only_mds keeps the other servers of the local model off the
  // directory, so N daemons sharing it never cross-write.
  StoreSpec store;
  if (!flags.data_dir.empty() && flags.role == "mds") {
    store.backend = StoreSpec::Backend::kLsm;
    store.data_dir = flags.data_dir;
    store.only_mds = flags.id;
  }
  FunctionalCluster cluster(workload.tree, flags.mds_count, {}, nullptr,
                            store);

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
  // serves its own shard and GL replica, the other daemons being its GL
  // peers. Those peers are dead in the local model: they live elsewhere.
  const bool is_monitor = flags.role == "monitor";
  MonitorService monitor;
  std::vector<MdsId> peers;
  for (MdsId p = 0; p < static_cast<MdsId>(flags.mds_count); ++p)
    if (p != flags.id) peers.push_back(p);
  if (!is_monitor)
    for (const MdsId peer : peers) (void)cluster.KillServer(peer);
  MdsServer& service_server = cluster.server(flags.id);
  MdsService service(service_server, workload.tree, cluster.assignment(),
                     *transport, [&] { return peers; });
  Transport::Handler handler = [&](const Address& from, const Message& req) {
    return is_monitor ? monitor.Handle(from, req) : service.Handle(from, req);
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
  // audit the local model before reporting.
  transport->Shutdown(/*drain=*/true);
  std::string audit_error;
  const bool consistent = cluster.CheckConsistency(&audit_error);
  const MetadataStore& local = cluster.server(flags.id).local();
  const StoreEngineStats store_stats = local.EngineStats();
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
      static_cast<unsigned long long>(is_monitor ? monitor.version()
                                                 : service_server.gl_version()),
      local.engine_name(), local.size(),
      static_cast<unsigned long long>(store_stats.tables),
      static_cast<unsigned long long>(store_stats.wal_group_commits),
      consistent ? "true" : "false");
  if (!consistent)
    std::fprintf(stderr, "mdsd: audit failed: %s\n", audit_error.c_str());
  return consistent ? 0 : 1;
}
