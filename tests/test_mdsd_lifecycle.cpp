// Multi-process crash/lifecycle test: boots a real 4-process cluster
// (monitor + 3 mdsd) over TCP, replays against it, SIGKILLs one MDS
// mid-replay, and asserts the client sees exactly the in-process
// semantics — kUndeliverable for the dead peer's subtrees, continued
// service for everything else, and full recovery (with a counted
// reconnect) once the daemon is revived on the same port. Clean SIGTERM
// must drain and pass the daemons' own consistency audit (exit 0).
//
// The mdsd binary path is injected at compile time (D2TREE_MDSD_PATH,
// tests/CMakeLists.txt); the suite skips when the binary is absent.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/core/d2tree.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/net/endpoint.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

#ifndef D2TREE_MDSD_PATH
#define D2TREE_MDSD_PATH ""
#endif

constexpr std::size_t kMds = 3;
constexpr const char* kProfile = "lmbe";
constexpr const char* kScale = "0.05";
constexpr const char* kSeed = "3";

/// Reserves a loopback port: bind(0), read it back, close. The tiny
/// window before the daemon rebinds is acceptable for a test (the
/// daemon's listener uses SO_REUSEADDR).
std::uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  ::close(fd);
  return ntohs(sa.sin_port);
}

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;  // daemon's stdout (read side)
  std::uint16_t port = 0;
};

Daemon SpawnMdsd(const std::string& role, int id, std::uint16_t port,
                 const std::string& peers, const std::string& data_dir = "") {
  Daemon d;
  d.port = port;
  int pipefd[2];
  if (::pipe(pipefd) != 0) return d;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return d;
  }
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    const std::string listen = "127.0.0.1:" + std::to_string(port);
    const std::string id_str = std::to_string(id);
    const std::string mds_count = std::to_string(kMds);
    std::vector<const char*> argv = {
        D2TREE_MDSD_PATH, "--role",      role.c_str(),
        "--id",           id_str.c_str(), "--listen",
        listen.c_str(),   "--peers",     peers.c_str(),
        "--mds-count",    mds_count.c_str(), "--profile",
        kProfile,         "--scale",     kScale,
        "--seed",         kSeed};
    if (!data_dir.empty()) {
      argv.push_back("--data-dir");
      argv.push_back(data_dir.c_str());
    }
    argv.push_back(nullptr);
    ::execv(D2TREE_MDSD_PATH, const_cast<char**>(argv.data()));
    std::_Exit(127);
  }
  ::close(pipefd[1]);
  d.pid = pid;
  d.out_fd = pipefd[0];
  return d;
}

/// Blocks until the daemon prints "MDSD LISTENING <port>" (or EOF).
bool AwaitListening(const Daemon& d) {
  std::string line;
  char c;
  while (::read(d.out_fd, &c, 1) == 1) {
    if (c == '\n') {
      if (line.rfind("MDSD LISTENING ", 0) == 0) return true;
      line.clear();
    } else {
      line += c;
    }
  }
  return false;
}

/// Reaps the daemon and returns its exit code (-1 = killed by signal).
/// `last_line`, if set, gets the last line the daemon printed.
int Reap(Daemon* d, std::string* last_line = nullptr) {
  if (d->out_fd >= 0) {
    // Drain remaining output so the daemon never blocks on stdout.
    std::string out;
    char buf[4096];
    for (ssize_t n; (n = ::read(d->out_fd, buf, sizeof(buf))) > 0;)
      out.append(buf, static_cast<std::size_t>(n));
    ::close(d->out_fd);
    d->out_fd = -1;
    if (last_line != nullptr) {
      while (!out.empty() && out.back() == '\n') out.pop_back();
      *last_line = out.substr(out.find_last_of('\n') + 1);
    }
  }
  int status = 0;
  if (::waitpid(d->pid, &status, 0) != d->pid) return -2;
  d->pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class MdsdLifecycle : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(D2TREE_MDSD_PATH).empty() ||
        ::access(D2TREE_MDSD_PATH, X_OK) != 0)
      GTEST_SKIP() << "mdsd binary not available";

    monitor_port_ = PickFreePort();
    for (std::size_t i = 0; i < kMds; ++i) mds_ports_[i] = PickFreePort();
    ASSERT_NE(monitor_port_, 0);

    peers_ = "monitor=127.0.0.1:" + std::to_string(monitor_port_);
    for (std::size_t i = 0; i < kMds; ++i)
      peers_ += ",mds" + std::to_string(i) + "=127.0.0.1:" +
                std::to_string(mds_ports_[i]);

    monitor_ = SpawnMdsd("monitor", 0, monitor_port_, peers_);
    ASSERT_GT(monitor_.pid, 0);
    for (std::size_t i = 0; i < kMds; ++i) {
      mds_[i] = SpawnMdsd("mds", static_cast<int>(i), mds_ports_[i], peers_,
                          DataDir());
      ASSERT_GT(mds_[i].pid, 0);
    }
    ASSERT_TRUE(AwaitListening(monitor_));
    for (std::size_t i = 0; i < kMds; ++i) ASSERT_TRUE(AwaitListening(mds_[i]));
  }

  void TearDown() override {
    for (Daemon* d : {&monitor_, &mds_[0], &mds_[1], &mds_[2]}) {
      if (d->pid > 0) {
        ::kill(d->pid, SIGKILL);
        Reap(d);
      }
      if (d->out_fd >= 0) {
        ::close(d->out_fd);
        d->out_fd = -1;
      }
    }
  }

  /// Overridden by the persistence fixture: a non-empty directory puts
  /// every MDS daemon's own store on the LSM engine (--data-dir).
  virtual std::string DataDir() const { return ""; }

  std::uint16_t monitor_port_ = 0;
  std::uint16_t mds_ports_[kMds] = {0, 0, 0};
  std::string peers_;
  Daemon monitor_;
  Daemon mds_[kMds];
};

TEST_F(MdsdLifecycle, CrashMidReplayFailoverAndRevive) {
  // The client regenerates the daemons' exact namespace for routing and
  // as the oracle: a live daemon must answer exactly what the in-process
  // model answers.
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  FunctionalCluster model(workload.tree, kMds);
  const Assignment& assignment = model.assignment();

  SocketTransport client;
  const auto specs = ParsePeerList(peers_);
  ASSERT_TRUE(specs.has_value());
  for (const PeerSpec& spec : *specs)
    ASSERT_TRUE(client.AddPeer(spec.addr, spec.host_port));

  // Pick a GL-resident target and, per MDS, one owned local-layer target.
  NodeId gl_target = kInvalidNode;
  NodeId owned_by[kMds] = {kInvalidNode, kInvalidNode, kInvalidNode};
  for (NodeId n = 0; n < workload.tree.size(); ++n) {
    const MdsId owner = assignment.OwnerOf(n);
    if (owner == kReplicated) {
      if (gl_target == kInvalidNode) gl_target = n;
    } else if (owned_by[owner] == kInvalidNode) {
      owned_by[owner] = n;
    }
  }
  ASSERT_NE(gl_target, kInvalidNode);
  for (std::size_t i = 0; i < kMds; ++i) ASSERT_NE(owned_by[i], kInvalidNode);

  const auto stat = [&](MdsId at, NodeId target, Message* resp) {
    Message req;
    req.type = MsgType::kStatRequest;
    req.target = target;
    return client.Call(ClientAddress(), MdsAddress(at), req, resp);
  };

  // Phase 1 — replay against the healthy cluster: every owner answers,
  // and answers exactly what the in-process model answers.
  for (std::size_t i = 0; i < kMds; ++i) {
    const NodeId target = owned_by[i];
    Message resp;
    const Delivery d = stat(static_cast<MdsId>(i), target, &resp);
    ASSERT_TRUE(d.delivered) << "mds" << i;
    ASSERT_EQ(resp.status, MdsStatus::kOk);
    const auto ancestors = workload.tree.AncestorsOf(target);
    const MdsOpResult want =
        model.server(static_cast<MdsId>(i)).Stat(target, ancestors);
    EXPECT_EQ(resp.record, want.record)
        << "socket daemon and in-process model disagree on node " << target;
  }
  // The honest 1-jump: a deliberately wrong entry answers kWrongServer
  // with the owner's id, never the record.
  {
    const MdsId owner = assignment.OwnerOf(owned_by[0]);
    const MdsId wrong = static_cast<MdsId>((owner + 1) % kMds);
    Message resp;
    const Delivery d = stat(wrong, owned_by[0], &resp);
    ASSERT_TRUE(d.delivered);
    EXPECT_EQ(resp.status, MdsStatus::kWrongServer);
    EXPECT_EQ(resp.peer, owner);
  }

  // Phase 2 — SIGKILL mds1 mid-replay. In-flight and subsequent calls to
  // it must surface kUndeliverable (dead peer ≙ crashed server in the
  // in-process semantics), while every other role keeps serving.
  constexpr MdsId kVictim = 1;
  ASSERT_EQ(::kill(mds_[kVictim].pid, SIGKILL), 0);
  ASSERT_EQ(Reap(&mds_[kVictim]), -1);  // killed by signal, not exited

  Delivery dead{};
  for (int attempt = 0; attempt < 10; ++attempt) {
    Message resp;
    dead = stat(kVictim, owned_by[kVictim], &resp);
    if (!dead.delivered) break;
    // A connection that was already established can carry one more
    // request before the RST lands; retry until the failure surfaces.
  }
  EXPECT_FALSE(dead.delivered);
  EXPECT_EQ(dead.error, DeliveryError::kUndeliverable)
      << "a dead peer is undeliverable, not a timeout";

  // Failover reading: the GL replica on the survivors still answers.
  for (const MdsId survivor : {MdsId{0}, MdsId{2}}) {
    Message resp;
    const Delivery d = stat(survivor, gl_target, &resp);
    ASSERT_TRUE(d.delivered) << "survivor mds" << survivor;
    EXPECT_EQ(resp.status, MdsStatus::kOk);
  }
  // And a survivor still redirects for the dead owner's subtree — the
  // placement itself did not change (no adjustment rounds in daemons).
  {
    Message resp;
    const Delivery d = stat(MdsId{0}, owned_by[kVictim], &resp);
    ASSERT_TRUE(d.delivered);
    EXPECT_EQ(resp.status, MdsStatus::kWrongServer);
    EXPECT_EQ(resp.peer, kVictim);
  }

  // Phase 3 — revive the victim on the same port; the client's next call
  // dials a fresh connection (counted) and service resumes byte-exactly.
  const std::uint64_t reconnects_before = client.reconnects();
  mds_[kVictim] = SpawnMdsd("mds", kVictim, mds_ports_[kVictim], peers_);
  ASSERT_GT(mds_[kVictim].pid, 0);
  ASSERT_TRUE(AwaitListening(mds_[kVictim]));

  Message revived;
  Delivery d{};
  d.delivered = false;
  for (int attempt = 0; attempt < 10 && !d.delivered; ++attempt)
    d = stat(kVictim, owned_by[kVictim], &revived);
  ASSERT_TRUE(d.delivered) << "revived daemon must serve again";
  EXPECT_EQ(revived.status, MdsStatus::kOk);
  EXPECT_GT(client.reconnects(), reconnects_before);
  {
    const auto ancestors = workload.tree.AncestorsOf(owned_by[kVictim]);
    const MdsOpResult want =
        model.server(kVictim).Stat(owned_by[kVictim], ancestors);
    EXPECT_EQ(revived.record, want.record);
  }

  // Phase 4 — clean SIGTERM: every daemon drains, audits its own state and
  // exits 0 (a failed consistency audit exits 1).
  client.Shutdown();
  for (Daemon* daemon : {&mds_[0], &mds_[1], &mds_[2], &monitor_}) {
    ASSERT_EQ(::kill(daemon->pid, SIGTERM), 0);
    EXPECT_EQ(Reap(daemon), 0) << "daemon failed its shutdown audit";
  }
}

// The GL consistency model over real daemons: six writer threads, each
// owning one GL node and entering at coordinator t % 3, race 400 updates
// apiece. Once they are quiet, a Stat at every MDS must return each node's
// last acked mtime, at one version: an acked GL update has reached every
// live replica, and no replica kept an older write.
TEST_F(MdsdLifecycle, ConcurrentGlUpdatesReachEveryReplica) {
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  FunctionalCluster model(workload.tree, kMds);
  const Assignment& assignment = model.assignment();

  constexpr int kThreads = 6;
  constexpr int kUpdates = 400;
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < workload.tree.size() && nodes.size() < kThreads; ++n)
    if (assignment.OwnerOf(n) == kReplicated) nodes.push_back(n);
  ASSERT_EQ(nodes.size(), static_cast<std::size_t>(kThreads));

  SocketTransport client;
  const auto specs = ParsePeerList(peers_);
  ASSERT_TRUE(specs.has_value());
  for (const PeerSpec& spec : *specs)
    ASSERT_TRUE(client.AddPeer(spec.addr, spec.host_port));

  std::vector<std::uint64_t> last_acked(kThreads, 0);
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 1; i <= kUpdates; ++i) {
        const std::uint64_t mtime =
            static_cast<std::uint64_t>(t + 1) * 1'000'000 + i;
        Message req;
        req.type = MsgType::kUpdateRequest;
        req.target = nodes[t];
        req.mtime = mtime;
        Message resp;
        const Delivery d = client.Call(
            ClientAddress(), MdsAddress(static_cast<MdsId>(t % kMds)), req,
            &resp);
        if (d.delivered && resp.status == MdsStatus::kOk)
          last_acked[t] = mtime;
        else
          ++failed;
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failed.load(), 0) << "every GL update must be acked";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(last_acked[t], 0u);
    std::uint64_t version = 0;
    for (std::size_t k = 0; k < kMds; ++k) {
      Message req;
      req.type = MsgType::kStatRequest;
      req.target = nodes[t];
      Message resp;
      const Delivery d = client.Call(
          ClientAddress(), MdsAddress(static_cast<MdsId>(k)), req, &resp);
      ASSERT_TRUE(d.delivered) << "mds" << k;
      ASSERT_EQ(resp.status, MdsStatus::kOk);
      EXPECT_EQ(resp.record.attrs.mtime, last_acked[t])
          << "node " << nodes[t] << " at mds" << k
          << " kept an older write";
      if (k == 0) version = resp.record.version;
      EXPECT_EQ(resp.record.version, version)
          << "node " << nodes[t] << " at mds" << k;
    }
  }

  client.Shutdown();
  for (Daemon* daemon : {&mds_[0], &mds_[1], &mds_[2], &monitor_}) {
    ASSERT_EQ(::kill(daemon->pid, SIGTERM), 0);
    EXPECT_EQ(Reap(daemon), 0) << "daemon failed its shutdown audit";
  }
}

// More concurrent GL writers than the whole cluster has workers (3 MDS
// daemons x 4), all on two hot nodes: every coordinator's worker waits on
// the lock or on its commit legs at once. Those legs are answered on the
// peers' event loops, never by a worker, so no round waits for a worker
// that is itself waiting: every update is acked, and the replicas agree.
TEST_F(MdsdLifecycle, MoreGlWritersThanWorkersAllAck) {
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  FunctionalCluster model(workload.tree, kMds);
  std::vector<NodeId> hot;
  for (NodeId n = 0; n < workload.tree.size() && hot.size() < 2; ++n)
    if (model.assignment().OwnerOf(n) == kReplicated) hot.push_back(n);
  ASSERT_EQ(hot.size(), 2u);

  SocketTransport client;
  const auto specs = ParsePeerList(peers_);
  ASSERT_TRUE(specs.has_value());
  for (const PeerSpec& spec : *specs)
    ASSERT_TRUE(client.AddPeer(spec.addr, spec.host_port));

  constexpr int kThreads = 16;
  constexpr int kUpdates = 100;
  std::atomic<int> failed{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 1; i <= kUpdates; ++i) {
        Message req;
        req.type = MsgType::kUpdateRequest;
        req.target = hot[t % 2];
        req.mtime = static_cast<std::uint64_t>(t + 1) * 1'000'000 + i;
        Message resp;
        const Delivery d = client.Call(
            ClientAddress(), MdsAddress(static_cast<MdsId>(t % kMds)), req,
            &resp);
        if (!d.delivered || resp.status != MdsStatus::kOk) ++failed;
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failed.load(), 0) << "every GL update must be acked";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  for (const NodeId node : hot) {
    std::vector<InodeRecord> seen;
    for (std::size_t k = 0; k < kMds; ++k) {
      Message req;
      req.type = MsgType::kStatRequest;
      req.target = node;
      Message resp;
      const Delivery d = client.Call(
          ClientAddress(), MdsAddress(static_cast<MdsId>(k)), req, &resp);
      ASSERT_TRUE(d.delivered) << "mds" << k;
      ASSERT_EQ(resp.status, MdsStatus::kOk);
      seen.push_back(resp.record);
    }
    for (std::size_t k = 1; k < kMds; ++k) {
      EXPECT_EQ(seen[k].version, seen[0].version) << "node " << node;
      EXPECT_EQ(seen[k].attrs.mtime, seen[0].attrs.mtime) << "node " << node;
    }
  }

  client.Shutdown();
  for (Daemon* daemon : {&mds_[0], &mds_[1], &mds_[2], &monitor_}) {
    ASSERT_EQ(::kill(daemon->pid, SIGTERM), 0);
    EXPECT_EQ(Reap(daemon), 0) << "daemon failed its shutdown audit";
  }
}

/// The value of `"key": <number>` in a daemon's JSON summary line.
std::size_t JsonCount(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) return static_cast<std::size_t>(-1);
  return std::strtoull(line.c_str() + at + key.size() + 4, nullptr, 10);
}

// Each role holds only its part of the system: the Monitor no records at
// all, each MDS exactly the local-layer records it owns, so the three
// shards add up to the namespace's local layer.
TEST_F(MdsdLifecycle, EachRoleHoldsOnlyItsOwnState) {
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  const Assignment assignment = D2TreeScheme{}.Partition(
      workload.tree, MdsCluster::Homogeneous(kMds));
  std::size_t owned[kMds] = {0, 0, 0};
  std::size_t ll_nodes = 0;
  for (NodeId n = 0; n < workload.tree.size(); ++n) {
    const MdsId owner = assignment.OwnerOf(n);
    if (owner == kReplicated) continue;
    ++owned[owner];
    ++ll_nodes;
  }

  std::string line;
  ASSERT_EQ(::kill(monitor_.pid, SIGTERM), 0);
  EXPECT_EQ(Reap(&monitor_, &line), 0);
  EXPECT_NE(line.find("\"store\": \"none\""), std::string::npos) << line;
  EXPECT_EQ(JsonCount(line, "store_records"), 0u) << line;
  EXPECT_NE(line.find("\"consistent\": true"), std::string::npos) << line;
  std::size_t held = 0;
  for (std::size_t i = 0; i < kMds; ++i) {
    ASSERT_EQ(::kill(mds_[i].pid, SIGTERM), 0);
    EXPECT_EQ(Reap(&mds_[i], &line), 0) << "mds" << i << ": " << line;
    EXPECT_EQ(JsonCount(line, "store_records"), owned[i])
        << "mds" << i << ": " << line;
    held += JsonCount(line, "store_records");
  }
  EXPECT_EQ(held, ll_nodes);
}

/// Runs mdsd with `args` and returns its exit code, or -1 when it is
/// still running after `timeout_s` (then it is killed).
int RunMdsd(const std::vector<std::string>& args, double timeout_s = 10.0) {
  const pid_t pid = ::fork();
  if (pid < 0) return -2;
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    std::vector<const char*> argv = {D2TREE_MDSD_PATH};
    for (const std::string& a : args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    ::execv(D2TREE_MDSD_PATH, const_cast<char**>(argv.data()));
    std::_Exit(127);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A numeric flag is parsed whole and range-checked: a bad one exits 2
// with the usage line instead of aborting, or serving some other role.
TEST(MdsdFlags, MalformedNumbersExitWithUsage) {
  if (std::string(D2TREE_MDSD_PATH).empty() ||
      ::access(D2TREE_MDSD_PATH, X_OK) != 0)
    GTEST_SKIP() << "mdsd binary not available";
  const std::vector<std::vector<std::string>> bad = {
      {"--mds-count", "-1"}, {"--id", "abc"}, {"--scale", "abc"}};
  for (const auto& flag : bad) {
    std::vector<std::string> args = {"--role", "mds", "--listen",
                                     "127.0.0.1:0"};
    args.insert(args.end(), flag.begin(), flag.end());
    EXPECT_EQ(RunMdsd(args), 2) << flag[0] << " " << flag[1];
  }
}

/// Same 4-process cluster, but every MDS daemon persists its own store
/// under a shared --data-dir, each in its own <dir>/mds<id>/, so the
/// daemons never cross-write.
class MdsdPersistence : public MdsdLifecycle {
 protected:
  MdsdPersistence() {
    data_dir_ = "/tmp/d2t_mdsd_persist_" + std::to_string(::getpid()) +
                "_XXXXXX";
    if (::mkdtemp(data_dir_.data()) == nullptr) data_dir_.clear();
  }
  ~MdsdPersistence() override {
    if (!data_dir_.empty()) {
      const std::string cmd = "rm -rf '" + data_dir_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  std::string DataDir() const override { return data_dir_; }

  std::string data_dir_;
};

TEST_F(MdsdPersistence, MutationsSurviveSigkillRestart) {
  ASSERT_FALSE(data_dir_.empty());

  // The client regenerates the daemons' namespace as the routing oracle.
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  FunctionalCluster model(workload.tree, kMds);
  const Assignment& assignment = model.assignment();

  SocketTransport client;
  const auto specs = ParsePeerList(peers_);
  ASSERT_TRUE(specs.has_value());
  for (const PeerSpec& spec : *specs)
    ASSERT_TRUE(client.AddPeer(spec.addr, spec.host_port));

  constexpr MdsId kVictim = 1;
  NodeId target = kInvalidNode;
  for (NodeId n = 0; n < workload.tree.size() && target == kInvalidNode; ++n)
    if (assignment.OwnerOf(n) == kVictim) target = n;
  ASSERT_NE(target, kInvalidNode);

  // Mutate the victim's subtree over the wire, mirroring the op on the
  // in-process model — the oracle for what must survive.
  constexpr std::uint64_t kMtime = 777777;
  {
    Message req;
    req.type = MsgType::kUpdateRequest;
    req.target = target;
    req.mtime = kMtime;
    Message resp;
    const Delivery d =
        client.Call(ClientAddress(), MdsAddress(kVictim), req, &resp);
    ASSERT_TRUE(d.delivered);
    ASSERT_EQ(resp.status, MdsStatus::kOk);
  }
  const auto ancestors = workload.tree.AncestorsOf(target);
  const MdsOpResult want =
      model.server(kVictim).UpdateLocal(target, ancestors, kMtime);
  ASSERT_EQ(want.status, MdsStatus::kOk);
  EXPECT_GT(want.record.version, 0u);

  // SIGKILL — no drain, no flush; only what the engine WAL group-committed
  // survives. Then restart on the same port AND the same --data-dir.
  ASSERT_EQ(::kill(mds_[kVictim].pid, SIGKILL), 0);
  ASSERT_EQ(Reap(&mds_[kVictim]), -1);
  mds_[kVictim] = SpawnMdsd("mds", kVictim, mds_ports_[kVictim], peers_,
                            data_dir_);
  ASSERT_GT(mds_[kVictim].pid, 0);
  ASSERT_TRUE(AwaitListening(mds_[kVictim]));

  // The revived daemon must answer the *mutated* record — a volatile
  // daemon would have regenerated the pristine tree and lost the update.
  Message revived;
  Delivery d{};
  d.delivered = false;
  for (int attempt = 0; attempt < 10 && !d.delivered; ++attempt) {
    Message req;
    req.type = MsgType::kStatRequest;
    req.target = target;
    d = client.Call(ClientAddress(), MdsAddress(kVictim), req, &revived);
  }
  ASSERT_TRUE(d.delivered);
  ASSERT_EQ(revived.status, MdsStatus::kOk);
  EXPECT_EQ(revived.record.attrs.mtime, kMtime)
      << "mutation lost across SIGKILL: store did not persist";
  EXPECT_EQ(revived.record, want.record)
      << "revived daemon and in-process oracle disagree";

  // Clean shutdown: each daemon's exit audit must still pass, and the
  // victim's store directory must audit clean offline (the d2fsck gate).
  client.Shutdown();
  for (Daemon* daemon : {&mds_[0], &mds_[1], &mds_[2], &monitor_}) {
    ASSERT_EQ(::kill(daemon->pid, SIGTERM), 0);
    EXPECT_EQ(Reap(daemon), 0) << "daemon failed its shutdown audit";
  }
  const FsckReport report =
      FsckStoreDir(data_dir_ + "/mds" + std::to_string(kVictim) + "/local");
  EXPECT_TRUE(report.clean()) << FormatFsckReport(report);
}

}  // namespace
}  // namespace d2tree
