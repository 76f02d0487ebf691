#include "daemons.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsLeft(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

/// Reads what is available on `fd` into `*out`, waiting at most
/// `timeout_ms`. Returns false at EOF or on a read error.
bool ReadSome(int fd, int timeout_ms, std::string* out) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return true;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return false;
  out->append(buf, static_cast<std::size_t>(n));
  return true;
}

/// Reaps `pid`, waiting until `deadline`; returns the exit code, or -1
/// (killed by a signal, or still running at the deadline — then killed).
int Reap(pid_t pid, Clock::time_point deadline) {
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) return -1;
    if (SecondsLeft(deadline) <= 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::uint64_t JsonUint(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\": ");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + key.size() + 4, nullptr, 10);
}

bool JsonTrue(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\": true") != std::string::npos;
}

std::string JsonString(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": \"";
  const auto pos = line.find(tag);
  if (pos == std::string::npos) return {};
  const auto end = line.find('"', pos + tag.size());
  return line.substr(pos + tag.size(), end - pos - tag.size());
}

/// Reserves `n` distinct free loopback ports. Every daemon needs the
/// whole peer list before any of them listens, so the ports are picked
/// up front (bound to port 0, read back, released).
bool ReservePorts(std::size_t n, std::vector<int>* ports) {
  std::vector<int> fds;
  bool ok = true;
  for (std::size_t i = 0; i < n && ok; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ok = fd >= 0 &&
         ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
         ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (fd >= 0) fds.push_back(fd);
    if (ok) ports->push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ok;
}

/// Spawns `argv` (argv[0] is a path) with stdout on a pipe; the read end
/// goes to `*out_fd`. Returns the pid, or -1.
pid_t SpawnChild(const std::vector<std::string>& argv, int* out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return -1;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return -1;
  }
  *out_fd = fds[0];
  return pid;
}

}  // namespace

int RunChild(const std::vector<std::string>& argv, double timeout_s,
             std::string* out) {
  int fd = -1;
  const pid_t pid = SpawnChild(argv, &fd);
  if (pid < 0) return -1;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (SecondsLeft(deadline) > 0 && ReadSome(fd, 50, out)) {
  }
  ::close(fd);
  return Reap(pid, deadline);
}

DaemonCluster::DaemonCluster(ClusterSpec spec) : spec_(std::move(spec)) {}

DaemonCluster::~DaemonCluster() { Kill(); }

bool DaemonCluster::Launch(std::string* error) {
  std::vector<int> ports;
  if (!ReservePorts(spec_.mds_count + 1, &ports)) {
    *error = "cannot reserve loopback ports";
    return false;
  }
  std::vector<std::string> names{"monitor"};
  for (std::size_t i = 0; i < spec_.mds_count; ++i)
    names.push_back("mds" + std::to_string(i));
  peers_.clear();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) peers_ += ",";
    peers_ += names[i] + "=127.0.0.1:" + std::to_string(ports[i]);
  }
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%.6g", spec_.scale);
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::vector<std::string> argv{spec_.mdsd, "--role",
                                  i == 0 ? "monitor" : "mds"};
    if (i > 0) {
      argv.push_back("--id");
      argv.push_back(std::to_string(i - 1));
    }
    for (const std::string& a :
         {std::string("--listen"), "127.0.0.1:" + std::to_string(ports[i]),
          std::string("--peers"), peers_, std::string("--mds-count"),
          std::to_string(spec_.mds_count), std::string("--profile"),
          spec_.profile, std::string("--scale"), std::string(scale),
          std::string("--seed"), std::to_string(spec_.seed)})
      argv.push_back(a);
    if (i > 0 && !spec_.data_dir.empty()) {
      argv.push_back("--data-dir");
      argv.push_back(spec_.data_dir);
    }
    Proc proc{names[i], -1, -1, {}};
    proc.pid = SpawnChild(argv, &proc.out_fd);
    if (proc.pid < 0) {
      *error = "cannot spawn " + spec_.mdsd;
      return false;
    }
    procs_.push_back(std::move(proc));
  }
  return true;
}

bool DaemonCluster::AwaitListening(double timeout_s, std::string* error) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (Proc& p : procs_) {
    while (p.out.find("MDSD LISTENING") == std::string::npos) {
      if (SecondsLeft(deadline) <= 0 || !ReadSome(p.out_fd, 20, &p.out)) {
        *error = p.name + " did not come up: " + p.out;
        return false;
      }
    }
  }
  return true;
}

bool DaemonCluster::Stop(double timeout_s, std::vector<DaemonReport>* reports,
                         std::string* error) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (Proc& p : procs_) ::kill(p.pid, SIGTERM);
  bool ok = true;
  for (Proc& p : procs_) {
    while (SecondsLeft(deadline) > 0 && ReadSome(p.out_fd, 50, &p.out)) {
    }
    ::close(p.out_fd);
    p.out_fd = -1;
    DaemonReport r;
    r.exit_code = Reap(p.pid, deadline);
    p.pid = -1;
    const auto brace = p.out.find('{');
    if (brace == std::string::npos) {
      *error += p.name + " printed no summary; ";
      ok = false;
    } else {
      const std::string line = p.out.substr(brace);
      r.role = JsonString(line, "role");
      r.handled = JsonUint(line, "handled");
      r.dedup_hits = JsonUint(line, "dedup_hits");
      r.corrupt_frames = JsonUint(line, "corrupt_frames");
      r.busy_rejections = JsonUint(line, "busy_rejections");
      r.store_records = JsonUint(line, "store_records");
      r.consistent = JsonTrue(line, "consistent");
    }
    reports->push_back(r);
  }
  procs_.clear();
  return ok;
}

void DaemonCluster::Kill() {
  for (Proc& p : procs_) {
    if (p.pid > 0) {
      ::kill(p.pid, SIGKILL);
      ::waitpid(p.pid, nullptr, 0);
    }
    if (p.out_fd >= 0) ::close(p.out_fd);
  }
  procs_.clear();
}

std::vector<pid_t> DaemonCluster::pids() const {
  std::vector<pid_t> out;
  for (const Proc& p : procs_) out.push_back(p.pid);
  return out;
}

std::uint64_t ProcessCpuNs(pid_t pid) {
  std::uint64_t total = 0;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream f(task.path() / "schedstat");
    std::uint64_t ns = 0;
    if (f >> ns) total += ns;
  }
  return total;
}

std::uint64_t PeakRssBytes(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return 0;
}

HostCpuTicks ReadHostCpu() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  HostCpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && (f >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
