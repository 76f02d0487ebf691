// Real mdsd processes for the benchmark: boot, watch and stop a monitor
// plus N MDS daemons on loopback, and read the per-process counters the
// kernel keeps for them (CPU time, peak RSS) and for the host (steal).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ClusterSpec {
  std::string mdsd;  // path of the mdsd binary
  std::string profile = "lmbe";
  double scale = 0.05;
  std::uint64_t seed = 1;
  std::size_t mds_count = 3;
  std::string data_dir;  // "" = memory stores, else mdsd --data-dir
};

/// The one-line JSON summary an mdsd prints after SIGTERM, plus its exit
/// status.
struct DaemonReport {
  std::string role;
  std::uint64_t handled = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t store_records = 0;
  bool consistent = false;
  int exit_code = -1;
};

/// A monitor plus `mds_count` mdsd daemons. Spawned children get
/// PR_SET_PDEATHSIG, so they die with the benchmark; a cluster destroyed
/// while running is SIGKILLed and reaped. Launch/Stop/Kill must be called
/// from the thread that outlives the cluster (the parent-death signal is
/// tied to the spawning thread).
class DaemonCluster {
 public:
  explicit DaemonCluster(ClusterSpec spec);
  ~DaemonCluster();
  DaemonCluster(const DaemonCluster&) = delete;
  DaemonCluster& operator=(const DaemonCluster&) = delete;

  /// Reserves loopback ports and spawns every daemon without waiting.
  bool Launch(std::string* error);
  /// Blocks until every daemon has printed "MDSD LISTENING".
  bool AwaitListening(double timeout_s, std::string* error);
  /// SIGTERM, then collects each daemon's summary line and exit status.
  /// False when a daemon did not exit in time or printed no summary.
  bool Stop(double timeout_s, std::vector<DaemonReport>* reports,
            std::string* error);
  /// SIGKILL and reap (idempotent).
  void Kill();

  /// "monitor=127.0.0.1:p,mds0=...": the --peers list every daemon got.
  const std::string& peers() const { return peers_; }
  std::vector<pid_t> pids() const;

 private:
  struct Proc {
    std::string name;
    pid_t pid = -1;
    int out_fd = -1;
    std::string out;  // everything read from stdout so far
  };

  ClusterSpec spec_;
  std::string peers_;
  std::vector<Proc> procs_;
};

/// Runs `argv` to completion (stdout captured into `*out`); returns its
/// exit code, or -1 when it could not run or exceeded `timeout_s`.
int RunChild(const std::vector<std::string>& argv, double timeout_s,
             std::string* out);

/// CPU time of every thread of `pid`, ns (/proc/<pid>/task/*/schedstat).
std::uint64_t ProcessCpuNs(pid_t pid);
/// Peak resident set of `pid` (VmHWM), bytes.
std::uint64_t PeakRssBytes(pid_t pid);

struct HostCpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
/// The aggregate "cpu" line of /proc/stat.
HostCpuTicks ReadHostCpu();

/// Total size of the regular files under `dir`.
std::uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench
