// d2perf — the benchmark's load generator. Boots a real mdsd cluster (a monitor
// plus N MDS daemons on loopback), drives it closed-loop from client
// threads, checks every reply and the daemons' shutdown audits, and writes
// one JSON report. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and metrics.
//
//   d2perf --mdsd PATH --fsck PATH --profile lmbe|ra --scale S
//          --backend mem|lsm --seed N --seconds S --trace 0|1
//          --work DIR --report FILE [--spans FILE] [--setups K]
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced
// (--trace 1) it reports per-layer metrics, writes a span file and adds
// the in-process layer replays. Exit 0 when the run completed (the report
// says whether every check passed), 2 on bad flags, 1 when the run could
// not be carried out.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemons.h"
#include "layers.h"
#include "load.h"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Flags {
  std::string mdsd, fsck, profile = "lmbe", backend = "mem";
  double scale = 0.05;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work, report, spans;
  int setups = 3;
};

constexpr std::size_t kMdsCount = 3;
constexpr std::size_t kClientThreads = 4;
/// Share of --seconds given to the mixed (trace replay) window; the rest
/// measures updates.
constexpr double kMixedShare = 0.7;

/// Number of about half-second slices a window of `seconds` is cut into.
int Slices(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / 0.5)));
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--mdsd") f->mdsd = v;
    else if (k == "--fsck") f->fsck = v;
    else if (k == "--profile") f->profile = v;
    else if (k == "--backend") f->backend = v;
    else if (k == "--scale") f->scale = std::atof(v.c_str());
    else if (k == "--seed") f->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") f->seconds = std::atof(v.c_str());
    else if (k == "--trace") f->trace = v == "1";
    else if (k == "--work") f->work = v;
    else if (k == "--report") f->report = v;
    else if (k == "--spans") f->spans = v;
    else if (k == "--setups") f->setups = std::atoi(v.c_str());
    else return false;
  }
  return argc % 2 == 1 && !f->mdsd.empty() && !f->fsck.empty() &&
         !f->work.empty() && !f->report.empty() && f->scale > 0 &&
         f->seconds > 0 && f->setups > 0 &&
         (f->backend == "mem" || f->backend == "lsm") &&
         (f->profile == "lmbe" || f->profile == "ra");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the daemons and of this process, ns.
struct CpuSnapshot {
  std::uint64_t daemons = 0;
  std::uint64_t client = 0;
  HostCpuTicks host;
};

CpuSnapshot TakeCpu(const std::vector<pid_t>& daemons) {
  CpuSnapshot s;
  for (pid_t pid : daemons) s.daemons += ProcessCpuNs(pid);
  s.client = ProcessCpuNs(getpid());
  s.host = ReadHostCpu();
  return s;
}

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& what) { errors_.push_back(what); }
  void Note(const std::string& what) { notes_.push_back(what); }
  bool ok() const { return errors_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool Write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"correct\": " << (ok() && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ",\n \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i)
      f << (i ? ", " : "") << '"' << JsonEscape(errors_[i]) << '"';
    f << "],\n \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i)
      f << (i ? ", " : "") << '"' << JsonEscape(notes_[i]) << '"';
    f << "],\n \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      f << (i ? ",\n  " : "\n  ") << '"' << metrics_[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \""
        << metrics_[i].unit << "\"}";
    }
    f << "}}\n";
    return static_cast<bool>(f);
  }

 private:
  std::vector<perfbench::Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
};

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"trace_id\": " << s.trace_id << ", \"span_id\": " << i
      << ", \"parent_id\": ";
    if (s.parent < 0) f << "null";
    else f << s.parent;
    f << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << "}\n";
  }
}

/// Mean duration of the spans named `name`, ns.
double MeanSpanNs(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      total += static_cast<double>(s.end_ns - s.start_ns);
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Share of the host's CPU time the hypervisor stole between two readings.
double StealFrac(const HostCpuTicks& a, const HostCpuTicks& b) {
  return b.total == a.total ? 0.0
                            : static_cast<double>(b.steal - a.steal) /
                                  static_cast<double>(b.total - a.total);
}

/// The slices of a window whose figures count: those whose host steal is
/// at most the window's median slice steal, so at least half of them. On a
/// shared host the hypervisor steals CPU unevenly, and a slice with 15%
/// steal loses 40% of its throughput; the quieter half of a window
/// measures the program rather than its neighbours. `host` holds the
/// readings taken at the slice boundaries.
std::vector<bool> QuietSlices(const std::vector<HostCpuTicks>& host) {
  std::vector<double> steal;
  for (std::size_t i = 0; i + 1 < host.size(); ++i)
    steal.push_back(StealFrac(host[i], host[i + 1]));
  const double cut = Median(steal);
  std::vector<bool> quiet;
  for (double s : steal) quiet.push_back(s <= cut);
  return quiet;
}

/// Reports `name`: the median over the quiet slices of `phase` of the
/// exact `q`-quantile of `samples`. Each of those slices needs at least 10
/// samples above the quantile, or the run cannot produce the number.
void SliceQuantile(Report* report, const std::string& name,
                   const PhaseResult& phase, const std::vector<bool>& quiet,
                   const std::vector<Sample>& samples, double q) {
  std::vector<double> per_slice;
  for (std::size_t i = 0; i + 1 < phase.slice_us.size(); ++i) {
    if (!quiet[i]) continue;
    std::vector<std::uint32_t> ns = SliceNs(phase, samples, i);
    if (!TailSupported(ns.size(), q)) {
      report->Fail(name + ": " + std::to_string(ns.size()) +
                   " samples in a slice are too few");
    }
    per_slice.push_back(QuantileUs(ns, q));
  }
  report->Metric(name, Median(per_slice), "us");
}

int Run(const Flags& flags) {
  Report report;
  const bool lsm = flags.backend == "lsm";
  const d2tree::TraceProfile profile =
      ProfileFor(flags.profile, flags.scale, flags.seed);
  std::filesystem::create_directories(flags.work);

  // --- Set-up, repeated: launch the daemons and build the routing model
  // concurrently; setup_s is the median. Only the last cluster serves.
  ClusterSpec spec{flags.mdsd, flags.profile, flags.scale, flags.seed,
                   kMdsCount, ""};
  std::vector<double> setup_s;
  std::unique_ptr<DaemonCluster> cluster;
  Model model;
  for (int rep = 0; rep < flags.setups; ++rep) {
    spec.data_dir = lsm ? flags.work + "/data" + std::to_string(rep) : "";
    if (lsm) std::filesystem::remove_all(spec.data_dir);
    cluster = std::make_unique<DaemonCluster>(spec);
    std::string error;
    const auto t0 = Clock::now();
    if (!cluster->Launch(&error)) {
      std::fprintf(stderr, "d2perf: %s\n", error.c_str());
      return 1;
    }
    model = BuildModel(profile, kMdsCount);
    if (!cluster->AwaitListening(120.0, &error)) {
      std::fprintf(stderr, "d2perf: cluster did not boot: %s\n",
                   error.c_str());
      return 1;
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    if (rep + 1 < flags.setups) {
      cluster->Kill();
      if (lsm) std::filesystem::remove_all(spec.data_dir);
    }
  }
  const std::vector<pid_t> pids = cluster->pids();

  LoadClient load(model, cluster->peers(), flags.seed, kClientThreads);
  std::string error;
  if (!load.Connect(&error)) {
    std::fprintf(stderr, "d2perf: %s\n", error.c_str());
    return 1;
  }

  // --- Measured phases: warm-up, the mixed window (traced runs add a
  // traced copy of it), then the update window. Windows are cut into
  // slices; the end-to-end figures are medians over the quiet slices (see
  // QuietSlices).
  const PhaseResult warm = load.Run(Phase::kMixed, 0.5, false);
  const double mixed_s =
      flags.seconds * kMixedShare / (flags.trace ? 2.0 : 1.0);
  const double update_s = flags.seconds * (1.0 - kMixedShare);
  std::vector<CpuSnapshot> cpu;
  const PhaseResult mixed =
      load.Run(Phase::kMixed, mixed_s, false, Slices(mixed_s),
                 [&] { cpu.push_back(TakeCpu(pids)); });
  PhaseResult traced;
  if (flags.trace) traced = load.Run(Phase::kMixed, mixed_s, true);
  std::vector<HostCpuTicks> update_host;
  const PhaseResult updates =
      load.Run(Phase::kUpdates, update_s, false, Slices(update_s),
               [&] { update_host.push_back(ReadHostCpu()); });
  const PhaseResult* phases[] = {&warm, &mixed, &traced, &updates};

  std::vector<std::uint32_t> floor_ns, null_ns, lock_ns;
  if (flags.trace) {
    floor_ns = LoopbackFloor(20000, 64);
    null_ns = load.NullRpc(20000);
    lock_ns = load.GlLockRpc(5000);
  }

  std::uint64_t rss = 0;
  for (pid_t pid : pids) rss += PeakRssBytes(pid);

  for (const PhaseResult* p : phases) {
    report.attempted += p->ops;
    report.failed += p->failed;
    for (const std::string& e : p->errors) report.Fail(e);
    if (p->failovers != 0)
      report.Fail(std::to_string(p->failovers) + " failover legs");
  }

  // --- Shutdown audit: every daemon drains, passes its consistency
  // check and exits 0; LSM stores must pass d2fsck afterwards.
  std::vector<DaemonReport> daemons;
  if (!cluster->Stop(120.0, &daemons, &error)) report.Fail(error);
  std::uint64_t handled = 0, busy = 0, dedup = 0, corrupt = 0, records = 0;
  for (const DaemonReport& d : daemons) {
    if (d.exit_code != 0 || !d.consistent)
      report.Fail(d.role + " exited " + std::to_string(d.exit_code) +
                  (d.consistent ? "" : " with an inconsistent audit"));
    handled += d.handled;
    busy += d.busy_rejections;
    dedup += d.dedup_hits;
    corrupt += d.corrupt_frames;
    if (d.role == "mds") records += d.store_records;
  }
  double disk_bytes_per_record = 0.0;
  if (lsm) {
    std::uint64_t bytes = 0;
    for (std::size_t k = 0; k < kMdsCount; ++k) {
      const std::string dir = spec.data_dir + "/mds" + std::to_string(k);
      bytes += DirBytes(dir);
      std::string out;
      const int rc = RunChild({flags.fsck, "--store", dir + "/local"}, 120.0,
                              &out);
      if (rc != 0)
        report.Fail("d2fsck --store " + dir + "/local exited " +
                    std::to_string(rc) + ": " + out);
    }
    disk_bytes_per_record =
        records == 0 ? 0.0
                     : static_cast<double>(bytes) / static_cast<double>(records);
    std::filesystem::remove_all(spec.data_dir);
  }

  // Throughput and CPU per op over the quiet slices of the mixed window:
  // the daemons' and this process's CPU time over the ops that completed
  // in the slice.
  std::vector<HostCpuTicks> mixed_host;
  for (const CpuSnapshot& c : cpu) mixed_host.push_back(c.host);
  const std::vector<bool> mixed_quiet = QuietSlices(mixed_host);
  const std::vector<bool> update_quiet = QuietSlices(update_host);
  std::vector<double> ops_s, daemon_cpu_us, client_cpu_us, total_cpu_us;
  for (std::size_t i = 0; i + 1 < mixed.slice_us.size(); ++i) {
    if (!mixed_quiet[i]) continue;
    const double ops = static_cast<double>(
        SliceNs(mixed, mixed.stats, i).size() +
        SliceNs(mixed, mixed.updates, i).size());
    const double dt = (mixed.slice_us[i + 1] - mixed.slice_us[i]) * 1e-6;
    ops_s.push_back(ops / dt);
    if (ops == 0) continue;  // a stalled slice has no CPU per op
    const double d_us = (cpu[i + 1].daemons - cpu[i].daemons) * 1e-3 / ops;
    const double c_us = (cpu[i + 1].client - cpu[i].client) * 1e-3 / ops;
    daemon_cpu_us.push_back(d_us);
    client_cpu_us.push_back(c_us);
    total_cpu_us.push_back(d_us + c_us);
  }
  const double steal_frac = StealFrac(mixed_host.front(), update_host.back());
  report.Note("stat samples " + std::to_string(mixed.stats.size()) +
              ", update samples " + std::to_string(updates.updates.size()) +
              " (gl " + std::to_string(updates.gl_updates.size()) +
              ", ll " + std::to_string(updates.ll_updates.size()) + ")");
  char note[160];
  const auto count = [](const std::vector<bool>& v) {
    return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
  };
  std::snprintf(note, sizeof(note),
                "host steal %.4f, quiet slices %zu of %zu (mixed) and %zu of "
                "%zu (updates), setup runs %zu",
                steal_frac, count(mixed_quiet), mixed_quiet.size(),
                count(update_quiet), update_quiet.size(), setup_s.size());
  report.Note(note);

  if (!flags.trace) {
    report.Metric("ops_per_sec", Median(ops_s), "ops/s");
    SliceQuantile(&report, "stat_p50_us", mixed, mixed_quiet, mixed.stats,
                  0.50);
    // GL and LL updates cost different numbers of RPCs, so the median of
    // their mix would sit between two modes; each class gets its own.
    SliceQuantile(&report, "update_gl_p50_us", updates, update_quiet,
                  updates.gl_updates, 0.50);
    SliceQuantile(&report, "update_ll_p50_us", updates, update_quiet,
                  updates.ll_updates, 0.50);
    report.Metric("cpu_us_per_op", Median(total_cpu_us), "us");
    report.Metric("server_rss_mb", static_cast<double>(rss) * 1e-6, "MB");
    report.Metric("setup_s", Median(setup_s), "s");
  } else {
    const auto per_op = [&](double v) {
      return v / static_cast<double>(mixed.ops);
    };
    report.Metric("core.redirects_per_op",
                  per_op(static_cast<double>(mixed.redirects)), "ratio");
    report.Metric("nstree.ancestors_per_op",
                  per_op(static_cast<double>(mixed.ancestors)), "count");
    report.Metric("core.route_ns", MeanSpanNs(traced.spans, "core.route"),
                  "ns");
    report.Metric("net.client_rpcs_per_op",
                  per_op(static_cast<double>(mixed.legs)), "ratio");
    std::uint64_t client_ops = 0;
    for (const PhaseResult* p : phases) client_ops += p->ops;
    const std::uint64_t probes = load.probe_calls();
    report.Metric("mds.server_rpcs_per_op",
                  handled > probes ? static_cast<double>(handled - probes) /
                                         static_cast<double>(client_ops)
                                   : 0.0,
                  "ratio");
    report.Metric("net.busy_rejections", static_cast<double>(busy), "count");
    report.Metric("net.dedup_hits",
                  static_cast<double>(dedup + load.transport().dedup_hits()),
                  "count");
    report.Metric("net.reconnects",
                  static_cast<double>(load.transport().reconnects()),
                  "count");
    report.Metric("net.corrupt_frames",
                  static_cast<double>(corrupt +
                                      load.transport().corrupt_frames()),
                  "count");
    const double floor_p50 = QuantileUs(floor_ns, 0.50);
    const double null_p50 = QuantileUs(null_ns, 0.50);
    report.Metric("net.floor_p50_us", floor_p50, "us");
    report.Metric("net.null_rpc_p50_us", null_p50, "us");
    report.Metric("net.null_rpc_p99_us", QuantileUs(null_ns, 0.99), "us");
    report.Metric("net.rpc_over_floor",
                  floor_p50 > 0 ? null_p50 / floor_p50 : 0.0, "ratio");
    report.Metric("mds.gl_lock_rpc_p50_us", QuantileUs(lock_ns, 0.50), "us");
    // Tails: diagnostics only, they do not repeat across runs on a shared
    // host (steal, LSM flushes inside a short window).
    SliceQuantile(&report, "client.stat_p99_us", mixed, mixed_quiet,
                  mixed.stats, 0.99);
    SliceQuantile(&report, "client.update_p99_us", updates, update_quiet,
                  updates.updates, 0.99);
    report.Metric("mds.cpu_us_per_op", Median(daemon_cpu_us), "us");
    report.Metric("client.cpu_us_per_op", Median(client_cpu_us), "us");
    report.Metric("storage.disk_bytes_per_record", disk_bytes_per_record, "B");
    report.Metric("bench.stat_samples",
                  static_cast<double>(mixed.stats.size()), "count");
    report.Metric("bench.update_samples",
                  static_cast<double>(updates.updates.size()), "count");
    report.Metric("bench.host_steal_frac", steal_frac, "ratio");
    report.Metric("bench.tracing_overhead_frac",
                  1.0 - (static_cast<double>(traced.ops) / traced.wall_s) /
                            (static_cast<double>(mixed.ops) / mixed.wall_s),
                  "ratio");

    LayerRun layers = MeasureLayers(profile, model, lsm,
                                    flags.work + "/inproc", 50000);
    for (const perfbench::Metric& m : layers.metrics)
      report.Metric(m.name, m.value, m.unit);
    for (const std::string& e : layers.errors) report.Fail(e);
    std::vector<Span> spans = traced.spans;
    spans.insert(spans.end(), layers.spans.begin(), layers.spans.end());
    if (!flags.spans.empty()) {
      WriteSpans(flags.spans, spans);
      report.Note("spans: " + std::to_string(spans.size()) + " in " +
                  flags.spans);
    }
  }

  if (!report.Write(flags.report)) {
    std::fprintf(stderr, "d2perf: cannot write %s\n", flags.report.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: d2perf --mdsd PATH --fsck PATH --profile lmbe|ra "
                 "--scale S --backend mem|lsm --seed N --seconds S "
                 "--trace 0|1 --work DIR --report FILE [--spans FILE] "
                 "[--setups K]\n");
    return 2;
  }
  return Run(flags);
}
