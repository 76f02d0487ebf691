// Closed-loop load against a live mdsd cluster: client threads replay the
// workload's op stream over one SocketTransport (one pooled connection
// per daemon), time every op exactly around all of its legs, check each
// reply against the namespace model, and optionally record spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "d2tree/net/socket_transport.h"
#include "d2tree/partition/partition.h"
#include "d2tree/trace/profiles.h"

namespace perfbench {

/// What the client side knows without asking a daemon: the same namespace,
/// trace and D2-Tree partition every daemon derives from the flags.
struct Model {
  d2tree::Workload workload;
  d2tree::Assignment assignment;
  std::size_t mds_count = 3;
};

d2tree::TraceProfile ProfileFor(const std::string& name, double scale,
                                std::uint64_t seed);
Model BuildModel(const d2tree::TraceProfile& profile, std::size_t mds_count);

/// One span of the traced run: a client op ("client.op", with children
/// "core.route" and one "net.call" per leg) or an in-process layer replay.
/// Spans of one op share `trace_id`; `parent` indexes the span list (-1
/// for a root). Names are string literals.
struct Span {
  std::uint64_t trace_id = 0;
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Steady-clock timestamp, ns (the time base of every span).
std::int64_t NowNs();

enum class Phase { kMixed, kUpdates };

/// One completed op: when it ended (µs after its phase started) and how
/// long it took from send to final reply, every leg included (ns).
struct Sample {
  std::uint32_t end_us = 0;
  std::uint32_t ns = 0;
};

/// Everything one phase measured, merged over its client threads.
struct PhaseResult {
  double wall_s = 0.0;
  /// Slice boundaries, µs after the phase started; slice i is
  /// [slice_us[i], slice_us[i + 1]).
  std::vector<std::uint32_t> slice_us;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t redirects = 0;
  std::uint64_t failovers = 0;
  std::uint64_t legs = 0;       // client RPCs sent
  std::uint64_t ancestors = 0;  // Σ depth of the targets
  std::vector<Sample> stats;
  std::vector<Sample> updates;
  std::vector<Sample> gl_updates;  // updates of replicated nodes
  std::vector<Sample> ll_updates;
  std::vector<Span> spans;
  std::vector<std::string> errors;  // first few failed checks
};

/// The client side of the benchmark. Threads keep their position in the
/// op stream across phases, so a warm-up continues into the window.
class LoadClient {
 public:
  LoadClient(const Model& model, const std::string& peers,
             std::uint64_t seed, std::size_t threads);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens and warms the pooled connection to every daemon.
  bool Connect(std::string* error);

  /// Runs `threads` closed-loop clients for `seconds`, cut into `slices`
  /// equal time slices. kMixed replays the trace's ops as they are;
  /// kUpdates sends trace targets as updates, alternating global-layer and
  /// local-layer targets. `at_boundary` runs
  /// on the calling thread when the phase starts and as each slice ends.
  PhaseResult Run(Phase phase, double seconds, bool trace, int slices = 1,
                  const std::function<void()>& at_boundary = {});

  /// Sequential kHeartbeat calls to mds0 (the null RPC); latency samples.
  std::vector<std::uint32_t> NullRpc(std::size_t count);
  /// Sequential kGlWriteLock calls to the monitor; latency samples.
  std::vector<std::uint32_t> GlLockRpc(std::size_t count);

  d2tree::SocketTransport& transport() { return *transport_; }
  /// Client RPCs sent outside Run (connection warm-up and probes).
  std::uint64_t probe_calls() const { return probe_calls_; }

 private:
  struct Cursor {
    std::size_t next = 0;  // position in the trace
    std::uint64_t rng = 0;
    bool gl_next = false;  // update window: the class of the next target
  };

  const Model& model_;
  std::string peers_;
  std::shared_ptr<d2tree::SocketTransport> transport_;
  std::vector<Cursor> cursors_;
  std::uint64_t probe_calls_ = 0;
};

/// Latencies (ns) of the samples that ended in slice `i` of `phase`.
std::vector<std::uint32_t> SliceNs(const PhaseResult& phase,
                                   const std::vector<Sample>& samples,
                                   std::size_t i);

/// Exact quantile of raw samples (nearest rank), in µs; sorts `v`.
double QuantileUs(std::vector<std::uint32_t>& v, double q);
/// True when at least 10 samples lie above quantile `q`.
bool TailSupported(std::size_t samples, double q);

/// Raw TCP ping-pong of `bytes` between two threads over loopback: the
/// floor under any RPC. Latency samples per round trip.
std::vector<std::uint32_t> LoopbackFloor(std::size_t count, std::size_t bytes);

}  // namespace perfbench
