#include "layers.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>

#include "d2tree/durability/crc32.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/net/wire.h"

namespace perfbench {

using namespace d2tree;

namespace {

/// Keeps a computed value alive so the timed loop is not folded away.
volatile std::uint64_t g_sink = 0;

/// Times `fn` as one root span named `name`; returns elapsed seconds.
template <typename Fn>
double Timed(LayerRun* run, const char* name, Fn&& fn) {
  const std::int64_t start = NowNs();
  fn();
  const std::int64_t end = NowNs();
  run->spans.push_back({0x4C00000000ULL + run->spans.size(), name, -1, start,
                        end});
  return static_cast<double>(end - start) * 1e-9;
}

double PerOpNs(double seconds, std::size_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

/// One replayed op: target, the server a correctly routed request lands
/// on, and its ancestor chain.
struct ReplayOp {
  NodeId target = kInvalidNode;
  MdsId server = 0;
  bool replicated = false;
  std::vector<NodeId> ancestors;
};

/// Crc32 throughput over consecutive `chunk`-byte slices of a 4 MiB
/// buffer, MB/s (10^6 bytes).
double CrcMbPerSec(LayerRun* run, std::size_t chunk) {
  std::vector<std::uint8_t> buf(4 << 20);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& b : buf) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  chunk = std::clamp<std::size_t>(chunk, 1, buf.size());
  std::uint64_t bytes = 0;
  std::uint32_t acc = 0;
  const double s = Timed(run, "durability.crc32", [&] {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(250)) {
      for (std::size_t off = 0; off + chunk <= buf.size(); off += chunk)
        acc ^= Crc32(buf.data() + off, chunk);
      bytes += buf.size() / chunk * chunk;
    }
  });
  g_sink = g_sink + acc;
  return static_cast<double>(bytes) / s * 1e-6;
}

}  // namespace

LayerRun MeasureLayers(const TraceProfile& profile, const Model& model,
                       bool lsm, const std::string& scratch_dir,
                       std::size_t ops) {
  LayerRun run;
  const auto metric = [&run](std::string name, double value,
                             std::string unit) {
    run.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  // trace: generating the namespace and op stream every process derives.
  Workload regenerated;
  metric("trace.generate_s",
         Timed(&run, "trace.generate",
               [&] { regenerated = GenerateWorkload(profile); }),
         "s");
  if (regenerated.trace.size() != model.workload.trace.size())
    run.errors.push_back("GenerateWorkload is not deterministic");

  // partition: Tree-Splitting, mirror division and materialization into
  // memory stores.
  const NamespaceTree& tree = model.workload.tree;
  const std::size_t mds_count = model.mds_count;
  std::unique_ptr<FunctionalCluster> cluster;
  metric("partition.build_s", Timed(&run, "partition.build", [&] {
           cluster = std::make_unique<FunctionalCluster>(tree, mds_count);
         }),
         "s");
  if (cluster->assignment().owner != model.assignment.owner)
    run.errors.push_back("d2perf routing model disagrees with the cluster");

  StoreSpec spec;
  if (lsm) {
    spec.backend = StoreSpec::Backend::kLsm;
    spec.data_dir = scratch_dir + "/cluster";
    cluster.reset();
    Timed(&run, "storage.cluster_build", [&] {
      cluster = std::make_unique<FunctionalCluster>(tree, mds_count,
                                                    D2TreeConfig{}, nullptr,
                                                    spec);
    });
  }
  std::vector<MdsServer*> servers;
  for (std::size_t k = 0; k < mds_count; ++k)
    servers.push_back(&cluster->server(static_cast<MdsId>(k)));

  const auto& records = model.workload.trace.records();
  std::vector<ReplayOp> stream;
  for (std::size_t i = 0; i < std::min(ops, records.size()); ++i) {
    const NodeId target = records[i].node;
    const MdsId owner = model.assignment.OwnerOf(target);
    stream.push_back({target,
                      owner == kReplicated
                          ? static_cast<MdsId>(i % mds_count)
                          : owner,
                      owner == kReplicated, tree.AncestorsOf(target)});
  }
  std::vector<const ReplayOp*> local_ops;
  for (const ReplayOp& op : stream)
    if (!op.replicated) local_ops.push_back(&op);

  // mds: the server-side read path (ancestor checks + record lookup).
  std::vector<InodeRecord> replies(stream.size());
  std::size_t bad = 0;
  const double stat_s = Timed(&run, "mds.stat", [&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const ReplayOp& op = stream[i];
      MdsOpResult r = servers[op.server]->Stat(op.target, op.ancestors);
      if (r.status != MdsStatus::kOk || r.record.id != op.target) ++bad;
      replies[i] = std::move(r.record);
    }
  });
  metric("mds.stat_ns", PerOpNs(stat_s, stream.size()), "ns");

  // storage: the owner's MetadataStore under the same targets.
  const double get_s = Timed(&run, "storage.get", [&] {
    for (const ReplayOp* op : local_ops)
      if (!servers[op->server]->local().Get(op->target).has_value()) ++bad;
  });
  metric("storage.get_ns", PerOpNs(get_s, local_ops.size()), "ns");

  std::size_t probes = 0;
  const double contains_s = Timed(&run, "storage.contains", [&] {
    for (const ReplayOp* op : local_ops) {
      for (NodeId a : op->ancestors) {
        if (model.assignment.IsReplicated(a)) continue;  // GL replica hit
        ++probes;
        if (!servers[op->server]->local().Contains(a)) ++bad;
      }
    }
  });
  metric("storage.contains_ns", PerOpNs(contains_s, probes), "ns");

  std::uint64_t mtime = 1;
  const double update_s = Timed(&run, "mds.update_local", [&] {
    for (const ReplayOp* op : local_ops) {
      if (servers[op->server]
              ->UpdateLocal(op->target, op->ancestors, ++mtime)
              .status != MdsStatus::kOk)
        ++bad;
    }
  });
  metric("mds.update_local_ns", PerOpNs(update_s, local_ops.size()), "ns");

  std::vector<std::pair<MetadataStore*, InodeRecord>> puts;
  for (const ReplayOp* op : local_ops) {
    MetadataStore& store = servers[op->server]->local();
    auto rec = store.Get(op->target);
    if (rec.has_value()) {
      rec->attrs.mtime = ++mtime;
      puts.emplace_back(&store, std::move(*rec));
    }
  }
  const double put_s = Timed(&run, "storage.put", [&] {
    for (const auto& [store, rec] : puts) store->Put(rec);
  });
  metric("storage.put_ns", PerOpNs(put_s, puts.size()), "ns");
  if (bad != 0)
    run.errors.push_back(std::to_string(bad) +
                         " in-process replays did not find their record");

  // WAL bytes one local-layer update appends (the log resets on a flush,
  // so deltas across one are skipped).
  std::uint64_t wal_bytes = 0, wal_puts = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(puts.size(), 1000); ++i) {
    MetadataStore& store = *puts[i].first;
    const std::uint64_t before = store.EngineStats().wal_bytes;
    store.Put(puts[i].second);
    const std::uint64_t after = store.EngineStats().wal_bytes;
    if (after >= before) wal_bytes += after - before, ++wal_puts;
  }

  StoreEngineStats total;
  for (MdsServer* s : servers) {
    const StoreEngineStats st = s->local().EngineStats();
    total.gets += st.gets;
    total.bloom_skips += st.bloom_skips;
    total.flushes += st.flushes;
    total.compactions += st.compactions;
    total.tables += st.tables;
  }
  metric("storage.sealed_tables", static_cast<double>(total.tables), "count");
  metric("storage.bloom_skips_per_get",
         total.gets == 0 ? 0.0
                         : static_cast<double>(total.bloom_skips) /
                               static_cast<double>(total.gets),
         "ratio");
  metric("storage.flushes", static_cast<double>(total.flushes), "count");
  metric("storage.compactions", static_cast<double>(total.compactions),
         "count");
  metric("storage.wal_bytes_per_update",
         wal_puts == 0 ? 0.0
                       : static_cast<double>(wal_bytes) /
                             static_cast<double>(wal_puts),
         "B");

  // Bulk ingest of the largest shard into a fresh engine of the same
  // backend, record by record as materialization does, then a flush.
  std::size_t largest = 0;
  for (std::size_t k = 1; k < servers.size(); ++k)
    if (servers[k]->local().size() > servers[largest]->local().size())
      largest = k;
  const std::vector<InodeRecord> shard = servers[largest]->local().Snapshot();
  {
    MetadataStore fresh(MakeStoreEngine(spec, "ingest"));
    metric("storage.ingest_s", Timed(&run, "storage.ingest", [&] {
             for (const InodeRecord& r : shard) fresh.Put(r);
             fresh.Flush();
           }),
           "s");
    if (fresh.size() != shard.size())
      run.errors.push_back("ingested shard lost records");
  }
  cluster.reset();

  // net: the wire codec over this workload's real request/reply pairs.
  const std::size_t n = std::min<std::size_t>(stream.size(), 20000);
  std::vector<WireEnvelope> envs;
  for (std::size_t i = 0; i < n; ++i) {
    const bool update = records[i].op == OpType::kUpdate;
    const Address client = ClientAddress();
    const Address server = MdsAddress(stream[i].server);
    envs.push_back({FrameKind::kCall, i + 1, client, server,
                    Message{.type = update ? MsgType::kUpdateRequest
                                           : MsgType::kStatRequest,
                            .target = stream[i].target,
                            .mtime = update ? i : 0}});
    envs.push_back({FrameKind::kResponse, i + 1, server, client,
                    Message{.type = update ? MsgType::kUpdateResponse
                                           : MsgType::kStatResponse,
                            .target = stream[i].target,
                            .status = MdsStatus::kOk,
                            .record = replies[i]}});
  }
  constexpr int kPasses = 5;
  std::vector<std::vector<std::uint8_t>> frames(envs.size());
  const double encode_s = Timed(&run, "net.encode", [&] {
    for (int pass = 0; pass < kPasses; ++pass)
      for (std::size_t i = 0; i < envs.size(); ++i)
        frames[i] = EncodeFrame(envs[i]);
  });
  std::size_t frame_bytes = 0;
  for (const auto& f : frames) frame_bytes += f.size();
  std::size_t decode_bad = 0;
  WireEnvelope decoded;
  const double decode_s = Timed(&run, "net.decode", [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        std::size_t consumed = 0;
        if (DecodeFrame(frames[i].data(), frames[i].size(), &decoded,
                        &consumed) != DecodeStatus::kOk ||
            consumed != frames[i].size())
          ++decode_bad;
      }
    }
  });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::size_t consumed = 0;
    if (DecodeFrame(frames[i].data(), frames[i].size(), &decoded,
                    &consumed) != DecodeStatus::kOk ||
        !(decoded == envs[i]))
      ++decode_bad;
  }
  if (decode_bad != 0)
    run.errors.push_back(std::to_string(decode_bad) +
                         " frames did not decode to what was encoded");
  metric("net.encode_ns", PerOpNs(encode_s, kPasses * frames.size()), "ns");
  metric("net.decode_ns", PerOpNs(decode_s, kPasses * frames.size()), "ns");
  metric("net.frame_bytes_per_op",
         n == 0 ? 0.0
                : static_cast<double>(frame_bytes) / static_cast<double>(n),
         "B");

  // durability: CRC over LSM block-sized and frame-sized buffers.
  metric("durability.crc32_4k_mb_s", CrcMbPerSec(&run, 4096), "MB/s");
  metric("durability.crc32_frame_mb_s",
         CrcMbPerSec(&run, frames.empty() ? 64 : frame_bytes / frames.size()),
         "MB/s");

  std::error_code ec;
  std::filesystem::remove_all(scratch_dir, ec);
  return run;
}

}  // namespace perfbench
