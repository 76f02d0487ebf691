// Backend-parameterized store property suite (LABELS "store").
//
// The contract DESIGN.md §10 pins: *record semantics are identical across
// backends*. One seeded random operation stream — Put, Remove, Mutate,
// ExtractAll/InsertAll round trips, table extract/ingest — drives a
// MetadataStore on each backend; after every batch the suites compare
// size, HeldIds, Snapshot and point Gets byte-for-byte. The LSM run
// additionally injects Reopen() (≙ process crash + restart) at seeded
// points: a durable backend must come back indistinguishable, which is
// exactly what the cluster's persistent-restart path relies on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "d2tree/mds/store.h"
#include "d2tree/storage/lsm_engine.h"
#include "d2tree/storage/memory_engine.h"

namespace d2tree {
namespace {

namespace fs = std::filesystem;

enum class Backend : std::uint32_t { kMemory, kLsm };

const char* BackendName(Backend b) {
  return b == Backend::kMemory ? "memory" : "lsm";
}

// Plain values only, no pointers and no padding: gtest prints the raw
// bytes of the parameter into each test's listed name, so this keeps
// those names identical from run to run.
struct BackendParam {
  Backend backend;
  std::uint32_t reopen_every;  // crash/restart every N batches (0 = never)
  std::uint64_t stream_seed;   // seeds the random operation stream
};

class StoreProperty : public ::testing::TestWithParam<BackendParam> {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("d2t_prop_" + std::string(BackendName(GetParam().backend)) + "_" +
             std::to_string(::getpid()) + "_XXXXXX"))
               .string();
    ASSERT_NE(::mkdtemp(dir_.data()), nullptr);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::unique_ptr<StoreEngine> MakeEngine(const std::string& instance) {
    if (GetParam().backend == Backend::kMemory)
      return std::make_unique<MemoryEngine>();
    LsmOptions options;
    options.memtable_limit_bytes = 8192;  // exercise seals + compactions
    options.tier_fanout = 2;
    return std::make_unique<LsmEngine>(dir_ + "/" + instance, options);
  }

  std::string dir_;
};

InodeRecord RandomRecord(std::mt19937_64& rng, NodeId id) {
  InodeRecord r;
  r.id = id;
  r.parent = static_cast<NodeId>(rng() % 64);
  r.name = "n" + std::to_string(rng() % 100000);
  r.type = (rng() & 1) != 0 ? NodeType::kDirectory : NodeType::kFile;
  r.attrs.mtime = rng() % 1000000;
  r.attrs.size = rng() % (1 << 20);
  r.version = rng() % 32;
  return r;
}

/// The oracle: a MetadataStore on the memory engine, driven in lockstep.
void ExpectStoresAgree(const MetadataStore& got, const MetadataStore& want,
                       const char* when) {
  ASSERT_EQ(got.size(), want.size()) << when;
  ASSERT_EQ(got.HeldIds(), want.HeldIds()) << when;
  const auto got_snap = got.Snapshot();
  const auto want_snap = want.Snapshot();
  ASSERT_EQ(got_snap.size(), want_snap.size()) << when;
  for (std::size_t i = 0; i < got_snap.size(); ++i)
    ASSERT_EQ(got_snap[i], want_snap[i])
        << when << ": snapshot diverges at index " << i;
}

TEST_P(StoreProperty, SeededOpStreamMatchesMemoryOracle) {
  MetadataStore store(MakeEngine("subject"));
  MetadataStore oracle;  // memory reference

  std::mt19937_64 rng(GetParam().stream_seed);
  constexpr int kBatches = 40;
  constexpr int kOpsPerBatch = 64;
  constexpr NodeId kIdSpace = 512;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      const NodeId id = static_cast<NodeId>(rng() % kIdSpace);
      switch (rng() % 4) {
        case 0:
        case 1: {  // bias toward growth
          const InodeRecord r = RandomRecord(rng, id);
          store.Put(r);
          oracle.Put(r);
          break;
        }
        case 2: {
          const auto a = store.Remove(id);
          const auto b = oracle.Remove(id);
          ASSERT_EQ(a, b) << "Remove(" << id << ") diverged";
          break;
        }
        case 3: {
          const std::uint64_t mtime = rng() % 1000000;
          const auto a = store.Mutate(id, mtime);
          const auto b = oracle.Mutate(id, mtime);
          ASSERT_EQ(a, b) << "Mutate(" << id << ") diverged";
          break;
        }
      }
    }

    // Every batch: point reads over the whole id space + full snapshots.
    for (NodeId id = 0; id < kIdSpace; id += 7)
      ASSERT_EQ(store.Get(id), oracle.Get(id)) << "Get(" << id << ")";
    ExpectStoresAgree(store, oracle,
                      ("after batch " + std::to_string(batch)).c_str());

    // Crash/restart injection: a durable backend must resume identical.
    const std::uint32_t every = GetParam().reopen_every;
    if (every != 0 && batch % every == every - 1) {
      const StoreRecoveryInfo info = store.Reopen();
      EXPECT_TRUE(info.opened_existing);
      ExpectStoresAgree(store, oracle, "after Reopen()");
    }
  }
  EXPECT_TRUE(store.AuditStorage().empty());
}

TEST_P(StoreProperty, BulkExtractInsertAndTableShippingRoundTrip) {
  MetadataStore store(MakeEngine("bulk"));
  MetadataStore oracle;
  std::mt19937_64 rng(0xB07B07ull);

  std::vector<NodeId> ids;
  for (NodeId id = 0; id < 200; ++id) {
    const InodeRecord r = RandomRecord(rng, id);
    store.Put(r);
    oracle.Put(r);
    if (id % 3 == 0) ids.push_back(id);
  }

  // ExtractAll removes exactly the asked-for subtree from both.
  const auto got = store.ExtractAll(ids);
  const auto want = oracle.ExtractAll(ids);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]);
  ExpectStoresAgree(store, oracle, "after ExtractAll");

  // InsertAll puts it back.
  store.InsertAll(got);
  oracle.InsertAll(want);
  ExpectStoresAgree(store, oracle, "after InsertAll");

  // The sealed-table path: extract to a table file, ingest it back.
  // Both backends must land on the identical live set (the LSM engine
  // links the file in; the memory engine decodes it).
  const std::string table = dir_ + "/roundtrip.sst";
  const std::size_t sealed = store.ExtractToTable(ids, table);
  ASSERT_EQ(sealed, ids.size());
  const auto oracle_out = oracle.ExtractAll(ids);
  ASSERT_EQ(oracle_out.size(), ids.size());
  ExpectStoresAgree(store, oracle, "after ExtractToTable");

  ASSERT_EQ(store.IngestTable(table), sealed);
  oracle.InsertAll(oracle_out);
  ExpectStoresAgree(store, oracle, "after IngestTable");
  EXPECT_TRUE(store.AuditStorage().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, StoreProperty,
    ::testing::Values(BackendParam{Backend::kMemory, 0, 0xD27EE5EEDull},
                      BackendParam{Backend::kLsm, 5, 0xD27EE5EEDull}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return std::string(BackendName(info.param.backend));
    });

}  // namespace
}  // namespace d2tree
