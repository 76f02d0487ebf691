// Tests for the functional MDS runtime: stores, servers, the live cluster
// (materialization, access logic, GL updates, physical migration,
// consistency auditing, concurrent clients).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "d2tree/mds/cluster.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

TEST(MetadataStore, PutGetRemove) {
  MetadataStore store;
  InodeRecord r;
  r.id = 5;
  r.name = "f";
  r.version = 1;
  store.Put(r);
  EXPECT_TRUE(store.Contains(5));
  EXPECT_EQ(store.Get(5)->name, "f");
  EXPECT_EQ(store.size(), 1u);
  const auto removed = store.Remove(5);
  ASSERT_TRUE(removed.has_value());
  EXPECT_FALSE(store.Contains(5));
  EXPECT_FALSE(store.Remove(5).has_value());
}

TEST(MetadataStore, MutateBumpsVersionAndMtime) {
  MetadataStore store;
  InodeRecord r;
  r.id = 1;
  r.version = 3;
  store.Put(r);
  const auto v = store.Mutate(1, 12345);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4u);
  EXPECT_EQ(store.Get(1)->attrs.mtime, 12345u);
  EXPECT_FALSE(store.Mutate(99, 0).has_value());
}

TEST(MetadataStore, ExtractInsertMigration) {
  MetadataStore a, b;
  for (NodeId id = 0; id < 10; ++id) {
    InodeRecord r;
    r.id = id;
    r.version = id + 1;
    a.Put(r);
  }
  const std::vector<NodeId> subtree{2, 3, 4, 99};  // 99 not held: skipped
  auto records = a.ExtractAll(subtree);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(a.size(), 7u);
  b.InsertAll(records);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.Get(3)->version, 4u);  // attributes survived the move
}

TEST(MdsServerTest, StatRequiresVisibleAncestors) {
  MdsServer server(0);
  InodeRecord root, dir, file;
  root.id = 0;
  dir.id = 1;
  dir.parent = 0;
  file.id = 2;
  file.parent = 1;
  server.global_replica().Put(root);
  server.local().Put(file);  // note: dir (id 1) NOT visible here

  const NodeId anc_ok[] = {0};
  EXPECT_EQ(server.Stat(0, {}).status, MdsStatus::kOk);
  // file readable only if the whole chain is: ancestor 1 is missing.
  const NodeId anc_bad[] = {0, 1};
  EXPECT_EQ(server.Stat(2, anc_bad).status, MdsStatus::kWrongServer);
  server.local().Put(dir);
  EXPECT_EQ(server.Stat(2, anc_bad).status, MdsStatus::kOk);
  EXPECT_EQ(server.Stat(7, anc_ok).status, MdsStatus::kWrongServer);
  EXPECT_GE(server.ops_served(), 4u);
}

TEST(MdsServerTest, UpdateLocalOnlyTouchesOwnedRecords) {
  MdsServer server(0);
  InodeRecord gl;
  gl.id = 0;
  server.global_replica().Put(gl);
  EXPECT_EQ(server.UpdateLocal(0, {}, 1).status, MdsStatus::kWrongServer);
  InodeRecord mine;
  mine.id = 3;
  mine.version = 1;
  server.local().Put(mine);
  const NodeId anc[] = {0};
  const MdsOpResult r = server.UpdateLocal(3, anc, 777);
  EXPECT_EQ(r.status, MdsStatus::kOk);
  EXPECT_EQ(r.record.version, 2u);
  EXPECT_EQ(r.record.attrs.mtime, 777u);
}

class FunctionalClusterTest : public ::testing::Test {
 protected:
  FunctionalClusterTest()
      : workload_(GenerateWorkload(LmbeProfile(0.02))),
        cluster_(workload_.tree, 4) {}

  Workload workload_;
  FunctionalCluster cluster_;
};

TEST_F(FunctionalClusterTest, MaterializationIsConsistent) {
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
}

TEST_F(FunctionalClusterTest, StatServesEveryNode) {
  // Every 37th path must be statable with at most 1 hop and the right
  // record contents.
  for (NodeId id = 0; id < workload_.tree.size(); id += 37) {
    const std::string path = workload_.tree.PathOf(id);
    const auto r = cluster_.Stat(path);
    ASSERT_EQ(r.status, MdsStatus::kOk) << path;
    EXPECT_EQ(r.record.id, id);
    EXPECT_EQ(r.record.name, workload_.tree.node(id).name);
    EXPECT_EQ(r.hops, 1) << "correctly routed requests never forward";
  }
}

TEST_F(FunctionalClusterTest, StatViaWrongServerForwardsOnce) {
  // Find a local-layer node and enter at a non-owner.
  for (NodeId id = 1; id < workload_.tree.size(); ++id) {
    if (cluster_.assignment().IsReplicated(id)) continue;
    const MdsId owner = cluster_.assignment().OwnerOf(id);
    const MdsId wrong = (owner + 1) % 4;
    const auto r = cluster_.StatVia(workload_.tree.PathOf(id), wrong);
    EXPECT_EQ(r.status, MdsStatus::kOk);
    EXPECT_EQ(r.hops, 2);
    EXPECT_EQ(r.served_by, owner);
    EXPECT_GE(cluster_.total_forwards(), 1u);
    return;
  }
  FAIL() << "no local-layer node found";
}

TEST_F(FunctionalClusterTest, GlobalLayerStatServedAnywhere) {
  // GL nodes are served by whichever server is asked, zero forwards.
  const NodeId gl_node = cluster_.scheme().split().global_layer[1];
  const std::string path = workload_.tree.PathOf(gl_node);
  for (MdsId via = 0; via < 4; ++via) {
    const auto r = cluster_.StatVia(path, via);
    EXPECT_EQ(r.status, MdsStatus::kOk);
    EXPECT_EQ(r.served_by, via);
    EXPECT_EQ(r.hops, 1);
  }
}

TEST_F(FunctionalClusterTest, LocalUpdateBumpsVersionAtOwnerOnly) {
  for (NodeId id = 1; id < workload_.tree.size(); ++id) {
    if (cluster_.assignment().IsReplicated(id)) continue;
    const std::string path = workload_.tree.PathOf(id);
    const auto before = cluster_.Stat(path);
    const auto r = cluster_.Update(path, 42);
    ASSERT_EQ(r.status, MdsStatus::kOk);
    EXPECT_EQ(r.record.version, before.record.version + 1);
    EXPECT_EQ(r.record.attrs.mtime, 42u);
    return;
  }
  FAIL() << "no local-layer node found";
}

TEST_F(FunctionalClusterTest, GlobalUpdateReachesEveryReplica) {
  const NodeId gl_node = cluster_.scheme().split().global_layer[1];
  const std::string path = workload_.tree.PathOf(gl_node);
  const auto master_before = cluster_.gl_master_version();
  const auto r = cluster_.Update(path, 99);
  ASSERT_EQ(r.status, MdsStatus::kOk);
  EXPECT_EQ(cluster_.gl_master_version(), master_before + 1);
  for (MdsId k = 0; k < 4; ++k) {
    const auto rec = cluster_.server(k).global_replica().Get(gl_node);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->attrs.mtime, 99u) << "replica " << k << " missed the write";
    EXPECT_EQ(cluster_.server(k).gl_version(), cluster_.gl_master_version());
  }
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
}

// The audit compares every GL record across the live replicas: one
// replica whose copy of a node drifted — its mtime, its version or its
// name — fails it, even though the node is present everywhere.
TEST_F(FunctionalClusterTest, AuditCatchesOneDivergentGlReplica) {
  const NodeId gl_node = cluster_.scheme().split().global_layer[1];
  ASSERT_EQ(cluster_.Update(workload_.tree.PathOf(gl_node), 5).status,
            MdsStatus::kOk);
  std::string error;
  ASSERT_TRUE(cluster_.CheckConsistency(&error)) << error;

  MetadataStore& replica = cluster_.server(2).global_replica();
  const InodeRecord good = *replica.Get(gl_node);
  const auto expect_divergence = [&](InodeRecord drifted, const char* what) {
    replica.Put(drifted);
    std::string why;
    EXPECT_FALSE(cluster_.CheckConsistency(&why)) << what;
    EXPECT_NE(why.find("differs"), std::string::npos) << what << ": " << why;
    replica.Put(good);
    EXPECT_TRUE(cluster_.CheckConsistency(&why)) << why;
  };
  InodeRecord older = good;
  older.attrs.mtime = 4;
  expect_divergence(older, "mtime");
  InodeRecord behind = good;
  --behind.version;
  expect_divergence(behind, "version");
  InodeRecord renamed = good;
  renamed.name += "_stale";
  expect_divergence(renamed, "name");
}

TEST_F(FunctionalClusterTest, AdjustmentPhysicallyMovesRecordsConsistently) {
  // Hammer one server's subtrees to force migrations, then audit.
  const auto& subtrees = cluster_.scheme().layers().subtrees;
  const auto& owners = cluster_.scheme().subtree_owners();
  std::size_t hammered = 0;
  for (std::size_t i = 0; i < subtrees.size(); ++i) {
    if (owners[i] != 0) continue;
    const std::string path = workload_.tree.PathOf(subtrees[i].root);
    for (int hit = 0; hit < 200; ++hit) cluster_.Stat(path);
    ++hammered;
  }
  ASSERT_GT(hammered, 0u);
  const std::size_t moved = cluster_.RunAdjustmentRound();
  EXPECT_GT(moved, 0u);
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
  // Every node is still fully servable after the physical migration.
  for (NodeId id = 0; id < workload_.tree.size(); id += 53) {
    const auto r = cluster_.Stat(workload_.tree.PathOf(id));
    EXPECT_EQ(r.status, MdsStatus::kOk) << workload_.tree.PathOf(id);
  }
}

TEST_F(FunctionalClusterTest, RepeatedAdjustmentStaysConsistent) {
  Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 500; ++i) {
      const auto id = static_cast<NodeId>(rng.NextBounded(workload_.tree.size()));
      cluster_.Stat(workload_.tree.PathOf(id));
    }
    cluster_.RunAdjustmentRound();
    std::string error;
    ASSERT_TRUE(cluster_.CheckConsistency(&error))
        << "round " << round << ": " << error;
  }
}

TEST_F(FunctionalClusterTest, ConcurrentReadersAndGlWriters) {
  const NodeId gl_node = cluster_.scheme().split().global_layer[1];
  const std::string gl_path = workload_.tree.PathOf(gl_node);
  std::vector<std::string> read_paths;
  for (NodeId id = 0; id < workload_.tree.size(); id += 101)
    read_paths.push_back(workload_.tree.PathOf(id));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        if (t == 0) {
          if (cluster_.Update(gl_path, i).status != MdsStatus::kOk) ++failures;
        } else {
          const auto& p = read_paths[(t * 131 + i) % read_paths.size()];
          if (cluster_.Stat(p).status != MdsStatus::kOk) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
}

TEST(MdsStatusNames, AllNamed) {
  EXPECT_STREQ(MdsStatusName(MdsStatus::kOk), "ok");
  EXPECT_STREQ(MdsStatusName(MdsStatus::kNotFound), "not-found");
  EXPECT_STREQ(MdsStatusName(MdsStatus::kNotPermitted), "not-permitted");
  EXPECT_STREQ(MdsStatusName(MdsStatus::kWrongServer), "wrong-server");
  EXPECT_STREQ(MdsStatusName(MdsStatus::kUnavailable), "unavailable");
}

// Regression: StatVia with an out-of-range entry server used to index
// servers_ unchecked; it must instead fail cleanly as "no such server".
TEST_F(FunctionalClusterTest, StatViaOutOfRangeServerFailsCleanly) {
  const std::string path = workload_.tree.PathOf(0);
  for (const MdsId via : {static_cast<MdsId>(99), static_cast<MdsId>(-5),
                          static_cast<MdsId>(cluster_.mds_count())}) {
    const auto r = cluster_.StatVia(path, via);
    EXPECT_EQ(r.status, MdsStatus::kUnavailable) << "via=" << via;
    EXPECT_EQ(r.hops, 0) << "via=" << via;
  }
  // The cluster is untouched: a normal Stat still succeeds.
  EXPECT_EQ(cluster_.Stat(path).status, MdsStatus::kOk);
}

}  // namespace
}  // namespace d2tree
