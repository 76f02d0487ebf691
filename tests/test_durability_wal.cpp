// Write-ahead-log unit tests: frame encode/decode roundtrips, replay of
// mixed record streams, torn-tail detection and truncation (the crash
// footprint DESIGN.md §7 defines), CRC rejection of bit flips, file
// persistence, and the d2fsck journal audit's transaction state machine.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/durability/wal.h"

namespace d2tree {
namespace {

WalRecord Intent(std::uint64_t id, NodeId root, MdsId from, MdsId to) {
  WalRecord r;
  r.type = WalRecordType::kTxnIntent;
  r.txn_id = id;
  r.root = root;
  r.from = from;
  r.to = to;
  return r;
}

WalRecord WithType(WalRecord r, WalRecordType type) {
  r.type = type;
  return r;
}

// The journal registry: every WalRecordType enumerator, by name, so the
// codec sweep below covers each record type a journal can contain
// (d2lint's registry rule pins this table to the enum).
constexpr WalRecordType kAllWalRecordTypes[] = {
    WalRecordType::kPlacementSnapshot, WalRecordType::kCapacitySnapshot,
    WalRecordType::kTxnIntent,         WalRecordType::kTxnPrepare,
    WalRecordType::kTxnCommit,         WalRecordType::kTxnAbort,
    WalRecordType::kGlVersion,         WalRecordType::kPullApplied,
};
static_assert(std::size(kAllWalRecordTypes) == kWalRecordTypeCount,
              "kAllWalRecordTypes must list every WalRecordType enumerator");

TEST(WalRecordCodec, RoundTripsEveryField) {
  WalRecord r;
  r.type = WalRecordType::kPlacementSnapshot;
  r.txn_id = 0xDEADBEEFCAFEULL;
  r.root = 1234;
  r.from = 3;
  r.to = 7;
  r.version = 42;
  r.count = 9001;
  r.owners = {0, 1, -1, 3};
  r.capacities = {1.0, 0.0, 2.5};

  const std::vector<std::uint8_t> bytes = EncodeWalRecord(r);
  const auto decoded = DecodeWalRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(WalRecordCodec, RoundTripsEveryRecordType) {
  for (const WalRecordType type : kAllWalRecordTypes) {
    WalRecord r;
    r.type = type;
    r.txn_id = 7;
    r.root = 99;
    r.from = 1;
    r.to = 2;
    r.version = 11;
    r.count = 13;
    r.owners = {2, 0, 1};
    r.capacities = {0.5, 1.5};
    r.name = "post-rename-name";
    r.prev_name = "pre-rename-name";
    const std::vector<std::uint8_t> bytes = EncodeWalRecord(r);
    const auto decoded = DecodeWalRecord(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value()) << WalRecordTypeName(type);
    EXPECT_EQ(*decoded, r) << WalRecordTypeName(type);
  }
}

// A type byte at or past the enum's count is malformed, even when the
// rest of the payload decodes — a retired record type must never be
// misread as whatever now sits at its byte.
TEST(WalRecordCodec, RejectsUnknownRecordType) {
  std::vector<std::uint8_t> bytes = EncodeWalRecord(Intent(1, 2, 0, 1));
  bytes[0] = static_cast<std::uint8_t>(kWalRecordTypeCount);
  EXPECT_FALSE(DecodeWalRecord(bytes.data(), bytes.size()).has_value());
  bytes[0] = static_cast<std::uint8_t>(kWalRecordTypeCount - 1);
  EXPECT_TRUE(DecodeWalRecord(bytes.data(), bytes.size()).has_value());
}

TEST(WalRecordCodec, RejectsTruncatedPayload) {
  const std::vector<std::uint8_t> bytes = EncodeWalRecord(Intent(1, 2, 0, 1));
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(DecodeWalRecord(bytes.data(), len).has_value())
        << "decoded from a " << len << "-byte prefix";
}

TEST(Wal, ReplayReturnsAppendsInOrder) {
  Wal wal;
  std::vector<WalRecord> expected;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    expected.push_back(Intent(id, static_cast<NodeId>(id * 10), 0, 1));
    wal.Append(expected.back());
  }
  WalReplayStats stats;
  EXPECT_EQ(wal.Replay(&stats), expected);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_EQ(stats.bytes_scanned, wal.size_bytes());
  EXPECT_EQ(wal.records_appended(), 5u);
}

// A crash mid-append leaves a frame with a short header, a short payload
// or a CRC mismatch. Replay must keep the valid prefix and report the
// tear; truncating the reported bytes restores an appendable log.
TEST(Wal, TornTailIsDetectedAndTruncatable) {
  Wal wal;
  wal.Append(Intent(1, 10, 0, 1));
  wal.Append(WithType(Intent(1, 10, 0, 1), WalRecordType::kTxnPrepare));
  const std::size_t intact = wal.size_bytes();
  wal.Append(WithType(Intent(1, 10, 0, 1), WalRecordType::kTxnCommit));

  // Tear the COMMIT at every possible length, short of removing it whole.
  for (std::size_t keep = intact + 1; keep < wal.size_bytes(); ++keep) {
    Wal torn;
    std::vector<std::uint8_t> bytes = wal.Bytes();
    bytes.resize(keep);
    torn.Assign(std::move(bytes));

    WalReplayStats stats;
    const std::vector<WalRecord> records = torn.Replay(&stats);
    ASSERT_EQ(stats.records, 2u) << "valid prefix lost at keep=" << keep;
    EXPECT_EQ(records.back().type, WalRecordType::kTxnPrepare);
    EXPECT_TRUE(stats.torn_tail);
    EXPECT_EQ(stats.torn_bytes, keep - intact);

    torn.TruncateTail(stats.torn_bytes);
    WalReplayStats after;
    torn.Replay(&after);
    EXPECT_FALSE(after.torn_tail) << "truncation left a tear at keep=" << keep;
    EXPECT_EQ(torn.size_bytes(), intact);
  }
}

TEST(Wal, CrcCatchesBitFlipInPayload) {
  Wal wal;
  wal.Append(Intent(7, 70, 2, 3));
  std::vector<std::uint8_t> bytes = wal.Bytes();
  bytes.back() ^= 0x01;  // corrupt the payload, not the header
  Wal corrupt;
  corrupt.Assign(std::move(bytes));

  WalReplayStats stats;
  EXPECT_TRUE(corrupt.Replay(&stats).empty());
  EXPECT_TRUE(stats.torn_tail);
}

TEST(Wal, SaveToLoadFromRoundTrips) {
  Wal wal;
  wal.Append(Intent(1, 10, 0, 1));
  wal.Append(WithType(Intent(1, 10, 0, 1), WalRecordType::kTxnCommit));

  const std::string path =
      ::testing::TempDir() + "/d2tree_wal_roundtrip.bin";
  ASSERT_TRUE(wal.SaveTo(path));
  Wal loaded;
  ASSERT_TRUE(loaded.LoadFrom(path));
  EXPECT_EQ(loaded.Bytes(), wal.Bytes());
  EXPECT_EQ(loaded.Replay(), wal.Replay());
  std::remove(path.c_str());

  EXPECT_FALSE(loaded.LoadFrom(path)) << "deleted file must not load";
}

TEST(CrashSites, EveryNamedSiteHasAName) {
  for (std::size_t i = 0; i < kCrashSiteCount; ++i)
    EXPECT_STRNE(CrashSiteName(static_cast<CrashSite>(i)), "?");
}

// --- d2fsck journal audit: the subtree-transfer state machine.

TEST(FsckJournal, CleanLogIsClean) {
  Wal wal;
  const WalRecord intent = Intent(1, 10, 0, 1);
  wal.Append(intent);
  wal.Append(WithType(intent, WalRecordType::kTxnPrepare));
  wal.Append(WithType(intent, WalRecordType::kTxnCommit));
  const WalRecord aborted = Intent(2, 20, 1, 0);
  wal.Append(aborted);
  wal.Append(WithType(aborted, WalRecordType::kTxnAbort));
  wal.Append(Intent(3, 30, 0, 1));  // in flight, not a violation

  const FsckReport report = FsckJournal(wal);
  EXPECT_TRUE(report.clean()) << FormatFsckReport(report);
  EXPECT_EQ(report.wal_records, 6u);
  EXPECT_EQ(report.txns_committed, 1u);
  EXPECT_EQ(report.txns_aborted, 1u);
  EXPECT_EQ(report.txns_in_flight, 1u);
}

TEST(FsckJournal, FlagsCommitWithoutPrepare) {
  Wal wal;
  wal.Append(Intent(1, 10, 0, 1));
  wal.Append(WithType(Intent(1, 10, 0, 1), WalRecordType::kTxnCommit));
  const FsckReport report = FsckJournal(wal);
  ASSERT_FALSE(report.clean());
  EXPECT_NE(FormatFsckReport(report).find("commit"), std::string::npos);
}

TEST(FsckJournal, FlagsCommittedAndAborted) {
  Wal wal;
  const WalRecord intent = Intent(4, 40, 0, 1);
  wal.Append(intent);
  wal.Append(WithType(intent, WalRecordType::kTxnPrepare));
  wal.Append(WithType(intent, WalRecordType::kTxnCommit));
  wal.Append(WithType(intent, WalRecordType::kTxnAbort));
  EXPECT_FALSE(FsckJournal(wal).clean());
}

TEST(FsckJournal, FlagsPrepareWithoutIntentAndDuplicateIntent) {
  Wal orphan_prepare;
  orphan_prepare.Append(
      WithType(Intent(5, 50, 0, 1), WalRecordType::kTxnPrepare));
  EXPECT_FALSE(FsckJournal(orphan_prepare).clean());

  Wal dup_intent;
  dup_intent.Append(Intent(6, 60, 0, 1));
  dup_intent.Append(Intent(6, 60, 0, 1));
  EXPECT_FALSE(FsckJournal(dup_intent).clean());
}

// Every transaction draws its id from one counter, so INTENT ids must
// strictly increase in journal order; and a record must carry a rename's
// name pair whole (a pure migration carries neither name).
TEST(FsckJournal, FlagsNonMonotoneIdsAndHalfNamedRecords) {
  Wal backwards;
  backwards.Append(Intent(9, 90, 0, 1));
  backwards.Append(Intent(8, 80, 1, 0));
  const FsckReport regressed = FsckJournal(backwards);
  ASSERT_FALSE(regressed.clean());
  EXPECT_NE(FormatFsckReport(regressed).find("txn-id-not-monotone"),
            std::string::npos);

  WalRecord rename = Intent(1, 10, 0, 0);
  rename.name = "new";
  rename.prev_name = "old";
  Wal whole;
  whole.Append(rename);
  whole.Append(WithType(rename, WalRecordType::kTxnAbort));
  EXPECT_TRUE(FsckJournal(whole).clean());

  rename.prev_name.clear();
  Wal half;
  half.Append(rename);
  const FsckReport half_named = FsckJournal(half);
  ASSERT_FALSE(half_named.clean());
  EXPECT_NE(FormatFsckReport(half_named).find("txn-half-named"),
            std::string::npos);
}

TEST(FsckJournal, ReportsTornTailWithoutFlaggingIt) {
  Wal wal;
  wal.Append(Intent(1, 10, 0, 1));
  wal.Append(WithType(Intent(1, 10, 0, 1), WalRecordType::kTxnPrepare));
  wal.TruncateTail(3);  // tear the PREPARE mid-frame

  const FsckReport report = FsckJournal(wal);
  // The tear itself is the legitimate crash footprint: reported so the
  // operator knows recovery truncated data, but not an invariant breach.
  EXPECT_TRUE(report.clean()) << FormatFsckReport(report);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.torn_bytes, 0u);
  EXPECT_EQ(report.txns_in_flight, 1u)
      << "the torn PREPARE must demote the transaction to intent-only";
}

}  // namespace
}  // namespace d2tree
