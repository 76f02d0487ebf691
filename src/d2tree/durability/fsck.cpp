#include "d2tree/durability/fsck.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "d2tree/durability/frame.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/storage/record_codec.h"
#include "d2tree/storage/sstable.h"

namespace d2tree {

namespace {

void AddIssue(FsckReport& report, std::string check, std::string detail) {
  report.issues.push_back({std::move(check), std::move(detail)});
}

std::string IdStr(std::uint64_t id) { return std::to_string(id); }

}  // namespace

const TxnFold::Txn* TxnFold::Apply(const WalRecord& r,
                                   std::vector<FsckIssue>* issues) {
  const auto flag = [&](const char* check, const std::string& what) {
    if (issues != nullptr)
      issues->push_back({check, "txn " + IdStr(r.txn_id) + " " + what});
  };
  switch (r.type) {
    case WalRecordType::kTxnIntent:
    case WalRecordType::kTxnPrepare:
    case WalRecordType::kTxnCommit:
    case WalRecordType::kTxnAbort:
      break;
    case WalRecordType::kPlacementSnapshot:
    case WalRecordType::kCapacitySnapshot:
    case WalRecordType::kGlVersion:
    case WalRecordType::kPullApplied:
      return nullptr;  // checkpoints and MDS-side records: no txn state
  }
  // A pure migration names nothing; a rename journals the new name and
  // the one an abort restores. With only one of them, recovery could not
  // both roll the rename forward and roll it back.
  if (r.name.empty() != r.prev_name.empty())
    flag("journal.txn-half-named",
         std::string(WalRecordTypeName(r.type)) +
             " carries exactly one of name / prev_name");

  if (r.type == WalRecordType::kTxnIntent) {
    const auto [it, fresh] =
        txns_.try_emplace(r.txn_id, Txn{State::kIntent, r});
    if (!fresh)
      flag("journal.duplicate-intent", "has two INTENT records");
    else if (r.txn_id <= last_intent_id_)
      flag("journal.txn-id-not-monotone",
           "INTENT journaled after INTENT " + IdStr(last_intent_id_));
    last_intent_id_ = std::max(last_intent_id_, r.txn_id);
    return &it->second;
  }
  const auto it = txns_.find(r.txn_id);
  if (it == txns_.end()) {
    const char* check = r.type == WalRecordType::kTxnPrepare
                            ? "journal.prepare-without-intent"
                        : r.type == WalRecordType::kTxnCommit
                            ? "journal.commit-without-prepare"
                            : "journal.abort-without-intent";
    flag(check, std::string(WalRecordTypeName(r.type)) + " without an INTENT");
    return nullptr;
  }
  Txn& txn = it->second;
  if (r.type == WalRecordType::kTxnPrepare) {
    if (txn.state == State::kIntent) txn.state = State::kPrepared;
  } else if (r.type == WalRecordType::kTxnCommit) {
    if (txn.state == State::kIntent)
      flag("journal.commit-without-prepare", "COMMIT without a PREPARE");
    if (txn.state == State::kAborted)
      flag("journal.committed-and-aborted", "is both committed and aborted");
    txn.state = State::kCommitted;
  } else {
    if (txn.state == State::kCommitted)
      flag("journal.committed-and-aborted", "is both committed and aborted");
    txn.state = State::kAborted;
  }
  return &txn;
}

namespace {

/// The journal audit both modes share; returns the fold so cluster mode
/// can match its in-flight ids against the parked handoffs.
TxnFold AuditJournal(const Wal& wal, FsckReport& report) {
  WalReplayStats stats;
  const std::vector<WalRecord> journal = wal.Replay(&stats);
  report.wal_records = stats.records;
  report.torn_tail = stats.torn_tail;
  report.torn_bytes = stats.torn_bytes;
  TxnFold fold;
  std::uint64_t last_gl_version = 0;
  for (const WalRecord& r : journal) {
    fold.Apply(r, &report.issues);
    if (r.type != WalRecordType::kGlVersion) continue;
    // Version bumps are drawn from a monotone counter and journaled
    // before the broadcast; a regression means records were replayed out
    // of order or a journal was stitched from two histories.
    if (r.version < last_gl_version)
      AddIssue(report, "journal.gl-version-regressed",
               "GL version record " + IdStr(r.version) +
                   " journaled after version " + IdStr(last_gl_version));
    last_gl_version = std::max(last_gl_version, r.version);
  }
  for (const auto& [id, txn] : fold.txns()) {
    switch (txn.state) {
      case TxnFold::State::kCommitted:
        ++report.txns_committed;
        break;
      case TxnFold::State::kAborted:
        ++report.txns_aborted;
        break;
      case TxnFold::State::kIntent:
      case TxnFold::State::kPrepared:
        ++report.txns_in_flight;
        break;
    }
  }
  return fold;
}

}  // namespace

FsckReport FsckJournal(const Wal& wal) {
  FsckReport report;
  AuditJournal(wal, report);
  return report;
}

FsckReport FsckCluster(const FunctionalCluster& cluster) {
  FsckReport report;
  const TxnFold fold = AuditJournal(cluster.monitor_wal(), report);

  if (cluster.crashed()) {
    // Nothing live to audit: the volatile world is gone by definition.
    AddIssue(report, "cluster.crashed",
             "metadata service is down; run Recover() before auditing");
    return report;
  }

  // The cluster's own placement audit: every LL record exactly once at
  // its owner, GL replicated on every live server, orphans and parked
  // nodes held by nobody, record ↔ namespace agreement.
  std::string err;
  if (!cluster.CheckConsistency(&err))
    AddIssue(report, "cluster.placement-audit", err);

  // Local index ⇄ Monitor placement agreement, subtree by subtree: the
  // owner clients route to must be the owner the planner committed, and
  // the assignment table must paint the subtree root the same way.
  const D2TreeScheme& scheme = cluster.scheme();
  const Assignment& assignment = cluster.assignment();
  const auto& subtrees = scheme.layers().subtrees;
  const auto& owners = scheme.subtree_owners();
  const std::size_t mds_count = cluster.mds_count();
  for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i) {
    const MdsId owner = owners[i];
    if (owner < 0 || static_cast<std::size_t>(owner) >= mds_count) {
      AddIssue(report, "placement.owner-out-of-range",
               "subtree " + std::to_string(i) + " owned by MDS " +
                   std::to_string(owner) + " of " +
                   std::to_string(mds_count));
      continue;
    }
    const auto indexed = scheme.local_index().OwnerOfSubtree(subtrees[i].root);
    if (!indexed.has_value() || *indexed != owner)
      AddIssue(report, "placement.index-disagrees",
               "subtree " + std::to_string(i) + ": index routes to " +
                   (indexed ? std::to_string(*indexed) : "nobody") +
                   ", Monitor says " + std::to_string(owner));
    if (assignment.OwnerOf(subtrees[i].root) != owner)
      AddIssue(report, "placement.assignment-disagrees",
               "subtree " + std::to_string(i) + ": assignment says " +
                   std::to_string(assignment.OwnerOf(subtrees[i].root)) +
                   ", Monitor says " + std::to_string(owner));
  }

  // Every live GL replica at the master version.
  const std::uint64_t master = cluster.gl_master_version();
  for (MdsId k = 0; k < static_cast<MdsId>(mds_count); ++k) {
    if (!cluster.IsServerAlive(k)) continue;
    const std::uint64_t v = cluster.server(k).gl_version();
    if (v != master)
      AddIssue(report, "gl.replica-stale",
               "MDS " + std::to_string(k) + " GL replica at version " +
                   std::to_string(v) + ", master is " +
                   std::to_string(master));
  }

  // Cross-journal: every transfer an MDS journaled as applied must trace
  // back to a transaction the Monitor journaled.
  for (MdsId k = 0; k < static_cast<MdsId>(mds_count); ++k) {
    for (const WalRecord& r : cluster.mds_wal(k).Replay()) {
      if (r.type != WalRecordType::kPullApplied) continue;
      if (!fold.txns().contains(r.txn_id))
        AddIssue(report, "journal.unknown-pull",
                 "MDS " + std::to_string(k) + " applied transfer of txn " +
                     IdStr(r.txn_id) + " the Monitor never journaled");
    }
  }

  // The journal's in-flight transactions must be exactly the parked
  // handoffs awaiting re-delivery. An in-flight id with nothing parked is
  // a transaction dropped on the floor — renames never park, so an open
  // rename on a cluster that answers clients lands here too (a crashed
  // cluster reports cluster.crashed above instead).
  report.parked_nodes = cluster.ParkedNodes().size();
  std::vector<std::uint64_t> in_flight;
  for (const auto& [id, txn] : fold.txns())
    if (txn.state == TxnFold::State::kIntent ||
        txn.state == TxnFold::State::kPrepared)
      in_flight.push_back(id);
  std::vector<std::uint64_t> parked = cluster.ParkedTxnIds();
  std::sort(parked.begin(), parked.end());
  if (in_flight != parked) {
    const auto ids = [](const std::vector<std::uint64_t>& v) {
      std::string out;
      for (std::uint64_t id : v) out += (out.empty() ? "" : ",") + IdStr(id);
      return "{" + out + "}";
    };
    AddIssue(report, "journal.in-flight-unaccounted",
             "journal-in-flight txns " + ids(in_flight) +
                 " vs parked handoffs " + ids(parked));
  }

  // Path integrity: every node's reconstructed path resolves back to
  // exactly that node — renames must never alias two nodes onto one path
  // (two owners would answer it) or strand a path without a resolver.
  std::string path_err;
  const std::size_t aliased = cluster.CheckPathIntegrity(&path_err);
  if (aliased != 0)
    AddIssue(report, "namespace.path-aliased",
             std::to_string(aliased) + " node(s) fail the path round-trip; "
                                       "first: " +
                 path_err);

  // A torn tail on a *running* cluster means a crash footprint was never
  // truncated — recovery did not run or did not finish.
  if (report.torn_tail)
    AddIssue(report, "journal.torn-tail-live",
             "running cluster's journal ends in a torn record (" +
                 std::to_string(report.torn_bytes) + " bytes)");

  // Deep store-engine audit of every live server's local store: the LSM
  // backend re-verifies each sealed table (footer, CRCs, ordering, bloom)
  // plus its live-count bookkeeping; the memory engine returns nothing.
  for (MdsId k = 0; k < static_cast<MdsId>(mds_count); ++k) {
    if (!cluster.IsServerAlive(k)) continue;
    for (const std::string& issue : cluster.server(k).local().AuditStorage())
      AddIssue(report, "store.engine",
               "MDS " + std::to_string(k) + ": " + issue);
  }

  return report;
}

FsckReport FsckStoreDir(const std::string& dir) {
  namespace fs = std::filesystem;
  FsckReport report;
  const auto read_file = [](const fs::path& p, std::vector<std::uint8_t>* out) {
    std::ifstream in(p, std::ios::binary);
    if (!in.is_open()) return false;
    out->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return !in.bad();
  };

  // MANIFEST: the ordered (oldest → newest) table list. It is replaced
  // atomically (tmp + rename), never appended, so any tear is corruption.
  std::vector<std::string> listed;
  std::vector<std::uint8_t> bytes;
  if (!read_file(fs::path(dir) / "MANIFEST", &bytes)) {
    AddIssue(report, "store.no-manifest",
             dir + " has no readable MANIFEST (not a store directory?)");
    return report;
  }
  const frame::ScanStats mstats = frame::ScanFrames(
      bytes.data(), bytes.size(),
      [&listed](const std::uint8_t* payload, std::size_t len) {
        frame::Reader r(payload, len);
        std::uint64_t seq = 0;
        std::uint32_t name_len = 0;
        if (!r.U64(&seq) || !r.U32(&name_len) || r.remaining() != name_len)
          return false;
        listed.emplace_back(reinterpret_cast<const char*>(payload + 12),
                            name_len);
        return true;
      });
  if (mstats.torn_tail)
    AddIssue(report, "store.manifest-torn",
             "MANIFEST ends in a torn/undecodable frame (" +
                 std::to_string(mstats.torn_bytes) + " bytes)");

  // Every listed table must exist and pass the full offline audit.
  std::unordered_set<std::string> listed_set;
  for (const std::string& name : listed) {
    listed_set.insert(name);
    const fs::path table = fs::path(dir) / name;
    std::error_code ec;
    if (!fs::exists(table, ec)) {
      AddIssue(report, "store.table-missing",
               name + " is in the MANIFEST but not on disk");
      continue;
    }
    const SSTableAudit audit = AuditSSTable(table.string());
    ++report.store_tables;
    report.store_entries += audit.entries;
    report.store_tombstones += audit.tombstones;
    for (const std::string& issue : audit.issues)
      AddIssue(report, "store.sstable", name + ": " + issue);
  }

  // A .sst file the MANIFEST does not claim is a leak (a crash between
  // seal and manifest rewrite leaves one; the engine sweeps it on open).
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".sst") &&
        !listed_set.contains(name)) {
      AddIssue(report, "store.stray-table",
               name + " is on disk but not in the MANIFEST");
    }
  }

  // Engine WAL: each group-commit frame must decode as a put (record
  // codec) or a remove (u32 id). An undecodable or cut-short tail is the
  // footprint of a kill mid-append — reported, and truncated on the next
  // engine open; frames after it never became visible.
  bytes.clear();
  if (read_file(fs::path(dir) / "wal.log", &bytes)) {
    const frame::ScanStats wstats = frame::ScanFrames(
        bytes.data(), bytes.size(),
        [](const std::uint8_t* payload, std::size_t len) {
          if (len == 0) return false;
          if (payload[0] == 1)
            return DecodeInodeRecord(payload + 1, len - 1).has_value();
          return payload[0] == 2 && len == 5;
        });
    report.store_wal_records = wstats.frames;
    report.torn_tail = wstats.torn_tail;
    report.torn_bytes = wstats.torn_bytes;
  }
  return report;
}

std::string FormatFsckReport(const FsckReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "d2fsck: %zu journal records%s, transactions: %zu committed "
                "/ %zu aborted / %zu in flight, %zu parked nodes\n",
                report.wal_records,
                report.torn_tail ? " (torn tail)" : "",
                report.txns_committed, report.txns_aborted,
                report.txns_in_flight, report.parked_nodes);
  out += line;
  if (report.store_tables != 0 || report.store_entries != 0 ||
      report.store_wal_records != 0) {
    std::snprintf(line, sizeof(line),
                  "d2fsck: store: %zu sealed table(s), %zu live entries, "
                  "%zu tombstones, %zu engine-WAL records\n",
                  report.store_tables, report.store_entries,
                  report.store_tombstones, report.store_wal_records);
    out += line;
  }
  for (const FsckIssue& issue : report.issues) {
    std::snprintf(line, sizeof(line), "  FAIL %s: %s\n", issue.check.c_str(),
                  issue.detail.c_str());
    out += line;
  }
  out += report.clean() ? "  clean\n" : "  NOT CLEAN\n";
  return out;
}

}  // namespace d2tree
