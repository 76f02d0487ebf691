// d2fsck — the metadata consistency checker (DESIGN.md §7).
//
// Two audit modes share one report type:
//
//   * FsckJournal — offline: walks a write-ahead log (a live Wal or one
//     loaded from disk by the d2fsck CLI) through TxnFold, the
//     subtree-transfer state machine Recover() replays with: every
//     PREPARE follows its INTENT, every COMMIT its PREPARE, no txn id is
//     ever both committed and aborted, INTENT ids strictly increase in
//     journal order (every transaction draws from one counter), and each
//     record carries both or neither of a rename's name pair. Torn tails
//     are reported, not flagged — a torn last record is the legitimate
//     footprint of a crash, it is *acting on* a torn log without
//     truncating it that corrupts.
//
//   * FsckCluster — online: the journal audit plus the live invariants of
//     a FunctionalCluster — every local-layer subtree has exactly one
//     owner and its records sit exactly there (via the cluster's own
//     placement audit), the client-visible local index agrees with the
//     Monitor's placement subtree by subtree, every live GL replica is at
//     the master version, every transfer an MDS journaled as applied
//     traces back to a Monitor-journaled transaction, the journal's
//     in-flight txn ids are exactly the parked handoffs (renames never
//     park, so a rename left open on a live cluster fails here), and
//     every node's reconstructed path resolves back to exactly that node,
//     so no path ever resolves to two owners.
//
// A clean report after Recover() is the system's crash-consistency
// criterion; the property sweep in tests/test_crash_recovery.cpp asserts
// it across every named crash site × random fault schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "d2tree/durability/wal.h"

namespace d2tree {

class FunctionalCluster;

/// One violated invariant: which check tripped, and the evidence.
struct FsckIssue {
  std::string check;
  std::string detail;
};

/// The subtree-transfer state machine (DESIGN.md §7): one fold over the
/// kTxn* journal records, shared by Recover() and d2fsck so the two can
/// never disagree on what a journal says.
class TxnFold {
 public:
  enum class State : std::uint8_t { kIntent, kPrepared, kCommitted, kAborted };
  struct Txn {
    State state = State::kIntent;
    WalRecord intent;  // root, from → to and the name pair, as journaled
  };

  /// Folds one record, in journal order; other record types are ignored.
  /// Returns the transaction `record` advanced, or nullptr when it names
  /// no journaled INTENT. Protocol violations go to `issues` if non-null.
  const Txn* Apply(const WalRecord& record,
                   std::vector<FsckIssue>* issues = nullptr);

  /// Every transaction folded so far, in id order.
  const std::map<std::uint64_t, Txn>& txns() const noexcept { return txns_; }

 private:
  std::map<std::uint64_t, Txn> txns_;
  std::uint64_t last_intent_id_ = 0;
};

struct FsckReport {
  std::vector<FsckIssue> issues;
  /// Journal statistics (filled by both modes).
  std::size_t wal_records = 0;
  bool torn_tail = false;
  std::size_t torn_bytes = 0;
  /// Subtree-transfer transactions folded from the journal.
  std::size_t txns_committed = 0;
  std::size_t txns_aborted = 0;
  /// Intent/prepare without a terminal record — awaiting recovery or a
  /// parked re-delivery.
  std::size_t txns_in_flight = 0;
  /// Cluster mode only: nodes pinned by parked handoffs.
  std::size_t parked_nodes = 0;
  /// Store mode (FsckStoreDir) / cluster mode with a persistent backend:
  /// sealed tables audited and the live entries / tombstones they carry.
  std::size_t store_tables = 0;
  std::size_t store_entries = 0;
  std::size_t store_tombstones = 0;
  /// Store mode only: group-commit frames the engine WAL holds. A torn
  /// engine-WAL tail is reported through torn_tail/torn_bytes — the
  /// legitimate footprint of a kill, truncated on the next open.
  std::size_t store_wal_records = 0;

  bool clean() const noexcept { return issues.empty(); }
};

/// Offline journal audit (see file comment).
FsckReport FsckJournal(const Wal& wal);

/// Online cluster audit: journal checks + live placement invariants,
/// plus each live server's deep store-engine audit (LSM backends verify
/// every sealed table's footer, CRCs, ordering and bloom completeness;
/// the memory engine audits trivially clean).
FsckReport FsckCluster(const FunctionalCluster& cluster);

/// Offline on-disk audit of one LSM store-engine directory (DESIGN.md
/// §10): MANIFEST framing and table list, the full AuditSSTable pass over
/// every listed table, stray or missing .sst files, and a frame-by-frame
/// decode of the engine WAL. A torn WAL tail is reported, not flagged —
/// like a Monitor-journal tear it is the footprint of a crash; a torn
/// MANIFEST *is* flagged (it is rewritten atomically, never appended).
FsckReport FsckStoreDir(const std::string& dir);

/// Human-readable rendering for the CLI: one line per issue plus the
/// summary counters.
std::string FormatFsckReport(const FsckReport& report);

}  // namespace d2tree
