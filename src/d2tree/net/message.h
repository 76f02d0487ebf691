// Typed messages of the metadata service (the explicit message path).
//
// Every interaction the paper describes between clients, MDSs and the
// Monitor — Sec. IV-A2 access logic, Sec. IV-A3 global-layer updates,
// Sec. IV-B heartbeats and pending-pool migrations — is carried as one of
// the message types below over a Transport (net/transport.h). The
// in-process cluster used to model these as direct C++ calls, so jumps
// were merely counted; with an explicit message layer each hop accrues
// simulated latency and the network itself becomes a fault surface
// (drops, partitions) the fault injector can target.
#pragma once

#include <cstddef>
#include <cstdint>

#include "d2tree/mds/inode.h"
#include "d2tree/partition/partition.h"

namespace d2tree {

/// The three peer roles of the system. Clients are modelled as one logical
/// endpoint (the harness's threads share the client-side stub), the
/// Monitor doubles as the ZooKeeper-style lock service (Sec. IV-A3).
enum class PeerKind : std::uint8_t { kClient = 0, kMds, kMonitor };

/// A network endpoint: a role plus (for MDSs) the server id.
struct Address {
  PeerKind kind = PeerKind::kClient;
  MdsId id = 0;  // meaningful for kMds only

  bool operator==(const Address&) const = default;
};

constexpr Address ClientAddress() noexcept { return {PeerKind::kClient, 0}; }
constexpr Address MonitorAddress() noexcept { return {PeerKind::kMonitor, 0}; }
constexpr Address MdsAddress(MdsId id) noexcept {
  return {PeerKind::kMds, id};
}

enum class MsgType : std::uint8_t {
  kStatRequest = 0,  // client → MDS: read `target`
  kStatResponse,     // MDS → client: status + record
  kUpdateRequest,    // client → MDS: mutate `target` (mtime payload)
  kUpdateResponse,   // MDS → client
  kForward,          // MDS → MDS: wrong server, hand the request on
  kHeartbeat,        // MDS → Monitor: load report (its absence = failure)
  kPendingPoolPush,  // MDS → Monitor: offload a subtree into the pool
  kPendingPoolPull,  // → MDS: a subtree transfer's records (a migration
                     // grant from the Monitor, or a rename's direct
                     // source → destination leg)
  kGlWriteLock,      // MDS ⇄ Monitor: global-layer write-lock round
  kGlCommit,         // MDS → MDS: GL update / version broadcast / replica
                     // rebuild data
  kRenameRequest,    // client → MDS: rename `target` (new name in-process)
  kRenameResponse,   // MDS → client: transaction outcome
  /// Bulk subtree handoff: one sealed SSTable replaces the per-record
  /// kPendingPoolPull of a subtree transfer. `name` carries the table
  /// path, `payload_records` the record count; the receiver ingests by
  /// file link-in (O(1) in record count) and dedups on `migration_id`.
  kBulkTable,        // sender → destination MDS: sealed table handoff
};
/// Message types a decoder accepts: type bytes at or past this are
/// malformed.
inline constexpr std::size_t kMsgTypeCount =
    static_cast<std::size_t>(MsgType::kBulkTable) + 1;

const char* MsgTypeName(MsgType type);
const char* PeerKindName(PeerKind kind);

/// One message on the wire. On the in-process and simulated transports the
/// payload proper used to stay in-process — the transport modelled the
/// *path* (latency, loss, partitions), not serialization. SocketTransport
/// (net/socket_transport.h) serializes the whole struct through the wire
/// codec (net/wire.h), so every field below round-trips byte-exactly
/// across real TCP connections; `payload_records` sizes bulk transfers for
/// accounting either way.
struct Message {
  MsgType type = MsgType::kStatRequest;
  NodeId target = kInvalidNode;       // subject node, when applicable
  std::uint64_t mtime = 0;            // update payload
  MdsStatus status = MdsStatus::kOk;  // responses
  std::size_t payload_records = 0;    // bulk transfers (migration, rebuild)
  /// Subtree transfer (push/pull/bulk legs): the transaction id. The
  /// receiver journals and deduplicates on it, so a retransmitted pull
  /// (retry/backoff discipline, net/retry.h) is applied at most once.
  std::uint64_t migration_id = 0;
  /// Peer hint: a kWrongServer response names the authoritative owner so
  /// a remote client can pay the one-jump redirect itself (-1 = unset).
  MdsId peer = -1;
  /// Rename payload: the post-rename component name.
  std::string name{};
  /// Full record payload (stat responses, bulk legs over a real wire).
  InodeRecord record{};

  bool operator==(const Message&) const = default;
};

/// Hard wire-format bounds (net/wire.h enforces them on decode; encoders
/// that exceed them produce frames the receiver rejects as corrupt).
inline constexpr std::size_t kMaxWireNameBytes = 4096;
inline constexpr std::size_t kMaxWireFrameBytes = 1 << 20;

}  // namespace d2tree
