// Retry/backoff discipline for control-plane messages.
//
// One-try control sends turn every transient drop into a lost heartbeat or
// a stalled migration; blind fixed-count retransmits (the old
// Transport::SendReliable) hammer a congested link with no pacing and no
// bound on how long a round blocks. A RetryPolicy gives every
// control-plane exchange the standard production discipline: capped
// exponential backoff with deterministic seeded jitter, bounded by both an
// attempt count and a per-operation deadline on *simulated* time — the
// backoff is charged as latency, not slept, so tests stay fast and runs
// stay reproducible. Retries are only safe because receivers deduplicate:
// subtree transfers carry a txn id the receiving MDS journals and
// checks (MdsServer::ApplyPull), so a re-delivered pull is dropped, never
// double-applied.
#pragma once

#include <cstdint>

#include "d2tree/net/transport.h"

namespace d2tree {

struct RetryPolicy {
  /// Total send attempts (first try included). 1 = no retries.
  int max_attempts = 4;
  /// Backoff before retry k (1-based) is min(cap, base · 2^(k-1)),
  /// scaled by jitter in [0.5, 1.5); simulated µs.
  double base_backoff_us = 100.0;
  double backoff_cap_us = 1600.0;
  /// Per-operation budget, simulated µs: once the accumulated latency of
  /// attempts + backoffs exceeds this, the op gives up (counted in
  /// deadline_exceeded_total even when attempts remain).
  double deadline_us = 10000.0;
  /// Jitter stream seed; combined with the caller's nonce so concurrent
  /// ops draw independent, reproducible jitter.
  std::uint64_t jitter_seed = 0x9E7121ULL;

  /// Heartbeats: absence is the failure detector, so the budget is tight —
  /// one quick retransmit inside the heartbeat interval, then silence.
  static RetryPolicy Heartbeat() {
    return {.max_attempts = 2,
            .base_backoff_us = 50.0,
            .backoff_cap_us = 50.0,
            .deadline_us = 500.0};
  }
};

struct RetryOutcome {
  Delivery delivery;  // latency_us totals every attempt + backoff
  int attempts = 0;
  bool deadline_exceeded = false;

  int retries() const noexcept { return attempts > 0 ? attempts - 1 : 0; }
};

/// Sends `msg` under `policy`. `nonce` decorrelates the jitter of
/// concurrent callers (use the txn id, target id, or a counter);
/// the same (policy seed, nonce, link fate) always replays identically.
RetryOutcome SendWithRetry(Transport& transport, const Address& from,
                           const Address& to, const Message& msg,
                           const RetryPolicy& policy, std::uint64_t nonce);

}  // namespace d2tree
