// Transport — the message-path abstraction between clients, MDSs and the
// Monitor.
//
// A Transport delivers (or loses) one Message per Send and prices the leg
// in microseconds. Three implementations ship:
//
//   * InProcessTransport — always delivers at zero latency. The functional
//     cluster on this transport behaves exactly like the pre-message-layer
//     direct-call implementation, so the fast test suite keeps its speed
//     and semantics.
//   * SimNetTransport (net/simnet.h) — seeded per-link latency model,
//     per-link drop probability and link-level partitions; deterministic
//     under a fixed seed.
//   * SocketTransport (net/socket_transport.h) — real TCP sockets over an
//     epoll event loop: frames of the wire codec (net/wire.h), per-peer
//     pooled connections with reconnect-on-failure, pipelined requests
//     correlated by id, and a bounded worker pool dispatching decoded
//     requests into the bound handlers. Latencies are measured wall time.
//
// Besides fire-and-forget Send, the interface carries the request/response
// contract the conformance suite (tests/test_transport_conformance.cpp)
// pins for every implementation: Bind attaches a handler to a local
// endpoint, Call delivers a request to the remote handler and returns its
// response, CallAll does the same to many endpoints at once. The default
// implementations route through an in-process handler registry priced by
// two Send legs, so InProcess and SimNet get identical semantics for free;
// SocketTransport overrides them to move the frames through real
// connections.
//
// Pricing: every leg a thread sends advances that thread's simulated clock
// (ThreadClockUs). A default Call runs its handler on the caller's thread,
// so the legs the handler sends itself (a coordinator's lock and commit
// rounds) land inside the caller's Call; a default CallAll charges only its
// slowest leg, because the legs fan out concurrently; a Post charges
// nothing, because nobody waits for it.
//
// The fault surface (SetLinkDropRate / SetPartitioned) is part of the
// interface so the fault injector can address network faults through the
// cluster regardless of the transport; transports without the respective
// model refuse them (return false → the injector counts the event as
// skipped).
//
// Thread-safety: Send / Call / Bind and the fault surface may be called
// concurrently from any number of client/adjuster threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/net/message.h"

namespace d2tree {

/// Why a leg failed — the taxonomy every transport must report the same
/// way (pinned by the conformance suite): kUndeliverable = the peer is
/// unreachable (partitioned link, no such endpoint, connection refused or
/// reset), kTimeout = the wire may have carried the message but no answer
/// arrived in time (lossy link, stuck peer). Clients treat both as a
/// failover trigger but only kTimeout legs may have executed server-side.
enum class DeliveryError : std::uint8_t { kNone = 0, kTimeout, kUndeliverable };

const char* DeliveryErrorName(DeliveryError e);

/// Outcome of one message leg. `latency_us` is the leg's network delay
/// when delivered and the sender's timeout when lost — simulated time on
/// InProcess/SimNet, measured wall time on SocketTransport.
struct [[nodiscard]] Delivery {
  bool delivered = true;
  double latency_us = 0.0;
  DeliveryError error = DeliveryError::kNone;
};

class Transport {
 public:
  /// Server-side request handler bound to one endpoint: consumes a
  /// delivered request and produces the response message. Invoked with no
  /// transport locks held, from the caller's thread (default Call) or a
  /// worker thread (SocketTransport).
  using Handler = std::function<Message(const Address& from, const Message&)>;

  virtual ~Transport() = default;

  /// Attempts to deliver `msg` from `from` to `to`.
  virtual Delivery Send(const Address& from, const Address& to,
                        const Message& msg) = 0;

  /// Binds `handler` to local endpoint `addr` (replacing any previous
  /// binding). Default: registers in the in-process handler table used by
  /// the default Call. SocketTransport additionally starts listening on
  /// the endpoint's TCP address. Returns false when the transport cannot
  /// serve the endpoint (socket bind failure).
  [[nodiscard]] virtual bool Bind(const Address& addr, Handler handler);

  /// Request/response round-trip: delivers `req` to the handler bound at
  /// `to` and fills `*resp` with its answer. An unbound/unknown `to` is
  /// surfaced as kUndeliverable; a lost leg carries the leg's error. The
  /// default implementation prices the round trip as two Send legs around
  /// an in-process handler invocation, so SimNet drops/partitions apply.
  virtual Delivery Call(const Address& from, const Address& to,
                        const Message& req, Message* resp);

  /// Fan-out round trip: delivers `req` to every endpoint in `to` at once
  /// and waits for all the answers. Returns one Delivery per endpoint, in
  /// order; `(*resps)[i]` answers `to[i]` when that leg was delivered.
  /// Default: one Call per endpoint in turn, the thread clock charged with
  /// the slowest leg only. SocketTransport puts every request on the wire
  /// before it waits for the first answer.
  virtual std::vector<Delivery> CallAll(const Address& from,
                                        std::span<const Address> to,
                                        const Message& req,
                                        std::vector<Message>* resps);

  /// Delivers `msg` to the handler bound at `to` without waiting for its
  /// answer; the caller's clock does not advance. Default: a Call whose
  /// answer is dropped, resent while it times out (4 tries, as
  /// SendReliable), so the handler may run more than once.
  /// SocketTransport queues a one-way frame and returns. A message still
  /// lost is lost silently.
  virtual void Post(const Address& from, const Address& to,
                    const Message& msg);

  /// Reliable variant (ARQ): retransmits a lost message up to `max_tries`
  /// times, accumulating the latency of every attempt. A partitioned link
  /// still defeats it — the caller decides what an undeliverable control
  /// message means.
  Delivery SendReliable(const Address& from, const Address& to,
                        const Message& msg, int max_tries = 4);

  // --- Fault surface (no-ops unless the transport models a network).

  /// Sets the drop probability of the a⇄b link (both directions).
  [[nodiscard]] virtual bool SetLinkDropRate(const Address& a,
                                             const Address& b,
                                             double probability) {
    (void)a, (void)b, (void)probability;
    return false;
  }

  /// Cuts (or heals) the a⇄b link entirely.
  [[nodiscard]] virtual bool SetPartitioned(const Address& a,
                                            const Address& b, bool on) {
    (void)a, (void)b, (void)on;
    return false;
  }

  // --- Telemetry (monotone counters, cheap enough for the hot path).

  std::uint64_t messages_sent() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Total simulated latency accrued across all legs, microseconds.
  double total_latency_us() const noexcept {
    return static_cast<double>(
               latency_ns_.load(std::memory_order_relaxed)) *
           1e-3;
  }

  /// Latency the calling thread's legs have priced so far, µs, on every
  /// transport (see "Pricing" above). The difference of two readings
  /// prices a span of work, nested rounds included.
  static double ThreadClockUs() noexcept;

 protected:
  /// Implementations call this once per Send with the outcome; it also
  /// advances the calling thread's clock.
  void Account(const Delivery& d) noexcept;

  /// Looks up the handler bound to `addr` (empty function if none).
  /// Copies the handler out under the registry lock so invocation happens
  /// lock-free.
  Handler FindHandler(const Address& addr) const;

 private:
  static std::uint64_t AddressKey(const Address& a) noexcept {
    return (static_cast<std::uint64_t>(a.kind) << 32) |
           static_cast<std::uint32_t>(a.id);
  }

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> latency_ns_{0};

  /// In-process handler registry behind the default Bind/Call. Leaf-ish
  /// rank 46 (DESIGN.md "Lock hierarchy"): taken inside Call — i.e. under
  /// the cluster's placement/GL locks — and released before the handler
  /// runs or any Send leg is priced.
  mutable Mutex handlers_mu_ D2T_LOCK_RANK(46);
  std::unordered_map<std::uint64_t, Handler> handlers_
      D2T_GUARDED_BY(handlers_mu_);
};

/// Zero-cost transport: every message is delivered instantly. Keeps
/// today's direct-call behavior (and test speed) bit-for-bit.
class InProcessTransport final : public Transport {
 public:
  Delivery Send(const Address& from, const Address& to,
                const Message& msg) override;
};

}  // namespace d2tree
