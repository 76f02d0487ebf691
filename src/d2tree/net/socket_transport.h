// SocketTransport — the message path over real TCP sockets (DESIGN.md §9).
//
// A single epoll event-loop thread owns every file descriptor (listeners,
// accepted server connections, pooled client connections); a bounded pool
// of worker threads executes the bound handlers; calling threads never
// touch a socket — they enqueue an encoded frame, wake the loop through
// an eventfd, and wait on a per-call future keyed by correlation id.
// That gives request pipelining for free: any number of calls from any
// number of threads multiplex over the one pooled connection per peer.
// Requests a handler answers without waiting on another call may be
// answered on the loop itself (AnswerOnLoop), so they never queue for a
// worker.
//
// Connection management: client connections are pooled per destination
// address and created lazily with a non-blocking connect. A failed or
// torn connection fails every call in flight on it with kUndeliverable
// and is evicted from the pool; the next call to that peer dials a fresh
// connection (reconnect-on-failure, counted in reconnects()) — exactly
// the verdict the cluster's bounded failover path expects from a crashed
// peer. A call that gets no answer inside `call_timeout_ms` fails with
// kTimeout: the request may have executed server-side, which is why the
// receiving side keeps a bounded response cache keyed by (sender,
// correlation id) and answers a redelivered correlation id from the
// cache instead of re-executing the handler (at-most-once execution,
// counted in dedup_hits()).
//
// Fault surface: SetPartitioned is honoured locally — a partitioned peer
// is refused at the send gate with kUndeliverable, so fault schedules
// behave identically on SimNet and real sockets. SetLinkDropRate is
// refused (a real TCP link has no tunable loss model).
//
// Shutdown(drain=true) stops accepting, lets the workers drain the
// request queue, fails residual in-flight calls, joins every thread and
// closes every socket — the clean-SIGTERM path of the mdsd daemon.
//
// Linux-only (epoll + eventfd), like the rest of the target environment.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/net/transport.h"
#include "d2tree/net/wire.h"

namespace d2tree {

struct SocketTransportConfig {
  /// RPC deadline: a Call/Send with no answer by then fails with kTimeout.
  double call_timeout_ms = 2000.0;
  /// Handler worker threads (bounded pool).
  int worker_threads = 4;
  /// Requests parked for the workers beyond which new ones are rejected
  /// with MdsStatus::kUnavailable (busy server back-pressure).
  std::size_t max_queue_depth = 1024;
  /// Response-cache entries kept for correlation-id redelivery dedup.
  std::size_t dedup_cache_entries = 4096;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config = {});
  ~SocketTransport() override;

  /// Registers `addr` ⇄ "host:port" (numeric IPv4 or "localhost"). Both
  /// local (to be Bound) and remote peers are declared this way; a
  /// Send/Call to an undeclared address is kUndeliverable.
  [[nodiscard]] bool AddPeer(const Address& addr,
                             const std::string& host_port);
  /// The endpoint registered (or discovered by Bind) for `addr`; "" if
  /// unknown.
  std::string EndpointOf(const Address& addr) const;

  /// Starts listening on `addr`'s endpoint (auto-registering
  /// "127.0.0.1:0" when undeclared — EndpointOf reports the actual port)
  /// and binds `handler` for dispatched requests. False on socket errors.
  [[nodiscard]] bool Bind(const Address& addr, Handler handler) override;

  /// Requests `on_loop` accepts are answered by the bound handler on the
  /// event-loop thread instead of a worker. Only for handlers that never
  /// wait on another call: their callers then never wait for a free
  /// worker, so servers whose workers all call each other cannot stall.
  /// `on_loop` runs under the transport lock: it may only inspect `req`.
  void AnswerOnLoop(std::function<bool(const Message&)> on_loop);

  Delivery Send(const Address& from, const Address& to,
                const Message& msg) override;
  Delivery Call(const Address& from, const Address& to, const Message& req,
                Message* resp) override;
  std::vector<Delivery> CallAll(const Address& from,
                                std::span<const Address> to,
                                const Message& req,
                                std::vector<Message>* resps) override;
  void Post(const Address& from, const Address& to,
            const Message& msg) override;

  [[nodiscard]] bool SetPartitioned(const Address& a, const Address& b,
                                    bool on) override;

  /// Stops the transport: no new connections, optional queue drain,
  /// residual calls failed, threads joined, sockets closed. Idempotent.
  void Shutdown(bool drain = true);

  const SocketTransportConfig& config() const noexcept { return config_; }

  // --- Telemetry beyond the base counters.
  std::uint64_t reconnects() const noexcept { return reconnects_.load(); }
  std::uint64_t dedup_hits() const noexcept { return dedup_hits_.load(); }
  std::uint64_t corrupt_frames() const noexcept {
    return corrupt_frames_.load();
  }
  std::uint64_t busy_rejections() const noexcept {
    return busy_rejections_.load();
  }
  std::uint64_t handled_requests() const noexcept {
    return handled_requests_.load();
  }

 private:
  /// One TCP connection. Ownership of the fields is split: `out` (and the
  /// dial-time fields set before the connection is published) are guarded
  /// by mu_; `in`, `wbuf`, `wbuf_off`, `connecting` and `want_write` are
  /// touched only by the event-loop thread after it finds the connection
  /// through the mu_-locked maps (which establishes the happens-before
  /// edge with the dialing thread).
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::uint64_t peer_key = 0;  // destination address (client conns; 0 = accepted)
    bool server_side = false;
    bool connecting = false;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;   // guarded by mu_
    std::vector<std::uint8_t> wbuf;  // loop-owned flush buffer
    std::size_t wbuf_off = 0;
    bool want_write = false;
  };

  /// One in-flight outbound RPC, shared between the calling thread and
  /// the event loop. The loop fills the result fields and then fires the
  /// promise; the caller reads them only after the future resolves.
  struct CallState {
    std::promise<void> done;
    Message resp;
    bool ok = false;
    DeliveryError error = DeliveryError::kTimeout;
    std::uint64_t conn_id = 0;
  };

  /// Decoded request parked for the worker pool.
  struct Job {
    WireEnvelope env;
    std::uint64_t conn_id = 0;
  };

  /// Server-side response cache entry for correlation-id redelivery.
  struct DedupEntry {
    bool done = false;
    std::uint64_t conn_id = 0;           // latest connection to answer on
    std::vector<std::uint8_t> response;  // encoded frame once done
  };

  static std::uint64_t Key(const Address& a) noexcept {
    return (static_cast<std::uint64_t>(a.kind) << 32) |
           static_cast<std::uint32_t>(a.id);
  }
  static std::uint64_t PairKey(const Address& a, const Address& b) noexcept {
    const std::uint64_t x = Key(a), y = Key(b);
    return x < y ? (x * 0x9E3779B97F4A7C15ULL) ^ y
                 : (y * 0x9E3779B97F4A7C15ULL) ^ x;
  }
  static std::uint64_t DedupKey(const Address& from,
                                std::uint64_t corr) noexcept {
    return (Key(from) * 0xD1B54A32D192ED03ULL) ^ corr;
  }

  /// One outbound request queued on its connection, or (state == null)
  /// refused at the send gate: stopping, partitioned or unknown peer.
  struct Leg {
    std::uint64_t corr = 0;
    std::shared_ptr<CallState> state;
    std::future<void> done;
  };

  /// The common path behind Send (kOneWay) and Call (kCall).
  Delivery Roundtrip(const Address& from, const Address& to,
                     const Message& msg, FrameKind kind, Message* resp);
  /// Encodes `msg` and queues it for `to` (the caller wakes the loop).
  Leg Launch(const Address& from, const Address& to, const Message& msg,
             FrameKind kind);
  /// Waits for `leg`'s answer until `start` + the call timeout and
  /// accounts the leg.
  Delivery Await(Leg& leg, std::chrono::steady_clock::time_point start,
                 Message* resp);

  Conn* GetOrCreateConnLocked(const Address& to) D2T_REQUIRES(mu_);
  void WakeLoop();

  // --- Event-loop side (all called on loop_ only).
  void LoopMain();
  void HandleAccept(int listen_fd);
  void HandleConnEvent(int fd, std::uint32_t events);
  void ParseFrames(Conn* conn);
  void DispatchFrame(Conn* conn, WireEnvelope env);
  void FlushConn(Conn* conn);
  void TearDownConn(int fd, DeliveryError error);
  void UpdateInterest(Conn* conn);
  /// Queues an already-encoded frame on `conn` for the next flush.
  void QueueOnLoop(Conn* conn, std::vector<std::uint8_t> frame);

  // --- Worker side.
  void WorkerMain();
  /// Runs the bound handler on `job` and, for a kCall, caches and queues
  /// the answer (on a worker, or on the loop for AnswerOnLoop requests).
  void Serve(const Job& job);
  void CompleteCall(std::uint64_t corr, bool ok, DeliveryError error,
                    const Message* resp);

  SocketTransportConfig config_;

  std::atomic<std::uint64_t> next_corr_{1};
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<bool> stopping_{false};   // reject new work (drain may still run)
  std::atomic<bool> loop_exit_{false};  // event loop exits at next wake
  std::atomic<bool> worker_exit_{false};
  std::atomic<bool> shut_down_{false};

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_;
  std::vector<std::thread> workers_;

  /// Transport state lock (rank 51 — taken inside Send/Call, i.e. under
  /// the cluster's placement/GL locks, alongside SimNet's link lock 50).
  /// Guards the peer/connection/pending/dedup maps and every Conn::out.
  mutable Mutex mu_ D2T_ACQUIRED_BEFORE(queue_mu_) D2T_LOCK_RANK(51);
  std::unordered_map<std::uint64_t, std::string> peers_ D2T_GUARDED_BY(mu_);
  std::unordered_set<std::uint64_t> partitions_ D2T_GUARDED_BY(mu_);
  std::unordered_map<int, Address> listeners_ D2T_GUARDED_BY(mu_);
  std::unordered_map<int, std::unique_ptr<Conn>> conns_ D2T_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, int> conn_fd_by_id_ D2T_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, int> conn_fd_by_peer_ D2T_GUARDED_BY(mu_);
  std::unordered_set<std::uint64_t> peers_dialed_ D2T_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::shared_ptr<CallState>> pending_
      D2T_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, DedupEntry> dedup_ D2T_GUARDED_BY(mu_);
  std::deque<std::uint64_t> dedup_fifo_ D2T_GUARDED_BY(mu_);
  std::function<bool(const Message&)> on_loop_ D2T_GUARDED_BY(mu_);

  /// Worker queue lock (rank 52): only ever taken after mu_ (or alone).
  Mutex queue_mu_ D2T_LOCK_RANK(52);
  std::deque<Job> jobs_ D2T_GUARDED_BY(queue_mu_);
  std::counting_semaphore<> jobs_sem_{0};
  std::atomic<std::size_t> jobs_in_flight_{0};

  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};
  std::atomic<std::uint64_t> corrupt_frames_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> handled_requests_{0};
};

}  // namespace d2tree
