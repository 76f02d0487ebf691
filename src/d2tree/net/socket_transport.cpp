#include "d2tree/net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "d2tree/net/endpoint.h"

namespace d2tree {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(config) {
  if (config_.worker_threads < 1) config_.worker_threads = 1;
  if (config_.max_queue_depth < 1) config_.max_queue_depth = 1;
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  loop_ = std::thread([this] { LoopMain(); });
  workers_.reserve(static_cast<std::size_t>(config_.worker_threads));
  for (int i = 0; i < config_.worker_threads; ++i)
    workers_.emplace_back([this] { WorkerMain(); });
}

SocketTransport::~SocketTransport() { Shutdown(/*drain=*/true); }

bool SocketTransport::AddPeer(const Address& addr,
                              const std::string& host_port) {
  std::string host;
  std::uint16_t port = 0;
  if (!SplitHostPort(host_port, &host, &port)) return false;
  MutexLock lock(&mu_);
  peers_[Key(addr)] = host_port;
  return true;
}

std::string SocketTransport::EndpointOf(const Address& addr) const {
  MutexLock lock(&mu_);
  const auto it = peers_.find(Key(addr));
  return it == peers_.end() ? std::string() : it->second;
}

bool SocketTransport::Bind(const Address& addr, Handler handler) {
  if (stopping_.load()) return false;
  if (!Transport::Bind(addr, std::move(handler))) return false;

  MutexLock lock(&mu_);
  for (const auto& [fd, bound] : listeners_)
    if (Key(bound) == Key(addr)) return true;  // handler swap only

  std::string endpoint = "127.0.0.1:0";
  if (const auto it = peers_.find(Key(addr)); it != peers_.end())
    endpoint = it->second;
  std::string host;
  std::uint16_t port = 0;
  if (!SplitHostPort(endpoint, &host, &port)) return false;
  if (host == "localhost") host = "127.0.0.1";

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) return false;

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      listen(fd, 128) != 0) {
    close(fd);
    return false;
  }
  sockaddr_in actual{};
  socklen_t actual_len = sizeof(actual);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &actual_len) != 0) {
    close(fd);
    return false;
  }
  peers_[Key(addr)] = host + ":" + std::to_string(ntohs(actual.sin_port));
  listeners_[fd] = addr;

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  return true;
}

void SocketTransport::AnswerOnLoop(
    std::function<bool(const Message&)> on_loop) {
  MutexLock lock(&mu_);
  on_loop_ = std::move(on_loop);
}

bool SocketTransport::SetPartitioned(const Address& a, const Address& b,
                                     bool on) {
  MutexLock lock(&mu_);
  if (on)
    partitions_.insert(PairKey(a, b));
  else
    partitions_.erase(PairKey(a, b));
  return true;
}

Delivery SocketTransport::Send(const Address& from, const Address& to,
                               const Message& msg) {
  return Roundtrip(from, to, msg, FrameKind::kOneWay, nullptr);
}

Delivery SocketTransport::Call(const Address& from, const Address& to,
                               const Message& req, Message* resp) {
  return Roundtrip(from, to, req, FrameKind::kCall, resp);
}

Delivery SocketTransport::Roundtrip(const Address& from, const Address& to,
                                    const Message& msg, FrameKind kind,
                                    Message* resp) {
  const auto start = std::chrono::steady_clock::now();
  Leg leg = Launch(from, to, msg, kind);
  if (leg.state != nullptr) WakeLoop();
  return Await(leg, start, resp);
}

std::vector<Delivery> SocketTransport::CallAll(const Address& from,
                                               std::span<const Address> to,
                                               const Message& req,
                                               std::vector<Message>* resps) {
  if (resps != nullptr) resps->assign(to.size(), Message{});
  const auto start = std::chrono::steady_clock::now();
  // Every request is queued before the loop wakes, so the legs travel
  // together and the caller waits about one round trip for all of them.
  std::vector<Leg> legs;
  legs.reserve(to.size());
  for (const Address& peer : to)
    legs.push_back(Launch(from, peer, req, FrameKind::kCall));
  WakeLoop();
  std::vector<Delivery> out;
  out.reserve(to.size());
  for (std::size_t i = 0; i < legs.size(); ++i)
    out.push_back(
        Await(legs[i], start, resps != nullptr ? &(*resps)[i] : nullptr));
  return out;
}

void SocketTransport::Post(const Address& from, const Address& to,
                           const Message& msg) {
  // The receiver runs its handler on a one-way frame; the loop's receipt
  // ack completes the leg with nobody waiting for it.
  if (Launch(from, to, msg, FrameKind::kOneWay).state != nullptr) WakeLoop();
}

SocketTransport::Leg SocketTransport::Launch(const Address& from,
                                             const Address& to,
                                             const Message& msg,
                                             FrameKind kind) {
  Leg leg;
  if (stopping_.load()) return leg;
  leg.corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireEnvelope{kind, leg.corr, from, to, msg});

  auto cs = std::make_shared<CallState>();
  std::future<void> done = cs->done.get_future();
  MutexLock lock(&mu_);
  if (partitions_.count(PairKey(from, to)) != 0) return leg;
  Conn* conn = GetOrCreateConnLocked(to);
  if (conn == nullptr) return leg;
  cs->conn_id = conn->id;
  pending_[leg.corr] = cs;
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  leg.state = std::move(cs);
  leg.done = std::move(done);
  return leg;
}

Delivery SocketTransport::Await(Leg& leg,
                                std::chrono::steady_clock::time_point start,
                                Message* resp) {
  const auto fail = [&](DeliveryError e) {
    const Delivery d{false, ElapsedUs(start), e};
    Account(d);
    return d;
  };
  if (leg.state == nullptr) return fail(DeliveryError::kUndeliverable);
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      config_.call_timeout_ms));
  if (leg.done.wait_until(deadline) != std::future_status::ready) {
    bool erased = false;
    {
      MutexLock lock(&mu_);
      erased = pending_.erase(leg.corr) > 0;
    }
    if (erased) return fail(DeliveryError::kTimeout);
    // The loop claimed the call between our timeout and the erase; its
    // verdict (set before the promise fires) wins — wait it in.
    leg.done.wait();
  }
  const CallState& cs = *leg.state;
  const Delivery d{cs.ok, ElapsedUs(start),
                   cs.ok ? DeliveryError::kNone : cs.error};
  if (d.delivered && resp != nullptr) *resp = cs.resp;
  Account(d);
  return d;
}

SocketTransport::Conn* SocketTransport::GetOrCreateConnLocked(
    const Address& to) {
  const std::uint64_t peer_key = Key(to);
  const auto pit = peers_.find(peer_key);
  if (pit == peers_.end()) return nullptr;

  if (const auto cit = conn_fd_by_peer_.find(peer_key);
      cit != conn_fd_by_peer_.end()) {
    const auto f = conns_.find(cit->second);
    if (f != conns_.end()) return f->second.get();
  }

  std::string host;
  std::uint16_t port = 0;
  if (!SplitHostPort(pit->second, &host, &port)) return nullptr;
  if (host == "localhost") host = "127.0.0.1";
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) return nullptr;

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  SetNoDelay(fd);
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc < 0 && errno != EINPROGRESS) {
    close(fd);
    return nullptr;
  }

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->peer_key = peer_key;
  conn->connecting = rc < 0;
  conn->want_write = true;  // EPOLLOUT armed below for connect completion
  if (peers_dialed_.count(peer_key) != 0)
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  peers_dialed_.insert(peer_key);

  Conn* raw = conn.get();
  conns_[fd] = std::move(conn);
  conn_fd_by_id_[raw->id] = fd;
  conn_fd_by_peer_[peer_key] = fd;

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  return raw;
}

void SocketTransport::WakeLoop() {
  const std::uint64_t one = 1;
  ssize_t rc;
  do {
    rc = write(wake_fd_, &one, sizeof(one));
  } while (rc < 0 && errno == EINTR);
}

// ---------------------------------------------------------------------------
// Event loop.

void SocketTransport::LoopMain() {
  epoll_event events[64];
  while (!loop_exit_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      bool is_listener = false;
      {
        MutexLock lock(&mu_);
        is_listener = listeners_.count(fd) != 0;
      }
      if (is_listener)
        HandleAccept(fd);
      else
        HandleConnEvent(fd, events[i].events);
    }
    // Drain caller-enqueued bytes onto the wire for every live connection.
    std::vector<Conn*> live;
    {
      MutexLock lock(&mu_);
      live.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) live.push_back(conn.get());
    }
    for (Conn* conn : live) FlushConn(conn);
  }
}

void SocketTransport::HandleAccept(int listen_fd) {
  while (true) {
    const int fd = accept4(listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or the listener is going away)
    SetNoDelay(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->server_side = true;
    {
      MutexLock lock(&mu_);
      conn_fd_by_id_[conn->id] = fd;
      conns_[fd] = std::move(conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketTransport::HandleConnEvent(int fd, std::uint32_t events) {
  Conn* conn = nullptr;
  {
    MutexLock lock(&mu_);
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // raced with a teardown
    conn = it->second.get();
  }

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    // Connection refused / reset: the same verdict SimNet gives a
    // partitioned link — the peer is unreachable.
    TearDownConn(fd, DeliveryError::kUndeliverable);
    return;
  }
  if ((events & EPOLLOUT) != 0 && conn->connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      TearDownConn(fd, DeliveryError::kUndeliverable);
      return;
    }
    conn->connecting = false;
  }
  if ((events & EPOLLIN) != 0) {
    while (true) {
      std::uint8_t buf[65536];
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.insert(conn->in.end(), buf, buf + n);
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      TearDownConn(fd, DeliveryError::kUndeliverable);  // EOF or error
      return;
    }
    ParseFrames(conn);
  }
}

void SocketTransport::ParseFrames(Conn* conn) {
  while (true) {
    WireEnvelope env;
    std::size_t consumed = 0;
    const DecodeStatus st =
        DecodeFrame(conn->in.data(), conn->in.size(), &env, &consumed);
    if (st == DecodeStatus::kNeedMore) return;
    if (st == DecodeStatus::kCorrupt) {
      // One corrupt frame poisons the stream — framing offsets can no
      // longer be trusted, so the connection dies (the peer reconnects).
      corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
      TearDownConn(conn->fd, DeliveryError::kUndeliverable);
      return;
    }
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<std::ptrdiff_t>(consumed));
    DispatchFrame(conn, std::move(env));
  }
}

void SocketTransport::DispatchFrame(Conn* conn, WireEnvelope env) {
  switch (env.kind) {
    case FrameKind::kResponse:
      CompleteCall(env.correlation_id, true, DeliveryError::kNone, &env.msg);
      return;
    case FrameKind::kAck:
      CompleteCall(env.correlation_id, true, DeliveryError::kNone, nullptr);
      return;
    case FrameKind::kOneWay:
    case FrameKind::kCall:
      break;
  }

  // Inbound request. At-most-once: a correlation id already seen from this
  // sender is answered from the response cache, never re-executed.
  const std::uint64_t dkey = DedupKey(env.from, env.correlation_id);
  bool on_loop = false;
  {
    MutexLock lock(&mu_);
    if (const auto it = dedup_.find(dkey); it != dedup_.end()) {
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.conn_id = conn->id;  // answer on the live connection
      if (it->second.done) QueueOnLoop(conn, it->second.response);
      return;  // in-flight: the worker's answer will land on conn->id
    }
    on_loop = on_loop_ && on_loop_(env.msg);
    if (!on_loop) {
      MutexLock qlock(&queue_mu_);
      if (jobs_.size() >= config_.max_queue_depth) {
        // Back-pressure. A kCall gets an immediate "busy" answer; a
        // kOneWay is simply not acked so the sender's ARQ retries later.
        busy_rejections_.fetch_add(1, std::memory_order_relaxed);
        if (env.kind == FrameKind::kCall) {
          Message busy = env.msg;
          busy.status = MdsStatus::kUnavailable;
          QueueOnLoop(conn, EncodeFrame(WireEnvelope{FrameKind::kResponse,
                                                     env.correlation_id,
                                                     env.to, env.from, busy}));
        }
        return;
      }
    }
    DedupEntry entry;
    entry.conn_id = conn->id;
    if (env.kind == FrameKind::kOneWay) {
      // One-ways are acked at the loop, before the handler runs: the ack
      // means "received exactly once", not "processed".
      entry.done = true;
      entry.response = EncodeFrame(WireEnvelope{
          FrameKind::kAck, env.correlation_id, env.to, env.from, Message{}});
      QueueOnLoop(conn, entry.response);
    }
    dedup_[dkey] = std::move(entry);
    dedup_fifo_.push_back(dkey);
    while (dedup_.size() > config_.dedup_cache_entries) {
      dedup_.erase(dedup_fifo_.front());
      dedup_fifo_.pop_front();
    }
  }
  Job job{std::move(env), conn->id};
  if (on_loop) {
    // Only this thread dispatches frames, so the answer is cached before
    // a redelivery of the request can be read.
    Serve(job);
    return;
  }
  {
    MutexLock qlock(&queue_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_sem_.release();
}

void SocketTransport::QueueOnLoop(Conn* conn,
                                  std::vector<std::uint8_t> frame) {
  conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
}

void SocketTransport::FlushConn(Conn* conn) {
  {
    MutexLock lock(&mu_);
    if (!conn->out.empty()) {
      conn->wbuf.insert(conn->wbuf.end(), conn->out.begin(), conn->out.end());
      conn->out.clear();
    }
  }
  while (!conn->connecting && conn->wbuf_off < conn->wbuf.size()) {
    const ssize_t n =
        send(conn->fd, conn->wbuf.data() + conn->wbuf_off,
             conn->wbuf.size() - conn->wbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->wbuf_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    TearDownConn(conn->fd, DeliveryError::kUndeliverable);
    return;
  }
  if (conn->wbuf_off == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->wbuf_off = 0;
  }
  UpdateInterest(conn);
}

void SocketTransport::UpdateInterest(Conn* conn) {
  const bool need_write = conn->connecting || conn->wbuf_off < conn->wbuf.size();
  if (need_write == conn->want_write) return;
  conn->want_write = need_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (need_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void SocketTransport::TearDownConn(int fd, DeliveryError error) {
  std::vector<std::shared_ptr<CallState>> victims;
  {
    MutexLock lock(&mu_);
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    const std::uint64_t conn_id = it->second->id;
    const std::uint64_t peer_key = it->second->peer_key;
    for (auto p = pending_.begin(); p != pending_.end();) {
      if (p->second->conn_id == conn_id) {
        victims.push_back(p->second);
        p = pending_.erase(p);
      } else {
        ++p;
      }
    }
    conn_fd_by_id_.erase(conn_id);
    if (const auto pit = conn_fd_by_peer_.find(peer_key);
        pit != conn_fd_by_peer_.end() && pit->second == fd)
      conn_fd_by_peer_.erase(pit);
    conns_.erase(it);
  }
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  for (const auto& cs : victims) {
    cs->ok = false;
    cs->error = error;
    cs->done.set_value();
  }
}

// ---------------------------------------------------------------------------
// Worker pool.

void SocketTransport::WorkerMain() {
  while (true) {
    jobs_sem_.acquire();
    Job job;
    bool have = false;
    {
      MutexLock lock(&queue_mu_);
      if (!jobs_.empty()) {
        job = std::move(jobs_.front());
        jobs_.pop_front();
        have = true;
        jobs_in_flight_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!have) {
      if (worker_exit_.load(std::memory_order_acquire)) return;
      continue;
    }

    Serve(job);
    jobs_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void SocketTransport::Serve(const Job& job) {
  handled_requests_.fetch_add(1, std::memory_order_relaxed);
  const Handler handler = FindHandler(job.env.to);
  Message answer;
  if (handler) {
    answer = handler(job.env.from, job.env.msg);
  } else {
    // Listening endpoint, no bound handler (shut down between accept
    // and dispatch): an explicit busy/unavailable answer, not silence.
    answer = job.env.msg;
    answer.status = MdsStatus::kUnavailable;
  }
  if (job.env.kind != FrameKind::kCall) return;

  const std::vector<std::uint8_t> frame =
      EncodeFrame(WireEnvelope{FrameKind::kResponse, job.env.correlation_id,
                               job.env.to, job.env.from, answer});
  std::uint64_t target = job.conn_id;
  {
    MutexLock lock(&mu_);
    const std::uint64_t dkey = DedupKey(job.env.from, job.env.correlation_id);
    if (const auto it = dedup_.find(dkey); it != dedup_.end()) {
      it->second.done = true;
      it->second.response = frame;
      target = it->second.conn_id;  // a retry may have reconnected
    }
    if (const auto fit = conn_fd_by_id_.find(target);
        fit != conn_fd_by_id_.end()) {
      Conn* conn = conns_.at(fit->second).get();
      conn->out.insert(conn->out.end(), frame.begin(), frame.end());
    }
  }
  WakeLoop();
}

void SocketTransport::CompleteCall(std::uint64_t corr, bool ok,
                                   DeliveryError error, const Message* resp) {
  std::shared_ptr<CallState> cs;
  {
    MutexLock lock(&mu_);
    const auto it = pending_.find(corr);
    if (it == pending_.end()) return;  // the caller already timed out
    cs = it->second;
    pending_.erase(it);
  }
  cs->ok = ok;
  cs->error = error;
  if (resp != nullptr) cs->resp = *resp;
  cs->done.set_value();
}

// ---------------------------------------------------------------------------
// Shutdown.

void SocketTransport::Shutdown(bool drain) {
  if (shut_down_.exchange(true)) return;
  stopping_.store(true);

  // Stop accepting: close every listener first so the drain is bounded.
  {
    MutexLock lock(&mu_);
    for (const auto& [fd, addr] : listeners_) {
      (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      close(fd);
    }
    listeners_.clear();
  }

  if (drain) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      bool idle = false;
      {
        MutexLock lock(&queue_mu_);
        idle = jobs_.empty() &&
               jobs_in_flight_.load(std::memory_order_relaxed) == 0;
      }
      if (idle) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  loop_exit_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();

  worker_exit_.store(true, std::memory_order_release);
  jobs_sem_.release(static_cast<std::ptrdiff_t>(workers_.size()));
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();

  // Fail whatever is still in flight and release every descriptor.
  std::vector<std::shared_ptr<CallState>> residual;
  {
    MutexLock lock(&mu_);
    for (const auto& [corr, cs] : pending_) residual.push_back(cs);
    pending_.clear();
    for (const auto& [fd, conn] : conns_) close(fd);
    conns_.clear();
    conn_fd_by_id_.clear();
    conn_fd_by_peer_.clear();
  }
  for (const auto& cs : residual) {
    cs->ok = false;
    cs->error = DeliveryError::kUndeliverable;
    cs->done.set_value();
  }
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  wake_fd_ = -1;
  epoll_fd_ = -1;
}

}  // namespace d2tree
