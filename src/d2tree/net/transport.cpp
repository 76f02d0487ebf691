#include "d2tree/net/transport.h"

#include <algorithm>
#include <utility>

namespace d2tree {
namespace {

/// The calling thread's priced latency (Transport::ThreadClockUs).
thread_local double t_clock_us = 0.0;

}  // namespace

const char* DeliveryErrorName(DeliveryError e) {
  switch (e) {
    case DeliveryError::kNone:
      return "none";
    case DeliveryError::kTimeout:
      return "timeout";
    case DeliveryError::kUndeliverable:
      return "undeliverable";
  }
  return "?";
}

double Transport::ThreadClockUs() noexcept { return t_clock_us; }

void Transport::Account(const Delivery& d) noexcept {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (!d.delivered) dropped_.fetch_add(1, std::memory_order_relaxed);
  // Fixed-point ns so concurrent accumulation is order-independent.
  latency_ns_.fetch_add(static_cast<std::uint64_t>(d.latency_us * 1e3),
                        std::memory_order_relaxed);
  t_clock_us += d.latency_us;
}

Delivery Transport::SendReliable(const Address& from, const Address& to,
                                 const Message& msg, int max_tries) {
  Delivery total{false, 0.0, DeliveryError::kNone};
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    const Delivery d = Send(from, to, msg);
    total.latency_us += d.latency_us;
    total.error = d.error;
    if (d.delivered) {
      total.delivered = true;
      total.error = DeliveryError::kNone;
      return total;
    }
  }
  return total;
}

bool Transport::Bind(const Address& addr, Handler handler) {
  MutexLock lock(&handlers_mu_);
  handlers_[AddressKey(addr)] = std::move(handler);
  return true;
}

Transport::Handler Transport::FindHandler(const Address& addr) const {
  MutexLock lock(&handlers_mu_);
  const auto it = handlers_.find(AddressKey(addr));
  return it == handlers_.end() ? Handler{} : it->second;
}

Delivery Transport::Call(const Address& from, const Address& to,
                         const Message& req, Message* resp) {
  const Handler handler = FindHandler(to);
  if (!handler) {
    // Nobody is bound at `to`: the peer does not exist as far as this
    // transport is concerned — undeliverable, and the request leg is
    // still accounted (the client paid for trying).
    const Delivery d{false, 0.0, DeliveryError::kUndeliverable};
    Account(d);
    return d;
  }
  Delivery total = Send(from, to, req);
  if (!total.delivered) return total;
  const double handler_start = t_clock_us;
  const Message answer = handler(from, req);
  total.latency_us += t_clock_us - handler_start;  // legs the handler sent
  const Delivery back = Send(to, from, answer);
  total.latency_us += back.latency_us;
  if (!back.delivered) {
    // The handler ran but the response leg was lost: to the caller this
    // is indistinguishable from a timeout (the side effect may exist).
    total.delivered = false;
    total.error = back.error == DeliveryError::kUndeliverable
                      ? DeliveryError::kUndeliverable
                      : DeliveryError::kTimeout;
    return total;
  }
  if (resp != nullptr) *resp = answer;
  return total;
}

std::vector<Delivery> Transport::CallAll(const Address& from,
                                        std::span<const Address> to,
                                        const Message& req,
                                        std::vector<Message>* resps) {
  if (resps != nullptr) resps->assign(to.size(), Message{});
  std::vector<Delivery> legs;
  legs.reserve(to.size());
  const double start = t_clock_us;
  double slowest = 0.0;
  for (std::size_t i = 0; i < to.size(); ++i) {
    t_clock_us = start;
    legs.push_back(
        Call(from, to[i], req, resps != nullptr ? &(*resps)[i] : nullptr));
    slowest = std::max(slowest, t_clock_us - start);
  }
  t_clock_us = start + slowest;
  return legs;
}

void Transport::Post(const Address& from, const Address& to,
                     const Message& msg) {
  const double start = t_clock_us;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const Delivery d = Call(from, to, msg, nullptr);
    if (d.delivered || d.error == DeliveryError::kUndeliverable) break;
  }
  t_clock_us = start;  // nobody waits for a posted message
}

Delivery InProcessTransport::Send(const Address& from, const Address& to,
                                  const Message& msg) {
  (void)from, (void)to, (void)msg;
  const Delivery d{true, 0.0, DeliveryError::kNone};
  Account(d);
  return d;
}

}  // namespace d2tree
