// Annotated mutex wrappers: std::mutex / std::shared_mutex dressed with
// Clang capability attributes (common/thread_annotations.h) so lock
// discipline is enforced at compile time under -Wthread-safety.
//
// Every lock in the concurrent subsystems (mds/, net/, sim/) is one of
// these types, declared with an explicit D2T_LOCK_RANK and, where two
// locks of one class nest, a D2T_ACQUIRED_BEFORE edge. The global order
// (see DESIGN.md "Lock hierarchy"):
//
//   FaultInjector::mu_ (5) → FunctionalCluster::client_mu_ (10)
//     → FunctionalCluster::topo_mu_ (20) → MonitorService::mu_ (30)
//     → MdsServer::pulls_mu_ (35) → MetadataStore::mu_ (40)
//     → Wal::mu_ (45) → SimNetTransport::links_mu_ (50)
//     → SimNetTransport::log_mu_ (60)
//
// scripts/check_lock_order.py machine-verifies that hierarchy (every
// mutex ranked, every declared edge rank-increasing, the edge graph a
// DAG) on every compiler; Clang additionally rejects unguarded accesses
// and missing D2T_REQUIRES at compile time.
//
// Zero overhead: each wrapper is a single std primitive; every method is
// a one-line inline forward.
#pragma once

#include <mutex>
#include <shared_mutex>

#include "d2tree/common/thread_annotations.h"

namespace d2tree {

/// Exclusive lock (std::mutex) as a Clang capability.
class D2T_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() D2T_ACQUIRE() { mu_.lock(); }
  void Unlock() D2T_RELEASE() { mu_.unlock(); }
  bool TryLock() D2T_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Reader/writer lock (std::shared_mutex) as a Clang capability.
class D2T_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() D2T_ACQUIRE() { mu_.lock(); }
  void Unlock() D2T_RELEASE() { mu_.unlock(); }
  bool TryLock() D2T_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void ReaderLock() D2T_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() D2T_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool ReaderTryLock() D2T_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive hold of a Mutex (std::lock_guard replacement).
class D2T_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) D2T_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() D2T_RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

/// RAII exclusive hold of a SharedMutex (std::unique_lock replacement).
class D2T_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) D2T_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() D2T_RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* const mu_;
};

/// RAII shared hold of a SharedMutex (std::shared_lock replacement).
class D2T_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) D2T_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() D2T_RELEASE() { mu_->ReaderUnlock(); }

 private:
  SharedMutex* const mu_;
};

}  // namespace d2tree
