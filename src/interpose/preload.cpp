// librobmon_preload — LD_PRELOAD interposition of the pthread mutex and
// condition-variable surface, feeding unmodified binaries into robmon's
// detection engine.
//
//   LD_PRELOAD=./librobmon_preload.so ./your_pthread_program
//
// Each wrapper resolves the real function once via dlsym(RTLD_NEXT, ...),
// adapts the operation's observable edges into the process Runtime's
// synthetic monitors (interpose/runtime.hpp), and otherwise behaves
// exactly like the function it shadows — same return values, same
// blocking behaviour.  Adaptation happens only at re-entrancy depth 0 on
// non-internal threads (ReentryGuard): the shim's own pthread traffic —
// registry construction, pool scheduling, malloc-internal locking —
// passes straight through to libc, which is what makes the shim unable
// to deadlock against itself (see the argument in interpose/runtime.hpp).
//
// Lock fast path: a successful real trylock means no blocking was ever
// observable, so only an acquire is recorded.  "Successful" includes
// EOWNERDEAD: a robust mutex's dead owner hands it to the caller, locked
// (see acquired() below).  Only EBUSY leads on to the blocking lock; any
// other trylock failure (ENOTRECOVERABLE, EAGAIN, EINVAL) is what the lock
// would return too, so it is returned as is, and nothing is recorded (see
// SyntheticMonitor::mark_probe_not_recoverable for what a not-recoverable
// probe leaves behind).  A busy trylock records the entry-queue wait
// BEFORE the real (blocking) lock — the wait-for graph must see the thread
// parked while it actually is — and the acquire (or a cancellation, e.g.
// EDEADLK) after it returns.  Unlock is recorded BEFORE the real unlock so
// no snapshot can observe the next owner while the old one still appears
// inside.
//
// pthread_create is interposed for one reason only: a thread created
// while the creator is inside the shim (depth > 0) or is itself internal
// belongs to robmon (checker-pool workers), and the trampoline marks it
// internal before it runs — its entire pthread lifetime passes through.
//
// Not interposed (unobserved; see docs/interposition.md): rwlocks,
// spinlocks, barriers, semaphores, pthread_mutex_timedlock, and direct
// futex users.  The adapter's guarded transitions make partial
// observation safe — an unlock of a never-observed acquisition is a
// no-op, never a corruption.
#include <dlfcn.h>
#include <pthread.h>

#include <cerrno>

#include "interpose/runtime.hpp"
#include "interpose/synthetic_monitor.hpp"

namespace {

using robmon::interpose::ReentryGuard;
using robmon::interpose::Runtime;
using robmon::interpose::SyntheticMonitor;
using robmon::interpose::self_tid;

/// Whether a lock or trylock result leaves the caller holding the mutex:
/// success, or EOWNERDEAD from a robust mutex whose owner died (the caller
/// now owns it and must make it consistent).  Every other code means not
/// acquired, and each wrapper returns libc's code unchanged either way.
bool acquired(int rc) { return rc == 0 || rc == EOWNERDEAD; }

template <typename Fn>
Fn resolve(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

using MutexFn = int (*)(pthread_mutex_t*);
using CondFn = int (*)(pthread_cond_t*);
using CondWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*);
using CondTimedWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*,
                                const struct timespec*);
using CreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);

/// Start-routine trampoline: carries the internal flag into the new
/// thread's TLS before any user (or pool) code runs there.
struct StartArg {
  void* (*fn)(void*);
  void* arg;
  bool internal;
};

void* start_trampoline(void* raw) {
  StartArg* boxed = static_cast<StartArg*>(raw);
  const StartArg arg = *boxed;
  delete boxed;
  if (arg.internal) ReentryGuard::mark_internal();
  return arg.fn(arg.arg);
}

}  // namespace

extern "C" {

int pthread_mutex_lock(pthread_mutex_t* mutex) {
  static const MutexFn real = resolve<MutexFn>("pthread_mutex_lock");
  static const MutexFn real_try = resolve<MutexFn>("pthread_mutex_trylock");
  if (!ReentryGuard::should_adapt()) return real(mutex);
  ReentryGuard guard;
  SyntheticMonitor* monitor =
      Runtime::instance().monitor_for(mutex, SyntheticMonitor::Kind::kMutex);
  if (monitor == nullptr) return real(mutex);
  const robmon::Tid tid = self_tid();
  // An EOWNERDEAD from the trylock has already acquired the mutex: the
  // blocking lock below would wait on the caller itself.  A code other
  // than EBUSY is final: after a trylock's ENOTRECOVERABLE, glibc's
  // blocking lock on the same mutex never returns.
  if (monitor->probe_not_recoverable()) return ENOTRECOVERABLE;
  const int tried = real_try(mutex);
  if (acquired(tried)) {
    monitor->lock_acquired(tid);
    return tried;
  }
  if (tried != EBUSY) {
    if (tried == ENOTRECOVERABLE) monitor->mark_probe_not_recoverable();
    return tried;
  }
  monitor->lock_blocked(tid);
  const int rc = real(mutex);
  if (acquired(rc)) {
    monitor->lock_acquired(tid);
  } else {
    monitor->lock_cancelled(tid);
  }
  return rc;
}

int pthread_mutex_trylock(pthread_mutex_t* mutex) {
  static const MutexFn real = resolve<MutexFn>("pthread_mutex_trylock");
  if (!ReentryGuard::should_adapt()) return real(mutex);
  ReentryGuard guard;
  SyntheticMonitor* monitor =
      Runtime::instance().monitor_for(mutex, SyntheticMonitor::Kind::kMutex);
  // After the lock wrapper's probe found the mutex not recoverable, the
  // real trylock would read the lock word that probe left held as EBUSY.
  if (monitor != nullptr && monitor->end_probe_not_recoverable()) {
    return ENOTRECOVERABLE;
  }
  const int rc = real(mutex);
  if (acquired(rc) && monitor != nullptr) monitor->lock_acquired(self_tid());
  return rc;
}

int pthread_mutex_unlock(pthread_mutex_t* mutex) {
  static const MutexFn real = resolve<MutexFn>("pthread_mutex_unlock");
  if (!ReentryGuard::should_adapt()) return real(mutex);
  ReentryGuard guard;
  SyntheticMonitor* monitor =
      Runtime::instance().monitor_for(mutex, SyntheticMonitor::Kind::kMutex);
  if (monitor != nullptr) monitor->unlocked(self_tid());
  return real(mutex);
}

int pthread_mutex_destroy(pthread_mutex_t* mutex) {
  static const MutexFn real = resolve<MutexFn>("pthread_mutex_destroy");
  if (!ReentryGuard::should_adapt()) return real(mutex);
  ReentryGuard guard;
  if (Runtime* runtime = Runtime::instance_if_built()) {
    // Clear the shadow state: this address may be reused by a fresh
    // object that must not inherit a stale owner or queue.
    if (SyntheticMonitor* monitor = runtime->find_monitor(mutex)) {
      monitor->reset();
    }
  }
  return real(mutex);
}

int pthread_cond_wait(pthread_cond_t* cond, pthread_mutex_t* mutex) {
  static const CondWaitFn real = resolve<CondWaitFn>("pthread_cond_wait");
  if (!ReentryGuard::should_adapt()) return real(cond, mutex);
  ReentryGuard guard;
  Runtime& runtime = Runtime::instance();
  SyntheticMonitor* cond_monitor =
      runtime.monitor_for(cond, SyntheticMonitor::Kind::kCondition);
  SyntheticMonitor* mutex_monitor =
      runtime.monitor_for(mutex, SyntheticMonitor::Kind::kMutex);
  const robmon::Tid tid = self_tid();
  // The wait releases the mutex and parks: record both edges before the
  // real call so a checkpoint during the park sees the true state.  The
  // reacquisition inside the real wait is unobservable; the acquire is
  // recorded when the wait returns (limitation: a thread blocked on that
  // hidden reacquisition contributes no wait-for edge).
  if (mutex_monitor != nullptr) mutex_monitor->unlocked(tid);
  if (cond_monitor != nullptr) cond_monitor->cond_parked(tid);
  const int rc = real(cond, mutex);
  if (cond_monitor != nullptr) cond_monitor->cond_unparked(tid);
  if (mutex_monitor != nullptr) mutex_monitor->lock_acquired(tid);
  return rc;
}

int pthread_cond_timedwait(pthread_cond_t* cond, pthread_mutex_t* mutex,
                           const struct timespec* abstime) {
  static const CondTimedWaitFn real =
      resolve<CondTimedWaitFn>("pthread_cond_timedwait");
  if (!ReentryGuard::should_adapt()) return real(cond, mutex, abstime);
  ReentryGuard guard;
  Runtime& runtime = Runtime::instance();
  SyntheticMonitor* cond_monitor =
      runtime.monitor_for(cond, SyntheticMonitor::Kind::kCondition);
  SyntheticMonitor* mutex_monitor =
      runtime.monitor_for(mutex, SyntheticMonitor::Kind::kMutex);
  const robmon::Tid tid = self_tid();
  if (mutex_monitor != nullptr) mutex_monitor->unlocked(tid);
  if (cond_monitor != nullptr) cond_monitor->cond_parked(tid);
  const int rc = real(cond, mutex, abstime);
  if (cond_monitor != nullptr) cond_monitor->cond_unparked(tid);
  if (mutex_monitor != nullptr) mutex_monitor->lock_acquired(tid);
  return rc;
}

int pthread_cond_signal(pthread_cond_t* cond) {
  static const CondFn real = resolve<CondFn>("pthread_cond_signal");
  if (!ReentryGuard::should_adapt()) return real(cond);
  ReentryGuard guard;
  SyntheticMonitor* monitor = Runtime::instance().monitor_for(
      cond, SyntheticMonitor::Kind::kCondition);
  if (monitor != nullptr) {
    monitor->cond_signalled(self_tid(), /*broadcast=*/false);
  }
  return real(cond);
}

int pthread_cond_broadcast(pthread_cond_t* cond) {
  static const CondFn real = resolve<CondFn>("pthread_cond_broadcast");
  if (!ReentryGuard::should_adapt()) return real(cond);
  ReentryGuard guard;
  SyntheticMonitor* monitor = Runtime::instance().monitor_for(
      cond, SyntheticMonitor::Kind::kCondition);
  if (monitor != nullptr) {
    monitor->cond_signalled(self_tid(), /*broadcast=*/true);
  }
  return real(cond);
}

int pthread_cond_destroy(pthread_cond_t* cond) {
  static const CondFn real = resolve<CondFn>("pthread_cond_destroy");
  if (!ReentryGuard::should_adapt()) return real(cond);
  ReentryGuard guard;
  if (Runtime* runtime = Runtime::instance_if_built()) {
    if (SyntheticMonitor* monitor = runtime->find_monitor(cond)) {
      monitor->reset();
    }
  }
  return real(cond);
}

int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                   void* (*start_routine)(void*), void* arg) {
  static const CreateFn real = resolve<CreateFn>("pthread_create");
  const bool internal =
      ReentryGuard::internal() || ReentryGuard::depth() > 0;
  ReentryGuard guard;
  auto* boxed = new StartArg{start_routine, arg, internal};
  const int rc = real(thread, attr, start_trampoline, boxed);
  if (rc != 0) delete boxed;
  return rc;
}

}  // extern "C"
