// pthread corner cases — plain pthreads, ZERO robmon includes.
//
// Like vanilla_dining, this binary links nothing of robmon.  It exercises
// the corners of the pthread mutex contract where an interposer is most
// likely to diverge from libc, and prints one line per case with the
// return codes it saw.  Run it twice and compare:
//
//   ./example_pthread_corners
//   LD_PRELOAD=./librobmon_preload.so ./example_pthread_corners
//
// The two outputs must be identical, and the shim's stderr summary must
// report faults=0 (ctest's pthread_corners test does exactly this).
//
// Cases:
//   robust-owner-dies-lock     a thread locks a PTHREAD_MUTEX_ROBUST mutex
//                              and exits holding it; pthread_mutex_lock
//                              then returns EOWNERDEAD and the caller owns
//                              the mutex (it must not block on itself).
//   robust-owner-dies-trylock  the same, seen through pthread_mutex_trylock.
//   robust-not-recoverable-lock
//                              the owner dies and the heir unlocks without
//                              pthread_mutex_consistent; every later
//                              pthread_mutex_lock, and a trylock after
//                              them, returns ENOTRECOVERABLE at once (the
//                              shim must not block where libc returns).
//   robust-not-recoverable-trylock
//                              the same, seen through pthread_mutex_trylock.
//   errorcheck                 a PTHREAD_MUTEX_ERRORCHECK relock returns
//                              EDEADLK; while it is held, another thread's
//                              trylock returns EBUSY and its unlock EPERM;
//                              an unlock of the unowned mutex returns EPERM.
//   recursive                  PTHREAD_MUTEX_RECURSIVE nesting: lock,
//                              trylock, lock, then three unlocks return 0
//                              and a fourth returns EPERM.
//
#include <pthread.h>

#include <cerrno>
#include <cstdio>

namespace {

void* lock_and_exit(void* raw) {
  pthread_mutex_lock(static_cast<pthread_mutex_t*>(raw));
  return nullptr;  // exits holding the mutex
}

/// Initialize a PTHREAD_MUTEX_ROBUST mutex whose owner thread then exits
/// holding it.
void init_orphaned_robust(pthread_mutex_t* mutex) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setrobust(&attr, PTHREAD_MUTEX_ROBUST);
  pthread_mutex_init(mutex, &attr);
  pthread_mutexattr_destroy(&attr);

  pthread_t owner;
  pthread_create(&owner, nullptr, lock_and_exit, mutex);
  pthread_join(owner, nullptr);
}

/// One robust-owner-dies round; `acquire` is pthread_mutex_lock or
/// pthread_mutex_trylock.  Returns true when every code is as documented.
bool robust_owner_dies(const char* name, int (*acquire)(pthread_mutex_t*)) {
  pthread_mutex_t mutex;
  init_orphaned_robust(&mutex);
  const int acquired = acquire(&mutex);  // the owner died: EOWNERDEAD
  const int consistent = pthread_mutex_consistent(&mutex);
  const int unlocked = pthread_mutex_unlock(&mutex);
  const int relocked = pthread_mutex_lock(&mutex);  // healthy again
  const int released = pthread_mutex_unlock(&mutex);
  const int destroyed = pthread_mutex_destroy(&mutex);
  std::printf("%s: acquire=%d consistent=%d unlock=%d relock=%d unlock=%d "
              "destroy=%d\n",
              name, acquired, consistent, unlocked, relocked, released,
              destroyed);
  return acquired == EOWNERDEAD && consistent == 0 && unlocked == 0 &&
         relocked == 0 && released == 0 && destroyed == 0;
}

/// The heir of a dead owner unlocks without pthread_mutex_consistent, so
/// the mutex is not recoverable.  Every pthread_mutex_lock of it returns
/// ENOTRECOVERABLE at once, and so does a trylock after them.  (glibc's
/// trylock, unlike its lock, leaves the mutex looking held, so the trylock
/// comes last.)
bool robust_not_recoverable_lock() {
  pthread_mutex_t mutex;
  init_orphaned_robust(&mutex);
  const int acquired = pthread_mutex_lock(&mutex);  // EOWNERDEAD
  const int unlocked = pthread_mutex_unlock(&mutex);
  const int locked = pthread_mutex_lock(&mutex);
  const int relocked = pthread_mutex_lock(&mutex);
  const int tried = pthread_mutex_trylock(&mutex);
  const int destroyed = pthread_mutex_destroy(&mutex);
  std::printf("robust-not-recoverable-lock: acquire=%d unlock=%d lock=%d "
              "lock=%d trylock=%d destroy=%d\n",
              acquired, unlocked, locked, relocked, tried, destroyed);
  return acquired == EOWNERDEAD && unlocked == 0 &&
         locked == ENOTRECOVERABLE && relocked == ENOTRECOVERABLE &&
         tried == ENOTRECOVERABLE && destroyed == 0;
}

/// The same through pthread_mutex_trylock alone.
bool robust_not_recoverable_trylock() {
  pthread_mutex_t mutex;
  init_orphaned_robust(&mutex);
  const int acquired = pthread_mutex_trylock(&mutex);  // EOWNERDEAD
  const int unlocked = pthread_mutex_unlock(&mutex);
  const int tried = pthread_mutex_trylock(&mutex);
  const int destroyed = pthread_mutex_destroy(&mutex);
  std::printf("robust-not-recoverable-trylock: acquire=%d unlock=%d "
              "trylock=%d destroy=%d\n",
              acquired, unlocked, tried, destroyed);
  return acquired == EOWNERDEAD && unlocked == 0 &&
         tried == ENOTRECOVERABLE && destroyed == 0;
}

void init_typed(pthread_mutex_t* mutex, int type) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_settype(&attr, type);
  pthread_mutex_init(mutex, &attr);
  pthread_mutexattr_destroy(&attr);
}

/// Return codes a foreign thread sees on a mutex the caller holds.
struct ForeignCodes {
  pthread_mutex_t* mutex;
  int trylock = -1;
  int unlock = -1;
};

void* try_and_unlock_foreign(void* raw) {
  auto* codes = static_cast<ForeignCodes*>(raw);
  codes->trylock = pthread_mutex_trylock(codes->mutex);
  codes->unlock = pthread_mutex_unlock(codes->mutex);
  return nullptr;
}

bool errorcheck() {
  pthread_mutex_t mutex;
  init_typed(&mutex, PTHREAD_MUTEX_ERRORCHECK);
  const int locked = pthread_mutex_lock(&mutex);
  const int relocked = pthread_mutex_lock(&mutex);  // EDEADLK
  ForeignCodes foreign{&mutex};
  pthread_t other;
  pthread_create(&other, nullptr, try_and_unlock_foreign, &foreign);
  pthread_join(other, nullptr);  // EBUSY, then EPERM
  const int unlocked = pthread_mutex_unlock(&mutex);
  const int unowned = pthread_mutex_unlock(&mutex);  // EPERM
  const int destroyed = pthread_mutex_destroy(&mutex);
  std::printf("errorcheck: lock=%d relock=%d foreign-trylock=%d "
              "foreign-unlock=%d unlock=%d unowned-unlock=%d destroy=%d\n",
              locked, relocked, foreign.trylock, foreign.unlock, unlocked,
              unowned, destroyed);
  return locked == 0 && relocked == EDEADLK && foreign.trylock == EBUSY &&
         foreign.unlock == EPERM && unlocked == 0 && unowned == EPERM &&
         destroyed == 0;
}

bool recursive() {
  pthread_mutex_t mutex;
  init_typed(&mutex, PTHREAD_MUTEX_RECURSIVE);
  const int locked = pthread_mutex_lock(&mutex);
  const int tried = pthread_mutex_trylock(&mutex);
  const int nested = pthread_mutex_lock(&mutex);
  int unlocks[4];
  // 0, 0, 0, then EPERM: the fourth unlock finds the mutex unowned.
  for (int& rc : unlocks) rc = pthread_mutex_unlock(&mutex);
  const int destroyed = pthread_mutex_destroy(&mutex);
  std::printf("recursive: lock=%d trylock=%d lock=%d unlock=%d,%d,%d,%d "
              "destroy=%d\n",
              locked, tried, nested, unlocks[0], unlocks[1], unlocks[2],
              unlocks[3], destroyed);
  return locked == 0 && tried == 0 && nested == 0 && unlocks[0] == 0 &&
         unlocks[1] == 0 && unlocks[2] == 0 && unlocks[3] == EPERM &&
         destroyed == 0;
}

}  // namespace

int main() {
  bool ok = robust_owner_dies("robust-owner-dies-lock", pthread_mutex_lock);
  ok = robust_owner_dies("robust-owner-dies-trylock", pthread_mutex_trylock) &&
       ok;
  ok = robust_not_recoverable_lock() && ok;
  ok = robust_not_recoverable_trylock() && ok;
  ok = errorcheck() && ok;
  ok = recursive() && ok;
  std::printf("%s\n", ok ? "all cases as documented" : "MISMATCH");
  return ok ? 0 : 1;
}
