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
//
// Exit status 0 when every case returned libc's documented codes.
#include <pthread.h>

#include <cerrno>
#include <cstdio>

namespace {

void* lock_and_exit(void* raw) {
  pthread_mutex_lock(static_cast<pthread_mutex_t*>(raw));
  return nullptr;  // exits holding the mutex
}

/// One robust-owner-dies round; `acquire` is pthread_mutex_lock or
/// pthread_mutex_trylock.  Returns true when every code is as documented.
bool robust_owner_dies(const char* name, int (*acquire)(pthread_mutex_t*)) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setrobust(&attr, PTHREAD_MUTEX_ROBUST);
  pthread_mutex_t mutex;
  pthread_mutex_init(&mutex, &attr);
  pthread_mutexattr_destroy(&attr);

  pthread_t owner;
  pthread_create(&owner, nullptr, lock_and_exit, &mutex);
  pthread_join(owner, nullptr);

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

}  // namespace

int main() {
  bool ok = robust_owner_dies("robust-owner-dies-lock", pthread_mutex_lock);
  ok = robust_owner_dies("robust-owner-dies-trylock", pthread_mutex_trylock) &&
       ok;
  std::printf("%s\n", ok ? "all cases as documented" : "MISMATCH");
  return ok ? 0 : 1;
}
