// Vanilla dining philosophers — plain pthreads, ZERO robmon includes.
//
// This binary is the interposition backend's acceptance contract: it knows
// nothing about robmon, links nothing of robmon, and is run unmodified
// under the shim:
//
//   LD_PRELOAD=./librobmon_preload.so ./example_vanilla_dining deadlock
//     → all five philosophers grab their left fork in lockstep (a barrier
//       forces the simultaneous grab), then block on the right fork: a
//       guaranteed 5-cycle.  The process hangs (it really is deadlocked);
//       the shim names the exact thread/fork cycle on stderr, and CI runs
//       it under `timeout`, expecting the kill plus the cycle report.
//
//   LD_PRELOAD=./librobmon_preload.so ./example_vanilla_dining clean
//     → the classic asymmetry fix (the last philosopher reaches right
//       first), plus a condition-variable start gate so the cond path is
//       exercised too.  Exits 0; the shim must report zero faults.
//
//   LD_PRELOAD=./librobmon_preload.so ./example_vanilla_dining rotated
//     → two philosophers and two forks: the first takes fork 0 then fork
//       1, and only after it has put both down does the second take fork 1
//       then fork 0.  The run never deadlocks, but the opposite orders
//       could: the shim must print exactly one two-fork lock-order warning
//       and no deadlock.  Each holds both forks for 300 ms, and the process
//       lingers 600 ms more, so the shim's default check and lock-order
//       cadences see it all.  "rotated-trylock" is the same, with the
//       second philosopher's outer fork taken by pthread_mutex_trylock.
//
// Modes: argv[1] = "clean" (default) | "deadlock" | "rotated" |
// "rotated-trylock"; argv[2] = rounds per philosopher in clean mode
// (default 200).  Parsed by hand — this file must not touch robmon's
// util::Flags either.
#include <pthread.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kPhilosophers = 5;

pthread_mutex_t g_forks[kPhilosophers];
pthread_barrier_t g_barrier;

// Start gate: philosophers wait for the main thread's broadcast.
pthread_mutex_t g_start_mu = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_start_cv = PTHREAD_COND_INITIALIZER;
bool g_started = false;

struct Seat {
  int index = 0;
  bool deadlock = false;
  int rounds = 0;
};

void await_start() {
  pthread_mutex_lock(&g_start_mu);
  while (!g_started) pthread_cond_wait(&g_start_cv, &g_start_mu);
  pthread_mutex_unlock(&g_start_mu);
}

void* philosopher(void* raw) {
  const Seat& seat = *static_cast<const Seat*>(raw);
  const int left = seat.index;
  const int right = (seat.index + 1) % kPhilosophers;
  await_start();
  if (seat.deadlock) {
    // Lockstep symmetric grab: everyone holds their left fork before
    // anyone reaches for the right one — the cycle always closes.
    pthread_barrier_wait(&g_barrier);
    pthread_mutex_lock(&g_forks[left]);
    pthread_barrier_wait(&g_barrier);
    pthread_mutex_lock(&g_forks[right]);  // Blocks forever.
    pthread_mutex_unlock(&g_forks[right]);
    pthread_mutex_unlock(&g_forks[left]);
    return nullptr;
  }
  // Clean mode: the last philosopher reverses the grab order, which
  // breaks the symmetry and makes the system deadlock-free.
  const int first = seat.index == kPhilosophers - 1 ? right : left;
  const int second = seat.index == kPhilosophers - 1 ? left : right;
  for (int round = 0; round < seat.rounds; ++round) {
    pthread_mutex_lock(&g_forks[first]);
    pthread_mutex_lock(&g_forks[second]);
    pthread_mutex_unlock(&g_forks[second]);
    pthread_mutex_unlock(&g_forks[first]);
  }
  return nullptr;
}

// Rotated mode: one philosopher per order, run one after the other.
constexpr useconds_t kRotatedHoldUs = 300'000;
constexpr useconds_t kRotatedLingerUs = 600'000;

struct Rotation {
  pthread_t before;    ///< The philosopher that must finish first.
  bool outer_trylock;  ///< Take the outer fork by pthread_mutex_trylock.
  int rc = -1;         ///< The outer acquisition's return code.
};

void* rotated_philosopher(void* raw) {
  Rotation& rotation = *static_cast<Rotation*>(raw);
  // Both philosophers are alive from the start, so they never share a
  // thread id.
  pthread_join(rotation.before, nullptr);
  rotation.rc = rotation.outer_trylock ? pthread_mutex_trylock(&g_forks[1])
                                       : pthread_mutex_lock(&g_forks[1]);
  pthread_mutex_lock(&g_forks[0]);
  usleep(kRotatedHoldUs);
  pthread_mutex_unlock(&g_forks[0]);
  pthread_mutex_unlock(&g_forks[1]);
  return nullptr;
}

void* ordered_philosopher(void*) {
  pthread_mutex_lock(&g_forks[0]);
  pthread_mutex_lock(&g_forks[1]);
  usleep(kRotatedHoldUs);
  pthread_mutex_unlock(&g_forks[1]);
  pthread_mutex_unlock(&g_forks[0]);
  return nullptr;
}

int run_rotated(bool outer_trylock) {
  for (auto& fork : g_forks) pthread_mutex_init(&fork, nullptr);
  Rotation rotation{};
  rotation.outer_trylock = outer_trylock;
  pthread_t rotated;
  pthread_create(&rotation.before, nullptr, ordered_philosopher, nullptr);
  pthread_create(&rotated, nullptr, rotated_philosopher, &rotation);
  pthread_join(rotated, nullptr);
  usleep(kRotatedLingerUs);
  for (auto& fork : g_forks) pthread_mutex_destroy(&fork);
  std::printf("rotated orders finished (outer %s=%d)\n",
              outer_trylock ? "trylock" : "lock", rotation.rc);
  return rotation.rc == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool deadlock = false;
  int rounds = 200;
  if (argc > 1) {
    if (std::strcmp(argv[1], "rotated") == 0) return run_rotated(false);
    if (std::strcmp(argv[1], "rotated-trylock") == 0) return run_rotated(true);
    if (std::strcmp(argv[1], "deadlock") == 0) {
      deadlock = true;
    } else if (std::strcmp(argv[1], "clean") != 0) {
      std::fprintf(stderr,
                   "usage: %s [clean|deadlock|rotated|rotated-trylock] "
                   "[rounds]\n",
                   argv[0]);
      return 2;
    }
  }
  if (argc > 2) rounds = std::atoi(argv[2]);

  for (auto& fork : g_forks) pthread_mutex_init(&fork, nullptr);
  pthread_barrier_init(&g_barrier, nullptr, kPhilosophers);

  pthread_t threads[kPhilosophers];
  Seat seats[kPhilosophers];
  for (int i = 0; i < kPhilosophers; ++i) {
    seats[i] = Seat{i, deadlock, rounds};
    if (pthread_create(&threads[i], nullptr, philosopher, &seats[i]) != 0) {
      std::fprintf(stderr, "pthread_create failed\n");
      return 1;
    }
  }

  std::printf("philosophers seated (%s)\n", deadlock ? "deadlock" : "clean");
  std::fflush(stdout);
  pthread_mutex_lock(&g_start_mu);
  g_started = true;
  pthread_cond_broadcast(&g_start_cv);
  pthread_mutex_unlock(&g_start_mu);

  for (pthread_t& thread : threads) pthread_join(thread, nullptr);

  pthread_barrier_destroy(&g_barrier);
  for (auto& fork : g_forks) pthread_mutex_destroy(&fork);
  std::printf("all philosophers finished\n");
  return 0;
}
