// bench_suite_pthread_host — the shim_pthread workload's program under
// test: an unmodified pthread program with no robmon code in it, observed
// from outside when started with LD_PRELOAD=librobmon_preload.so.
//
//   bench_suite_pthread_host --seed N --seconds S [--trace 1]
//
// --seconds 0 stops right after set-up (set-up timing only).
//
// Three threads each run a closed loop over 62 mutexes (20 private per
// thread plus 2 shared) and one condvar-guarded queue:
//   85%  lock/unlock one mutex (95% private, 5% shared),
//   10%  a nested pair taken in ascending index order (consistent lock
//        order: lock-order prediction must never warn),
//    5%  a push then pop hand-off through the queue.
// Each mutex guards a counter, so the final sums check that every critical
// section ran exactly once.  The host's own coordination uses atomics only,
// so the shim observes exactly the workload's objects.
//
// Output (stdout, one "key values..." line each): setup_end_ns, start_ns,
// end_ns, ops, failed, loop_cpu_ns, other_cpu_ns, correct, then the sparse
// histograms (hist_all, hist_single, hist_nested, hist_handoff, hist_lock,
// hist_unlock) and, with --trace 1, one "span start end kind" per op span.
#include <pthread.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using suite::Histogram;
using suite::Rng;
using suite::ThreadStats;

constexpr int kThreads = 3;
constexpr int kPrivate = 20;
constexpr int kShared = 2;
constexpr int kMutexes = kShared + kThreads * kPrivate;
constexpr double kWarmupSeconds = 0.5;

struct Guarded {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  std::uint64_t count = 0;
};

Guarded g_mutexes[kMutexes];
pthread_mutex_t g_queue_mu = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_queue_cv = PTHREAD_COND_INITIALIZER;
std::vector<std::uint64_t> g_queue;
std::uint64_t g_pushed = 0, g_popped = 0;

/// 0 warm-up, 1 measured, 2 stop.
std::atomic<int> g_phase{0};
std::atomic<int> g_ready{0};

struct Client {
  ThreadStats warm, measured;
  Histogram lock_ns, unlock_ns;
  std::uint64_t sections = 0;  ///< Critical sections this thread ran.
  std::int64_t cpu_ns = 0;
  Histogram* lock_hist = nullptr;  ///< Set on sampled ops only.
};

int mutex_for(int t, Rng& rng) {
  if (rng.uniform() < 0.05) return static_cast<int>(rng.below(kShared));
  return kShared + t * kPrivate + static_cast<int>(rng.below(kPrivate));
}

void lock(Client& c, int i) {
  pthread_mutex_t* mu = &g_mutexes[i].mu;
  if (c.lock_hist == nullptr) {
    pthread_mutex_lock(mu);
    return;
  }
  const std::int64_t start = suite::now_ns();
  pthread_mutex_lock(mu);
  c.lock_hist->record(suite::now_ns() - start);
}

void unlock(Client& c, int i) {
  pthread_mutex_t* mu = &g_mutexes[i].mu;
  if (c.lock_hist == nullptr) {
    pthread_mutex_unlock(mu);
    return;
  }
  const std::int64_t start = suite::now_ns();
  pthread_mutex_unlock(mu);
  c.unlock_ns.record(suite::now_ns() - start);
}

/// One op; returns its kind (0 single, 1 nested, 2 hand-off).
int op(Client& c, int t, Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.85) {
    const int i = mutex_for(t, rng);
    lock(c, i);
    ++g_mutexes[i].count;
    unlock(c, i);
    ++c.sections;
    return 0;
  }
  if (u < 0.95) {
    int a = mutex_for(t, rng);
    int b = mutex_for(t, rng);
    if (a == b) b = a == 0 ? 1 : 0;
    if (b < a) std::swap(a, b);
    lock(c, a);
    lock(c, b);
    ++g_mutexes[a].count;
    ++g_mutexes[b].count;
    unlock(c, b);
    unlock(c, a);
    c.sections += 2;
    return 1;
  }
  pthread_mutex_lock(&g_queue_mu);
  g_queue.push_back(static_cast<std::uint64_t>(t));
  ++g_pushed;
  pthread_cond_signal(&g_queue_cv);
  pthread_mutex_unlock(&g_queue_mu);
  pthread_mutex_lock(&g_queue_mu);
  while (g_queue.empty()) pthread_cond_wait(&g_queue_cv, &g_queue_mu);
  g_queue.pop_back();
  ++g_popped;
  pthread_mutex_unlock(&g_queue_mu);
  return 2;
}

void client_main(Client& c, int t, std::uint64_t seed) {
  Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(t));
  // Touch every object this thread uses, so shadow registration is part of
  // set-up, not of the measured window.
  for (int i = 0; i < kShared + kPrivate; ++i) {
    const int m = i < kShared ? i : kShared + t * kPrivate + (i - kShared);
    lock(c, m);
    ++g_mutexes[m].count;
    unlock(c, m);
  }
  pthread_mutex_lock(&g_queue_mu);
  pthread_cond_signal(&g_queue_cv);
  pthread_mutex_unlock(&g_queue_mu);
  g_ready.fetch_add(1);
  g_ready.notify_all();

  const auto run = [&](ThreadStats& stats, int until) {
    std::uint64_t n = 0;
    suite::closed_loop(
        stats, rng, [&] { return g_phase.load(std::memory_order_relaxed) >= until; },
        [&](Rng& r) {
          // closed_loop samples one op in kSampleEvery; time the lock and
          // unlock calls of the same ops.
          c.lock_hist = ++n % suite::kSampleEvery == 0 ? &c.lock_ns : nullptr;
          return op(c, t, r);
        });
    c.lock_hist = nullptr;
  };
  run(c.warm, 1);
  c.lock_ns = Histogram();
  c.unlock_ns = Histogram();
  const std::int64_t cpu = suite::thread_cpu_ns();
  run(c.measured, 2);
  c.cpu_ns = suite::thread_cpu_ns() - cpu;
}

void print_hist(const char* name, const Histogram& h) {
  std::printf("%s%s\n", name, h.encode().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double seconds = 1.5;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::strcmp(argv[i + 1], "0") != 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (!(seconds >= 0 && seconds <= 600)) {
    std::fprintf(stderr, "--seconds must be in [0, 600]\n");
    return 2;
  }

  std::vector<Client> clients(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    clients[t].measured.trace = trace;
    if (trace) clients[t].measured.spans.reserve(1 << 16);
    threads.emplace_back(client_main, std::ref(clients[t]), t, seed);
  }
  for (int r = g_ready.load(); r < kThreads; r = g_ready.load()) {
    g_ready.wait(r);
  }
  const std::int64_t setup_end = suite::now_ns();
  if (seconds > 0) {
    suite::sleep_until_ns(setup_end +
                          static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  }

  const std::int64_t proc_cpu = suite::process_cpu_ns();
  const std::int64_t main_cpu = suite::thread_cpu_ns();
  const std::int64_t start = suite::now_ns();
  g_phase.store(1);
  if (seconds > 0) {
    suite::sleep_until_ns(start + static_cast<std::int64_t>(seconds * 1e9));
  }
  g_phase.store(2);
  const std::int64_t end = suite::now_ns();
  for (auto& t : threads) t.join();
  const std::int64_t proc_delta = suite::process_cpu_ns() - proc_cpu;
  const std::int64_t main_delta = suite::thread_cpu_ns() - main_cpu;

  std::uint64_t ops = 0, failed = 0, sections = 0, counted = 0;
  std::int64_t loop_cpu = 0;
  Histogram all, kinds[3], lock_ns, unlock_ns;
  for (Client& c : clients) {
    ops += c.measured.ops;
    failed += c.measured.failed;
    loop_cpu += c.cpu_ns;
    sections += c.sections;
    all.merge(c.measured.all);
    for (int k = 0; k < 3; ++k) kinds[k].merge(c.measured.by_kind[k]);
    lock_ns.merge(c.lock_ns);
    unlock_ns.merge(c.unlock_ns);
  }
  for (const Guarded& g : g_mutexes) counted += g.count;
  // Set-up sections (each thread's 22 mutexes once) are not in c.sections.
  const std::uint64_t touched = kThreads * (kShared + kPrivate);
  const bool correct =
      counted == sections + touched && g_pushed == g_popped && g_queue.empty();

  std::printf("setup_end_ns %lld\n", static_cast<long long>(setup_end));
  std::printf("start_ns %lld\nend_ns %lld\n", static_cast<long long>(start),
              static_cast<long long>(end));
  std::printf("ops %llu\nfailed %llu\n", static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(failed));
  std::printf("loop_cpu_ns %lld\nother_cpu_ns %lld\n",
              static_cast<long long>(loop_cpu),
              static_cast<long long>(proc_delta - loop_cpu - main_delta));
  std::printf("correct %d\n", correct ? 1 : 0);
  print_hist("hist_all", all);
  print_hist("hist_single", kinds[0]);
  print_hist("hist_nested", kinds[1]);
  print_hist("hist_handoff", kinds[2]);
  print_hist("hist_lock", lock_ns);
  print_hist("hist_unlock", unlock_ns);
  for (int t = 0; t < kThreads; ++t) {
    for (const suite::OpSpan& s : clients[t].measured.spans) {
      std::printf("span %d %lld %lld %d\n", t, static_cast<long long>(s.start),
                  static_cast<long long>(s.end), s.kind);
    }
  }
  return correct ? 0 : 1;
}
