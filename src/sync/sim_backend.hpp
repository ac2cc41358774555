// SimBackend: the deterministic synchronization backend.
//
// A SimScheduler multiplexes *fibers* (ucontext stacks) onto one OS thread.
// Every blocking primitive in the runtime — mutex, condition variable,
// semaphore park, thread join, sleep — compiles down to a cooperative
// suspend on the scheduler, every context switch is chosen by a seeded
// SchedulePolicy, and time is a ManualClock that ticks per resume step and
// jumps to the earliest timer when nothing is runnable.  The whole
// CheckerPool (deadline heap, batch draining, recovery actuation) therefore
// executes with **zero real threads** and an interleaving that is a pure
// function of the seed: run the same seed twice and you get byte-identical
// traces; sweep seeds and you explore schedules.
//
// Usage (see tests/schedule_explorer.cpp and docs/deterministic-testing.md):
//
//   sync::SimScheduler sched({.policy = sync::SchedulePolicy::kRandom,
//                             .seed = 42});
//   sched.spawn([&] { ...build pool + monitors, spawn client fibers...; });
//   auto stop = sched.run();
//   sched.rethrow_any_failure();
//
// Rules imposed on runtime code compiled against this backend:
//   * Anything that can block must go through Backend primitives.  A plain
//     std::mutex is still fine for pure data sections, because only one OS
//     thread exists — but it must never be held across a Backend call that
//     can suspend (the fiber would switch away with the OS mutex held, and
//     a second fiber's lock() would then deadlock the whole scheduler).
//   * Blocking calls are only legal inside a fiber.  From the root context
//     (outside run()) an uncontended SimMutex::lock still works, so setup /
//     teardown code that merely touches locks keeps working; an operation
//     that would have to *wait* throws std::logic_error instead.
#pragma once

#include <ucontext.h>

#include <chrono>
#include <condition_variable>  // std::cv_status
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>  // std::unique_lock
#include <string>
#include <vector>

#include "util/clock.hpp"
#include "util/rng.hpp"

namespace robmon::sync {

enum class SchedulePolicy {
  kFifo,    ///< Round-robin over runnable fibers.
  kRandom,  ///< Uniform random pick among runnable fibers (seeded).
};

class SimScheduler {
 public:
  struct Options {
    util::TimeNs tick_ns = 1000;  ///< Virtual time per resume step (1 us).
    SchedulePolicy policy = SchedulePolicy::kRandom;
    std::uint64_t seed = 1;
    /// Probability that a fiber yields at a preemption point (SimMutex
    /// acquisition) under kRandom, adding interleavings beyond the ones the
    /// blocking structure forces.  0 disables.
    double preempt_probability = 0.25;
    std::size_t stack_bytes = 256 * 1024;
  };

  SimScheduler() : SimScheduler(Options{}) {}
  explicit SimScheduler(Options options);
  ~SimScheduler();

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  /// Scheduler installed for this OS thread (constructor installs, destructor
  /// restores the previous one).  Backend primitives route through this.
  static SimScheduler* current();

  /// Register a fiber.  Fibers may spawn further fibers.  Returns fiber id.
  int spawn(std::function<void()> body, std::string name = {});

  enum class StopReason {
    kAllDone,    ///< Every fiber ran to completion.
    kQuiescent,  ///< Only fibers parked forever remain (deadlock).
    kMaxSteps,   ///< Step budget exhausted.
  };

  /// Run until done/quiescent or `max_steps` resume steps (this call).
  StopReason run(std::uint64_t max_steps = 5'000'000);

  util::ManualClock& clock() { return clock_; }
  util::TimeNs now() const { return clock_.now_ns(); }
  std::uint64_t steps() const { return steps_; }

  /// FNV-1a digest over the pick sequence (fiber id per resume step plus
  /// clock jumps): two runs took the same schedule iff digests match.  Used
  /// by the schedule-exploration corpus to pin exact interleavings.
  std::uint64_t schedule_digest() const { return digest_; }

  /// Rethrow the first exception that escaped any fiber, if one occurred.
  void rethrow_any_failure() const;

  std::size_t live_count() const;  ///< Fibers not yet done.
  bool in_fiber() const { return current_ >= 0; }
  int current_fiber() const { return current_; }
  const std::string& fiber_name(int fiber) const;

  // --- Primitive-facing API (SimMutex/SimCondVar/SimThread internals). ------

  /// Reschedule the caller behind other runnable fibers.
  void yield_fiber();
  /// Policy-chosen optional yield (called at preemption points).
  void maybe_preempt();
  /// Sleep for `delta` of virtual time.
  void sleep_fiber(util::TimeNs delta);
  /// Park until unpark(fiber).
  void park_fiber();
  /// Park until unpark or virtual `deadline`; true = woken by unpark.
  bool park_fiber_until(util::TimeNs deadline);
  /// Make a parked fiber runnable (no-op on a fiber that is not parked).
  void unpark(int fiber);
  bool fiber_done(int fiber) const;
  /// Park the caller until `fiber` completes (immediately returns if done).
  void join_fiber(int fiber);
  /// Seeded uniform pick in [0, n) — primitives use it so that *which*
  /// waiter a notify_one wakes is part of the explored schedule.
  std::size_t pick(std::size_t n);

 private:
  enum class FState {
    kNew,
    kRunnable,
    kSleeping,
    kParked,
    kParkedTimed,
    kDone
  };

  struct Fiber {
    int id = -1;
    std::string name;
    std::function<void()> body;
    std::unique_ptr<char[]> stack;
    ucontext_t ctx{};
    FState state = FState::kNew;
    util::TimeNs wake_at = 0;
    bool woken_by_unpark = false;
    std::vector<int> joiners;
    std::exception_ptr exception;
    void* fake_stack = nullptr;  ///< ASan fiber bookkeeping.
    void* tsan_fiber = nullptr;  ///< TSan fiber bookkeeping.
  };

  [[noreturn]] static void trampoline(unsigned hi, unsigned lo);
  void fiber_main(Fiber& fiber);
  /// Swap from `self` (nullptr = root/run loop) into `to` (nullptr = root).
  /// `dying` = `self` will never be resumed again.
  void switch_context(Fiber* self, Fiber* to, bool dying);
  /// Suspend the current fiber and return to the run loop.
  void switch_to_scheduler();
  Fiber& require_fiber(const char* what);
  int pick_next();
  /// Move due sleepers/timed-parkers to runnable; returns earliest future
  /// wake time or -1 when none.
  util::TimeNs service_timers();
  void mix_digest(std::uint64_t value);

  Options options_;
  util::ManualClock clock_;
  util::Rng rng_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::deque<int> runnable_;
  int current_ = -1;
  ucontext_t root_ctx_{};
  void* root_fake_stack_ = nullptr;
  void* root_tsan_fiber_ = nullptr;
  const void* root_stack_bottom_ = nullptr;  ///< Learned at first fiber entry.
  std::size_t root_stack_size_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis.
  SimScheduler* prev_installed_ = nullptr;
};

/// Cooperative mutex.  Safe to hold across a fiber switch (unlike a real
/// std::mutex under this backend); contended lock() parks the fiber and
/// unlock() makes every waiter runnable again — which one wins is the
/// scheduler's (seeded) choice.
class SimMutex {
 public:
  SimMutex() = default;
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

 private:
  bool locked_ = false;
  std::deque<int> waiters_;
};

/// Cooperative condition variable over SimMutex.  notify_one wakes a
/// policy-chosen waiter; which waiter reacquires the mutex first is again
/// the scheduler's choice, so the usual predicated-wait loops explore real
/// wakeup orders.  Timed waits use the virtual clock.
class SimCondVar {
 public:
  SimCondVar() = default;
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;

  void notify_one();
  void notify_all();

  void wait(std::unique_lock<SimMutex>& lock);

  template <typename Predicate>
  void wait(std::unique_lock<SimMutex>& lock, Predicate pred) {
    while (!pred()) wait(lock);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(std::unique_lock<SimMutex>& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
    return wait_until_ns(lock, deadline_from(ns));
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(std::unique_lock<SimMutex>& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
    const util::TimeNs deadline = deadline_from(ns);
    while (!pred()) {
      if (wait_until_ns(lock, deadline) == std::cv_status::timeout) {
        return pred();
      }
    }
    return true;
  }

 private:
  static util::TimeNs deadline_from(std::int64_t timeout_ns);
  std::cv_status wait_until_ns(std::unique_lock<SimMutex>& lock,
                               util::TimeNs deadline);
  std::vector<int> waiters_;
};

/// Fiber-backed stand-in for std::thread: construction spawns a fiber on the
/// current SimScheduler, join() parks the calling fiber until it completes.
class SimThread {
 public:
  SimThread() = default;
  explicit SimThread(std::function<void()> body);
  ~SimThread();

  SimThread(SimThread&& other) noexcept;
  SimThread& operator=(SimThread&& other) noexcept;
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  bool joinable() const { return fiber_ >= 0; }
  void join();

 private:
  SimScheduler* scheduler_ = nullptr;
  int fiber_ = -1;
};

/// util::Clock adapter over the installed scheduler's virtual clock, so that
/// `Options::clock` defaults (detection-rule timestamps) follow virtual time
/// automatically under this backend.
class SimClock final : public util::Clock {
 public:
  util::TimeNs now_ns() const override;
  static SimClock& instance();
};

struct SimBackend {
  using Mutex = SimMutex;
  using CondVar = SimCondVar;
  using Thread = SimThread;

  static util::TimeNs now();
  /// Virtual "CPU" time: the budget controller's spend measurements become
  /// deterministic functions of the schedule rather than of the host.
  static util::TimeNs cpu_now() { return now(); }
  static void sleep_for(util::TimeNs delta);
  static void yield();
  /// Fixed worker-count clamp so pool sizing is schedule-independent.
  static unsigned hardware_concurrency() { return 2; }
  static const util::Clock* clock() { return &SimClock::instance(); }
};

}  // namespace robmon::sync
