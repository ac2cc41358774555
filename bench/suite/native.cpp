// Native workloads: robmon's public surface (src/robmon.hpp) driven by
// closed-loop clients, with fault injection as an open loop timed from when
// each fault was due.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "robmon.hpp"
#include "workloads/account.hpp"
#include "workloads.hpp"

namespace suite {

namespace {

using robmon::core::MonitorSpec;
using robmon::rt::CheckerPool;
using robmon::rt::RobustMonitor;
using robmon::rt::Status;
using robmon::trace::Pid;
using robmon::wl::AccountManager;
using robmon::wl::BoundedBuffer;
using robmon::wl::ResourceAllocator;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
/// A fault not reported (or an episode not completed) this long after its
/// onset counts as missed (failed).
constexpr std::int64_t kDeadline = kSec;

/// The timestamping ReportSink wrapper: every report with its arrival time.
class TimestampSink final : public robmon::core::ReportSink {
 public:
  void report(const robmon::core::FaultReport&) override {
    const std::int64_t at = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    times_.push_back(at);
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return times_.size();
  }
  /// Earliest report at or after `t`; -1 when none.
  std::int64_t first_at_or_after(std::int64_t t) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::int64_t at : times_) {
      if (at >= t) return at;
    }
    return -1;
  }
  /// Reports strictly before `t`.
  std::size_t count_before(std::int64_t t) const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(
        std::count_if(times_.begin(), times_.end(),
                      [t](std::int64_t at) { return at < t; }));
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::int64_t> times_;
};

/// Totals over the detection-on phases, folded into per-layer metrics.
struct Layers {
  double on_wall_s = 0;
  std::uint64_t on_ops = 0;
  std::uint64_t checks = 0, dispatches = 0, coalesced = 0;
  std::uint64_t quiesce_ns = 0, check_ns = 0;
  std::uint64_t detector_checks = 0, idle_checks = 0, violations = 0;
  std::uint64_t events_processed = 0, appended = 0;
  std::uint64_t waitfor_passes = 0, lockorder_passes = 0;
  std::uint64_t recovery_actions = 0;
  std::size_t lockorder_edges = 0, graph_monitors = 0, monitors = 0;
  std::size_t pending_max = 0;
  std::vector<double> setups;  ///< Detection-on set-up times (s).
  std::vector<std::string> kinds;  ///< Op kinds of the workload's clients.
  std::vector<double> detect_ms, recover_ms, report_to_action_ms,
      action_to_complete_ms, lag_ms;
};

MonitorSpec make_spec(MonitorSpec spec, std::int64_t check_period,
                      std::int64_t timers) {
  spec.check_period = check_period;
  spec.t_max = timers;
  spec.t_io = timers;
  spec.t_limit = timers;
  return spec;
}

/// A world is everything one phase runs against: monitors, their sinks,
/// and (detection on) the shared CheckerPool.  Rebuilt for every phase so
/// each phase starts from the same state.
class World {
 public:
  struct PoolConfig {
    std::int64_t waitfor_period = 0;
    std::int64_t lockorder_period = 0;
    bool recovery = false;
  };

  World(bool on, const PoolConfig& config) : on_(on) {
    if (!on_) return;
    CheckerPool::Options options;
    options.threads = 1;
    options.waitfor_checkpoint_period = config.waitfor_period;
    options.waitfor_sink = &waitfor_sink_;
    options.lockorder_checkpoint_period = config.lockorder_period;
    options.lockorder_sink = &lockorder_sink_;
    if (config.recovery) {
      options.recovery.policy = &policy_;
      options.recovery.sink = &action_sink_;
    }
    pool_ = std::make_unique<CheckerPool>(options);
  }
  virtual ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  virtual std::vector<std::string> kinds() const = 0;
  /// Closed-loop client threads are app threads [0, loop_threads()).
  virtual int loop_threads() const = 0;
  virtual int app_threads() const { return loop_threads(); }
  virtual void app_thread(int index, ThreadStats& stats, Rng& rng,
                          const std::atomic<bool>& stop) = 0;
  /// Open-loop actions due by `now`, on the driver thread; returns the next
  /// due time and appends each action's lateness to `lag_ms`.
  virtual std::int64_t tick(std::int64_t now, std::vector<double>& lag_ms) {
    (void)now;
    (void)lag_ms;
    return kNever;
  }
  /// Stop raised: unblock app threads so they can be joined.
  virtual void stop_load() {}
  /// App threads joined: settle outstanding faults, check gates, and add
  /// this phase's layer totals.
  virtual void finish(Report& report, Layers& layers, Tracer& tracer) = 0;

  std::size_t pending() const {
    std::size_t total = 0;
    for (const auto& m : monitors_) total += m->monitor().log().pending();
    return total;
  }
  CheckerPool* pool() { return pool_.get(); }

 protected:
  RobustMonitor& add_monitor(MonitorSpec spec, double stretch = 1.0) {
    sinks_.push_back(std::make_unique<TimestampSink>());
    RobustMonitor::Options options;
    options.instrumentation = on_ ? robmon::rt::Instrumentation::kFull
                                  : robmon::rt::Instrumentation::kOff;
    options.checker_pool = pool_.get();
    options.cadence_max_stretch = stretch;
    monitors_.push_back(std::make_unique<RobustMonitor>(
        std::move(spec), *sinks_.back(), options));
    return *monitors_.back();
  }
  void start_checking() {
    if (!on_) return;
    for (auto& m : monitors_) m->start_checking();
  }

  /// Gates and layer totals every native world shares.  `silent(i)` says
  /// whether monitor i must have drawn no report at all.
  void common_finish(Report& report, Layers& layers,
                     const std::function<bool(std::size_t)>& silent,
                     const std::string& workload) {
    std::uint64_t lost = 0;
    std::size_t noisy = 0;
    for (std::size_t i = 0; i < monitors_.size(); ++i) {
      lost += monitors_[i]->monitor().events_lost();
      if (silent(i) && sinks_[i]->count() > 0) ++noisy;
    }
    report.gate(workload + ".events_lost", lost == 0,
                std::to_string(lost) + " events lost");
    report.gate(workload + ".no_false_positives", noisy == 0,
                std::to_string(noisy) + " monitors reported without a fault");
    if (!on_) return;
    report.gate(workload + ".no_order_warnings", lockorder_sink_.count() == 0,
                std::to_string(lockorder_sink_.count()) + " lock-order warnings");
    layers.checks += pool_->checks_executed();
    layers.dispatches += pool_->dispatches();
    layers.coalesced += pool_->checks_coalesced();
    layers.quiesce_ns += pool_->total_quiesce_ns();
    layers.check_ns += pool_->total_check_ns();
    layers.waitfor_passes += pool_->waitfor_checkpoints();
    layers.lockorder_passes += pool_->lockorder_checkpoints();
    layers.recovery_actions += pool_->recovery_actions();
    layers.lockorder_edges =
        std::max(layers.lockorder_edges, pool_->lockorder_edge_count());
    layers.graph_monitors =
        std::max(layers.graph_monitors, pool_->waitfor_graph_monitors());
    layers.monitors = std::max(layers.monitors, pool_->monitor_count());
    for (const auto& m : monitors_) {
      const auto& d = m->detector();
      layers.detector_checks += d.checks_run();
      layers.idle_checks += d.idle_checks();
      layers.violations += d.total_violations();
      layers.events_processed += d.events_processed();
      layers.appended += m->monitor().log().total_appended();
    }
  }

  bool on_;
  // Declaration order is teardown order in reverse: monitors leave the pool
  // before it is destroyed, and every sink outlives both.
  TimestampSink waitfor_sink_, lockorder_sink_, action_sink_;
  std::vector<std::unique_ptr<TimestampSink>> sinks_;
  robmon::core::RecoveryPolicy policy_{[] {
    robmon::core::RecoveryPolicy::Options o;
    o.preempt_predicted = false;
    return o;
  }()};
  std::unique_ptr<CheckerPool> pool_;
  std::vector<std::unique_ptr<RobustMonitor>> monitors_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// --- monitor_mix --------------------------------------------------------------

/// 18 monitors (6 each of coordinator, allocator, manager) on one pool;
/// three clients, each 95% on its own Zipf-ranked partition and 5% on two
/// shared hot monitors.  10% of allocator ops take a nested pair in global
/// index order, so lock-order prediction sees only consistent edges.
class MixWorld final : public World {
 public:
  static constexpr int kPerType = 6;
  static constexpr int kClients = 3;

  explicit MixWorld(bool on)
      : World(on, {.waitfor_period = 20 * kMs, .lockorder_period = 20 * kMs}) {
    for (int i = 0; i < kPerType; ++i) {
      buffers_.push_back(std::make_unique<BoundedBuffer>(
          add_monitor(make_spec(
              MonitorSpec::coordinator("mix-c" + std::to_string(i), 8),
              2 * kMs, 5 * kSec)),
          8));
    }
    for (int i = 0; i < kPerType; ++i) {
      allocators_.push_back(std::make_unique<ResourceAllocator>(
          add_monitor(make_spec(
              MonitorSpec::allocator("mix-a" + std::to_string(i)), 2 * kMs,
              5 * kSec)),
          2));
    }
    for (int i = 0; i < kPerType; ++i) {
      accounts_.push_back(std::make_unique<AccountManager>(
          add_monitor(make_spec(
              MonitorSpec::manager("mix-m" + std::to_string(i)), 2 * kMs,
              5 * kSec)),
          1 << 20));
    }
    // Global index g: coordinators [0,6), allocators [6,12), managers
    // [12,18).  Hot: the first coordinator and the first allocator.  The
    // rest are dealt round-robin, so every client has a similar type mix
    // and Zipf ranking; the seed drives only the per-op draws, which keeps
    // run-to-run spread down.
    int dealt = 0;
    for (int g = 0; g < 3 * kPerType; ++g) {
      if (g != 0 && g != kPerType) partition_[dealt++ % kClients].push_back(g);
    }
    for (int c = 0; c < kClients; ++c) {
      zipf_.emplace_back(partition_[c].size(), 1.0);
      client_allocators_[c].push_back(0);
      for (const int g : partition_[c]) {
        if (g >= kPerType && g < 2 * kPerType) {
          client_allocators_[c].push_back(g - kPerType);
        }
      }
    }
    start_checking();
  }

  std::vector<std::string> kinds() const override {
    return {"coordinator", "allocator", "manager"};
  }
  int loop_threads() const override { return kClients; }

  void app_thread(int c, ThreadStats& stats, Rng& rng,
                  const std::atomic<bool>& stop) override {
    const Pid pid = 100 + c;
    closed_loop(
        stats, rng, [&] { return stop.load(std::memory_order_relaxed); },
        [&](Rng& r) { return op(c, pid, r); });
  }

  void finish(Report& report, Layers& layers, Tracer&) override {
    if (on_) {
      report.gate("monitor_mix.no_deadlocks", waitfor_sink_.count() == 0,
                  std::to_string(waitfor_sink_.count()) + " cycle reports");
    }
    common_finish(
        report, layers, [](std::size_t) { return true; }, "monitor_mix");
  }

 private:
  int op(int c, Pid pid, Rng& r) {
    const int g = r.uniform() < 0.05
                      ? (r.below(2) == 0 ? 0 : kPerType)
                      : partition_[c][zipf_[c].sample(r)];
    if (g < kPerType) {
      std::int64_t item = 0;
      BoundedBuffer& b = *buffers_[g];
      return b.send(pid, 1) == Status::kOk &&
                     b.receive(pid, &item) == Status::kOk
                 ? 0
                 : -1;
    }
    if (g < 2 * kPerType) {
      int lo = g - kPerType;
      int hi = -1;
      const std::vector<int>& mine = client_allocators_[c];
      if (r.uniform() < 0.1 && mine.size() > 1) {
        hi = mine[r.below(mine.size())];
        if (hi == lo) hi = -1;
        if (hi >= 0 && hi < lo) std::swap(lo, hi);
      }
      bool ok = allocators_[lo]->acquire(pid) == Status::kOk;
      if (hi >= 0) {
        ok = ok && allocators_[hi]->acquire(pid) == Status::kOk;
        ok = ok && allocators_[hi]->release(pid) == Status::kOk;
      }
      ok = ok && allocators_[lo]->release(pid) == Status::kOk;
      return ok ? 1 : -1;
    }
    AccountManager& a = *accounts_[g - 2 * kPerType];
    return a.deposit(pid, 1) == Status::kOk &&
                   a.withdraw(pid, 1) == Status::kOk
               ? 2
               : -1;
  }

  std::vector<std::unique_ptr<BoundedBuffer>> buffers_;
  std::vector<std::unique_ptr<ResourceAllocator>> allocators_;
  std::vector<std::unique_ptr<AccountManager>> accounts_;
  std::vector<int> partition_[kClients];
  std::vector<int> client_allocators_[kClients];
  std::vector<Zipf> zipf_;
};

// --- many_idle ----------------------------------------------------------------

/// 512 monitors (256 coordinators, 256 allocators) on one pool with
/// adaptive cadence; two clients drive 8 hot monitors, and every 12 ms
/// (±3 ms) the driver fabricates a receive (fault II.c) on a distinct idle
/// coordinator, timing onset → first report.  A detected monitor stops
/// being checked, as an operator would retire it.
class IdleWorld final : public World {
 public:
  static constexpr int kPerType = 256;
  static constexpr int kHotPerType = 4;
  // About 80 injections a second: enough samples for a steady
  // detection-latency median, and fewer than the 252 idle coordinators of
  // a world for phases up to 3 s.
  static constexpr std::int64_t kInterval = 12 * kMs;
  static constexpr std::int64_t kJitter = 3 * kMs;

  IdleWorld(bool on, std::uint64_t seed)
      : World(on, {.waitfor_period = 10 * kMs}), rng_(seed) {
    for (int i = 0; i < kPerType; ++i) {
      RobustMonitor& m = add_monitor(
          make_spec(MonitorSpec::coordinator("idle-c" + std::to_string(i), 8),
                    kMs, 5 * kSec),
          8.0);
      robmon::inject::InjectionController* injection =
          &robmon::inject::NullInjection::instance();
      if (i >= kHotPerType) {
        injections_.push_back(
            std::make_unique<robmon::inject::ScriptedInjection>(
                robmon::inject::ScriptedInjection::Plan{
                    robmon::core::FaultKind::kReceiveExceedsSend}));
        injection = injections_.back().get();
      }
      buffers_.push_back(std::make_unique<BoundedBuffer>(m, 8, *injection));
    }
    for (int i = 0; i < kPerType; ++i) {
      allocators_.push_back(std::make_unique<ResourceAllocator>(
          add_monitor(make_spec(MonitorSpec::allocator("idle-a" +
                                                       std::to_string(i)),
                                kMs, 5 * kSec),
                      8.0),
          2));
    }
    for (int i = kHotPerType; i < kPerType; ++i) targets_.push_back(i);
    shuffle(targets_, rng_);
    injected_.assign(monitors_.size(), -1);
    start_checking();
  }

  std::vector<std::string> kinds() const override {
    return {"coordinator", "allocator"};
  }
  int loop_threads() const override { return 2; }

  void app_thread(int c, ThreadStats& stats, Rng& rng,
                  const std::atomic<bool>& stop) override {
    const Pid pid = 100 + c;
    closed_loop(
        stats, rng, [&] { return stop.load(std::memory_order_relaxed); },
        [&](Rng& r) {
          const std::size_t pick = 2 * static_cast<std::size_t>(c) + r.below(2);
          if (r.below(2) == 0) {
            std::int64_t item = 0;
            return buffers_[pick]->send(pid, 1) == Status::kOk &&
                           buffers_[pick]->receive(pid, &item) == Status::kOk
                       ? 0
                       : -1;
          }
          return allocators_[pick]->acquire(pid) == Status::kOk &&
                         allocators_[pick]->release(pid) == Status::kOk
                     ? 1
                     : -1;
        });
  }

  std::int64_t tick(std::int64_t now, std::vector<double>& lag_ms) override {
    if (!on_) return kNever;
    if (next_due_ == 0) next_due_ = now + jitter();
    retire_detected();
    while (now >= next_due_ && cursor_ < targets_.size()) {
      lag_ms.push_back(static_cast<double>(now - next_due_) / 1e6);
      const int target = targets_[cursor_];
      const std::int64_t onset = now_ns();
      std::int64_t item = 0;
      if (buffers_[static_cast<std::size_t>(target)]->receive(
              9000 + static_cast<Pid>(cursor_), &item) != Status::kOk) {
        ++failed_;
      }
      injected_[static_cast<std::size_t>(target)] = onset;
      outstanding_.push_back(target);
      ++cursor_;
      next_due_ += kInterval + jitter();
      now = now_ns();
    }
    return outstanding_.empty() ? next_due_
                                : std::min(next_due_, now + 2 * kMs);
  }

  void finish(Report& report, Layers& layers, Tracer& tracer) override {
    while (!outstanding_.empty()) {
      retire_detected();
      if (outstanding_.empty()) break;
      sleep_until_ns(now_ns() + kMs);
    }
    report.attempt(cursor_, failed_ + missed_);
    report.gate("many_idle.all_detected", missed_ == 0,
                std::to_string(missed_) + " of " + std::to_string(cursor_) +
                    " injections unreported after 1 s");
    std::size_t early = 0;
    for (std::size_t i = 0; i < injected_.size(); ++i) {
      if (injected_[i] >= 0 && sinks_[i]->count_before(injected_[i]) > 0) {
        ++early;
      }
    }
    report.gate("many_idle.no_report_before_onset", early == 0,
                std::to_string(early) + " injected monitors reported early");
    if (on_) {
      report.gate("many_idle.no_deadlocks", waitfor_sink_.count() == 0,
                  std::to_string(waitfor_sink_.count()) + " cycle reports");
    }
    common_finish(
        report, layers, [this](std::size_t i) { return injected_[i] < 0; },
        "many_idle");
    for (const auto& [onset, at] : detections_) {
      layers.detect_ms.push_back(static_cast<double>(at - onset) / 1e6);
      tracer.span("fault_episode", onset, at, 3,
                  "\"episode\":" + std::to_string(episode_++));
    }
  }

 private:
  std::int64_t jitter() {
    return static_cast<std::int64_t>(rng_.below(2 * kJitter + 1)) - kJitter;
  }

  void retire_detected() {
    const std::int64_t now = now_ns();
    std::erase_if(outstanding_, [&](int target) {
      const auto i = static_cast<std::size_t>(target);
      const std::int64_t onset = injected_[i];
      const std::int64_t at = sinks_[i]->first_at_or_after(onset);
      if (at >= 0) {
        detections_.emplace_back(onset, at);
        monitors_[i]->stop_checking();
        return true;
      }
      if (now - onset > kDeadline) {
        ++missed_;
        monitors_[i]->stop_checking();
        return true;
      }
      return false;
    });
  }

  Rng rng_;
  std::vector<std::unique_ptr<robmon::inject::ScriptedInjection>> injections_;
  std::vector<std::unique_ptr<BoundedBuffer>> buffers_;
  std::vector<std::unique_ptr<ResourceAllocator>> allocators_;
  std::vector<int> targets_;
  std::vector<std::int64_t> injected_;  ///< Onset per monitor; -1 = never.
  std::vector<int> outstanding_;
  std::vector<std::pair<std::int64_t, std::int64_t>> detections_;
  std::size_t cursor_ = 0;
  std::uint64_t failed_ = 0, missed_ = 0;
  std::int64_t next_due_ = 0;
  int episode_ = 0;
};

// --- deadlock_recovery --------------------------------------------------------

/// Two episode threads share a pair of 1-unit allocators ("forks").  Every
/// 75 ms each takes its first fork, they rendezvous, and each requests the
/// other's fork: a real cycle, which the pool's wait-for checkpoint confirms
/// and the recovery policy breaks by poisoning the victim's monitor.  Each
/// episode then takes a control pair in a consistent order, which must draw
/// nothing.  One background client drives four coordinators.  With
/// detection off the episodes take only the control pair (a real cycle
/// would never end).
class DeadlockWorld final : public World {
 public:
  static constexpr std::int64_t kInterval = 75 * kMs;

  DeadlockWorld(bool on, double seconds)
      : World(on, {.waitfor_period = 10 * kMs, .recovery = true}),
        capacity_(static_cast<std::size_t>(seconds * 1e9 / kInterval) + 4),
        episodes_(std::make_unique<Episode[]>(capacity_)) {
    const auto allocator = [&](const std::string& name) {
      return std::make_unique<ResourceAllocator>(
          add_monitor(make_spec(MonitorSpec::allocator(name), 5 * kMs,
                                30 * kSec)),
          1);
    };
    forks_[0] = allocator("dl-fork0");
    forks_[1] = allocator("dl-fork1");
    control_[0] = allocator("dl-ctl0");
    control_[1] = allocator("dl-ctl1");
    for (int i = 0; i < 4; ++i) {
      buffers_.push_back(std::make_unique<BoundedBuffer>(
          add_monitor(make_spec(
              MonitorSpec::coordinator("dl-c" + std::to_string(i), 8), 5 * kMs,
              30 * kSec)),
          8));
    }
    start_checking();
  }

  std::vector<std::string> kinds() const override { return {"coordinator"}; }
  int loop_threads() const override { return 1; }
  int app_threads() const override { return 3; }

  void app_thread(int index, ThreadStats& stats, Rng& rng,
                  const std::atomic<bool>& stop) override {
    if (index == 0) {
      closed_loop(
          stats, rng, [&] { return stop.load(std::memory_order_relaxed); },
          [&](Rng& r) {
            BoundedBuffer& b = *buffers_[r.below(buffers_.size())];
            std::int64_t item = 0;
            return b.send(100, 1) == Status::kOk &&
                           b.receive(100, &item) == Status::kOk
                       ? 0
                       : -1;
          });
      return;
    }
    const int t = index - 1;
    for (std::size_t next = 0;; ++next) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stopping_ || released_ > next; });
        if (released_ <= next) return;
      }
      run_episode(t, episodes_[next]);
    }
  }

  std::int64_t tick(std::int64_t now, std::vector<double>& lag_ms) override {
    if (broken_) return kNever;
    if (released_count() > 0) {
      Episode& last = episodes_[released_count() - 1];
      if (!last.complete()) {
        if (now - last.due > kDeadline) {
          broken_ = true;
          teardown();
          return kNever;
        }
        return std::min(now + kMs, last.due + kDeadline);
      }
    }
    if (next_due_ == 0) next_due_ = now;
    if (released_count() == capacity_) return kNever;
    if (now < next_due_) return next_due_;
    lag_ms.push_back(static_cast<double>(now - next_due_) / 1e6);
    Episode& e = episodes_[released_count()];
    e.due = next_due_;
    e.cycle = on_;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++released_;
    }
    cv_.notify_all();
    next_due_ += kInterval;
    return now + kMs;
  }

  void stop_load() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (released_count() == 0 || broken_) return;
    const Episode& last = episodes_[released_count() - 1];
    const std::int64_t give_up = now_ns() + kDeadline;
    while (!last.complete() && now_ns() < give_up) {
      sleep_until_ns(now_ns() + kMs);
    }
    if (!last.complete()) {
      broken_ = true;
      teardown();
    }
  }

  void finish(Report& report, Layers& layers, Tracer& tracer) override {
    const std::size_t n = released_count();
    std::size_t incomplete = 0, missed = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Episode& e = episodes_[k];
      if (!e.complete()) {
        ++incomplete;
        continue;
      }
      const std::int64_t done = std::max(e.done[0].load(), e.done[1].load());
      if (done - e.due > kDeadline) ++incomplete;
      if (!e.cycle) continue;
      const std::int64_t onset = std::max(e.req[0].load(), e.req[1].load());
      const std::int64_t reported = waitfor_sink_.first_at_or_after(onset);
      std::int64_t action = 0;
      for (const auto& f : e.fault) {
        const std::int64_t at = f.load();
        if (at > 0 && (action == 0 || at < action)) action = at;
      }
      if (reported < 0 || reported > done || action == 0) {
        ++missed;
        continue;
      }
      layers.detect_ms.push_back(static_cast<double>(reported - onset) / 1e6);
      layers.recover_ms.push_back(static_cast<double>(done - onset) / 1e6);
      layers.report_to_action_ms.push_back(
          static_cast<double>(action - reported) / 1e6);
      layers.action_to_complete_ms.push_back(
          static_cast<double>(done - action) / 1e6);
      const std::string id = "\"episode\":" + std::to_string(episode_id_++);
      tracer.span("fault_episode", e.due, done, 3, id);
      tracer.span("onset", e.due, onset, 4, id);
      tracer.span("report", onset, reported, 4, id);
      tracer.span("action", reported, action, 4, id);
      tracer.span("completion", action, done, 4, id);
    }
    report.attempt(n, incomplete + missed + failed_.load());
    report.gate("deadlock_recovery.episodes_complete", incomplete == 0,
                std::to_string(incomplete) + " of " + std::to_string(n) +
                    " episodes not completed within 1 s");
    report.gate("deadlock_recovery.cycles_detected", missed == 0,
                std::to_string(missed) + " cycles without report and action");
    report.gate("deadlock_recovery.op_status", failed_.load() == 0,
                std::to_string(failed_.load()) + " unexpected statuses");
    if (on_) {
      const std::uint64_t cycles = n - incomplete;
      report.gate("deadlock_recovery.one_report_per_cycle",
                  waitfor_sink_.count() == n,
                  std::to_string(waitfor_sink_.count()) + " reports for " +
                      std::to_string(n) + " cycles");
      report.gate("deadlock_recovery.actions_equal_episodes",
                  pool_->recovery_actions() == n &&
                      action_sink_.count() == n,
                  std::to_string(pool_->recovery_actions()) + " actions for " +
                      std::to_string(n) + " episodes (" +
                      std::to_string(cycles) + " completed)");
      std::size_t control_actions = 0;
      for (const auto& record : pool_->recovery_log()) {
        if (record.monitor.rfind("dl-ctl", 0) == 0) ++control_actions;
      }
      report.gate("deadlock_recovery.control_silent",
                  control_actions == 0 && sinks_[2]->count() == 0 &&
                      sinks_[3]->count() == 0,
                  std::to_string(control_actions) +
                      " recovery actions on the control pair");
    }
    common_finish(
        report, layers, [](std::size_t) { return true; }, "deadlock_recovery");
  }

 private:
  struct Episode {
    std::int64_t due = 0;
    bool cycle = false;
    std::atomic<int> arrived{0};
    std::atomic<std::int64_t> req[2] = {0, 0};
    std::atomic<std::int64_t> fault[2] = {0, 0};
    std::atomic<std::int64_t> done[2] = {0, 0};
    bool complete() const { return done[0].load() > 0 && done[1].load() > 0; }
  };

  std::size_t released_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return released_;
  }

  void run_episode(int t, Episode& e) {
    const Pid pid = 200 + t;
    if (e.cycle) {
      ResourceAllocator& first = *forks_[t];
      ResourceAllocator& second = *forks_[1 - t];
      if (first.acquire(pid) != Status::kOk) return fail();
      e.arrived.fetch_add(1);
      while (e.arrived.load() < 2) {
        if (broken_) return;
        std::this_thread::yield();
      }
      e.req[t].store(now_ns());
      bool have_first = true;
      for (;;) {
        if (!have_first) {
          const Status s = first.acquire(pid);
          if (s == Status::kPoisoned) return;
          if (s != Status::kOk) {
            sleep_until_ns(now_ns() + 100'000);
            continue;
          }
          have_first = true;
        }
        const Status s = second.acquire(pid);
        if (s == Status::kOk) break;
        first.release(pid);
        if (s == Status::kPoisoned) return;
        // kRecoveryFault: this thread is the victim.  Hand the first fork
        // back, which lets the other crossing finish, then retry.
        if (e.fault[t].load() == 0) e.fault[t].store(now_ns());
        have_first = false;
        sleep_until_ns(now_ns() + 100'000);
      }
      second.release(pid);
      first.release(pid);
    }
    for (auto& c : control_) {
      if (c->acquire(pid) != Status::kOk) return fail();
    }
    control_[1]->release(pid);
    control_[0]->release(pid);
    e.done[t].store(now_ns());
  }

  void fail() { failed_.fetch_add(1); }

  /// Teardown poison: unblocks every parked thread with kPoisoned.
  void teardown() {
    broken_ = true;
    for (auto& m : monitors_) m->poison();
  }

  std::unique_ptr<ResourceAllocator> forks_[2];
  std::unique_ptr<ResourceAllocator> control_[2];
  std::vector<std::unique_ptr<BoundedBuffer>> buffers_;
  const std::size_t capacity_;
  std::unique_ptr<Episode[]> episodes_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t released_ = 0;  ///< Guarded by mu_.
  bool stopping_ = false;     ///< Guarded by mu_.
  std::atomic<bool> broken_{false};
  std::atomic<std::uint64_t> failed_{0};
  std::int64_t next_due_ = 0;
  int episode_id_ = 0;
};

// --- Phase harness ------------------------------------------------------------

using Factory = std::function<std::unique_ptr<World>(bool on, std::uint64_t)>;

Factory factory_for(const RunOptions& options, double phase_seconds) {
  if (options.workload == "monitor_mix") {
    return [](bool on, std::uint64_t) {
      return std::make_unique<MixWorld>(on);
    };
  }
  if (options.workload == "many_idle") {
    return [](bool on, std::uint64_t seed) {
      return std::make_unique<IdleWorld>(on, seed);
    };
  }
  if (options.workload == "deadlock_recovery") {
    return [phase_seconds](bool on, std::uint64_t) {
      return std::make_unique<DeadlockWorld>(on, phase_seconds);
    };
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

/// Set-up time: world construction, including pool start and scheduling
/// of every monitor.
double timed_setup(const Factory& make, std::uint64_t seed,
                   std::unique_ptr<World>* world) {
  const std::int64_t start = now_ns();
  *world = make(true, seed);
  return static_cast<double>(now_ns() - start) / 1e9;
}

PhaseResult run_phase(const Factory& make, bool on, double seconds,
                      std::uint64_t seed, const RunOptions& options,
                      Report& report, Layers& layers, Tracer& tracer) {
  const std::int64_t built = now_ns();
  std::unique_ptr<World> world = make(on, seed);
  layers.kinds = world->kinds();
  const std::vector<std::string>& kinds = layers.kinds;
  const int n = world->app_threads();
  std::vector<ThreadStats> stats(static_cast<std::size_t>(n));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ThreadStats& s = stats[static_cast<std::size_t>(i)];
      Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(i));
      s.trace = options.trace;
      if (s.trace) s.spans.reserve(1 << 16);
      ready.fetch_add(1);
      ready.notify_all();
      go.wait(false);
      const std::int64_t cpu = thread_cpu_ns();
      world->app_thread(i, s, rng, stop);
      s.cpu_ns = thread_cpu_ns() - cpu;
    });
  }
  for (int r = ready.load(); r < n; r = ready.load()) ready.wait(r);

  const std::int64_t proc_cpu = process_cpu_ns();
  const std::int64_t main_cpu = thread_cpu_ns();
  const std::int64_t start = now_ns();
  go.store(true);
  go.notify_all();
  const std::int64_t end_due = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_sample = options.trace ? start + kMs : kNever;
  std::int64_t next_counter = options.trace ? start : kNever;
  std::int64_t due = world->tick(start, layers.lag_ms);
  for (std::int64_t now = now_ns(); now < end_due; now = now_ns()) {
    if (now >= next_sample) {
      layers.lag_ms.push_back(static_cast<double>(now - next_sample) / 1e6);
      layers.pending_max = std::max(layers.pending_max, world->pending());
      next_sample += kMs;
    }
    if (now >= next_counter) {
      if (world->pool() != nullptr) {
        tracer.counter("checks_executed", now,
                       static_cast<double>(world->pool()->checks_executed()));
      }
      tracer.counter("pending_events", now,
                     static_cast<double>(world->pending()));
      tracer.counter("process_cpu_ms", now,
                     static_cast<double>(process_cpu_ns() - proc_cpu) / 1e6);
      next_counter += 100 * kMs;
    }
    if (now >= due) due = world->tick(now, layers.lag_ms);
    sleep_until_ns(std::min({end_due, due, next_sample, next_counter}));
  }
  stop.store(true);
  const std::int64_t end = now_ns();
  world->stop_load();
  for (auto& t : threads) t.join();
  const std::int64_t proc_delta = process_cpu_ns() - proc_cpu;
  const std::int64_t main_delta = thread_cpu_ns() - main_cpu;

  PhaseResult r;
  r.on = on;
  r.wall_s = static_cast<double>(end - start) / 1e9;
  r.loop_threads = world->loop_threads();
  std::int64_t app_cpu = 0;
  for (int i = 0; i < n; ++i) {
    const ThreadStats& s = stats[static_cast<std::size_t>(i)];
    app_cpu += s.cpu_ns;
    if (i >= r.loop_threads) continue;
    r.ops += s.ops;
    r.failed += s.failed;
    r.loop_cpu_ns += s.cpu_ns;
    r.all.merge(s.all);
    for (std::size_t k = 0; k < kinds.size(); ++k) r.by_kind[k].merge(s.by_kind[k]);
    tracer.op_spans(s.spans, kinds, 10 + i);
  }
  r.detector_cpu_ns = proc_delta - app_cpu - main_delta;
  world->finish(report, layers, tracer);
  if (on) {
    layers.on_wall_s += r.wall_s;
    layers.on_ops += r.ops;
  }
  tracer.span("setup", built, start, 1, on ? "\"detection\":\"on\"" : "");
  tracer.span("measured", start, end, 1,
              on ? "\"detection\":\"on\"" : "\"detection\":\"off\"");
  return r;
}

double p(std::vector<double> v, double q) { return sample_quantile(v, q); }

void emit_layers(const Layers& l, const std::string& workload, bool trace,
                 Report& report) {
  const double wall = l.on_wall_s;
  const auto per_s = [wall](std::uint64_t v) {
    return static_cast<double>(v) / wall;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double checks = static_cast<double>(l.checks);
  report.metric("detector.monitors", static_cast<double>(l.monitors), "count",
                1);
  report.metric("trace.events_per_op",
                ratio(static_cast<double>(l.appended),
                      static_cast<double>(l.on_ops)),
                "events", l.on_ops);
  report.metric("runtime.pool.checks_per_s", per_s(l.checks), "1/s", l.checks);
  report.metric("runtime.pool.check_us_mean",
                ratio(static_cast<double>(l.check_ns), checks) / 1000, "us",
                l.checks);
  report.metric("runtime.pool.dispatches_per_1k_checks",
                ratio(static_cast<double>(l.dispatches) * 1000, checks),
                "count", l.checks);
  report.metric("runtime.pool.idle_check_ratio",
                ratio(static_cast<double>(l.idle_checks),
                      static_cast<double>(l.detector_checks)),
                "fraction", l.detector_checks);
  report.metric("runtime.pool.coalesced_per_s", per_s(l.coalesced), "1/s",
                l.coalesced);
  report.metric("sync.gate.quiesce_us_mean",
                ratio(static_cast<double>(l.quiesce_ns), checks) / 1000, "us",
                l.checks);
  report.metric("sync.gate.quiesce_share",
                static_cast<double>(l.quiesce_ns) / (wall * 1e9), "fraction",
                l.checks);
  report.metric("core.detector.events_per_check",
                ratio(static_cast<double>(l.events_processed),
                      static_cast<double>(l.detector_checks)),
                "events", l.detector_checks);
  report.metric("core.detector.violations", static_cast<double>(l.violations),
                "count", l.detector_checks);
  report.metric("core.waitfor.passes_per_s", per_s(l.waitfor_passes), "1/s",
                l.waitfor_passes);
  report.metric("core.waitfor.graph_monitors",
                static_cast<double>(l.graph_monitors), "count", 1);
  report.metric("core.lockorder.passes_per_s", per_s(l.lockorder_passes),
                "1/s", l.lockorder_passes);
  report.metric("core.lockorder.edges", static_cast<double>(l.lockorder_edges),
                "count", 1);
  report.metric("core.recovery.actions",
                static_cast<double>(l.recovery_actions), "count", 1);
  report.metric("bench.generator_lag_ms_p99", p(l.lag_ms, 0.99), "ms",
                l.lag_ms.size());
  if (trace) {
    report.metric("trace.pending_max", static_cast<double>(l.pending_max),
                  "events", 1);
  }
  if (workload == "many_idle" || workload == "deadlock_recovery") {
    report.metric("detect_latency_p50_ms", p(l.detect_ms, 0.5), "ms",
                  l.detect_ms.size());
    report.metric("detect_latency_p90_ms", p(l.detect_ms, 0.9), "ms",
                  l.detect_ms.size());
  }
  if (workload == "deadlock_recovery") {
    report.metric("recover_latency_p50_ms", p(l.recover_ms, 0.5), "ms",
                  l.recover_ms.size());
    report.metric("core.recovery.report_to_action_ms_p50",
                  p(l.report_to_action_ms, 0.5), "ms",
                  l.report_to_action_ms.size());
    report.metric("core.recovery.action_to_complete_ms_p50",
                  p(l.action_to_complete_ms, 0.5), "ms",
                  l.action_to_complete_ms.size());
  }
}

}  // namespace

void run_native(const RunOptions& options, Report& report, Tracer& tracer) {
  const double phase_seconds = options.seconds / (2 * kPairs);
  const Factory make = factory_for(options, phase_seconds);
  Layers layers;

  // Warm-up: one detection-on phase whose numbers are discarded (its gates
  // still count).
  {
    Layers unused;
    Tracer off(false);
    RunOptions quiet = options;
    quiet.trace = false;
    run_phase(make, true, kWarmupSeconds, options.seed, quiet, report,
              unused, off);
  }
  std::vector<PhaseResult> phases;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool first_on = on_first(options.seed, pair);
    for (const bool on : {first_on, !first_on}) {
      const std::uint64_t seed =
          options.seed * 7919 + static_cast<std::uint64_t>(pair);
      phases.push_back(run_phase(make, on, phase_seconds, seed, options,
                                 report, layers, tracer));
      phases.back().pair = pair;
      // Set-ups timed between phases sample the machine across the whole
      // run, so that their median is steady.
      for (int i = 0; i < kSetupsPerPhase; ++i) {
        std::unique_ptr<World> world;
        layers.setups.push_back(timed_setup(make, seed, &world));
      }
    }
  }
  report.phases(phases, layers.setups, layers.kinds, "runtime.monitor");
  emit_layers(layers, options.workload, options.trace, report);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                "MB", 1);
}

}  // namespace suite
