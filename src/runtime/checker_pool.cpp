#include "runtime/checker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <stdexcept>
#include <utility>

namespace robmon::rt {

namespace {

/// Floor for the checking cadence: a zero check_period (the paper's
/// per-event "T = 1" request, which the pool does not implement) would turn
/// a worker into a hot spin loop.
constexpr util::TimeNs kMinPeriodNs = 100'000;  // 100us

/// EWMA of drained segment sizes below which a monitor counts as idle for
/// the adaptive-cadence controller.
constexpr double kIdleEventsEwma = 0.5;

/// EWMA weight of the newest drained segment size in the idle estimate.
constexpr double kEventsEwmaAlpha = 0.25;

/// Segment buffers up to this many events of capacity are always recycled;
/// a larger one is recycled only while its segment fills a quarter of it.
constexpr std::size_t kKeptSegmentCapacity = 4096;

/// Deadlines and durations are backend wall-clock: Options::clock only feeds
/// the detection rules, so a frozen ManualClock must not stall the cadence.
/// Under SimBackend this is the scheduler's virtual clock, which only a
/// scheduler step can freeze — and then nothing runs at all.
util::TimeNs wall_now() { return sync::backend_now(); }

/// Budgeted check cost is measured on the *thread CPU* clock, not the wall
/// clock: a batch preempted mid-flight on a contended box would otherwise
/// charge the scheduler's time slice to the detection budget and drive
/// spurious degradation.  The spend window itself stays wall-clock (the
/// budget is "checking cycles per wall-clock second").  Falls back to the
/// wall clock where no thread CPU clock exists.
util::TimeNs cpu_now() { return sync::backend_cpu_now(); }

std::size_t clamp_threads(std::size_t requested) {
  const std::size_t hardware =
      std::max<std::size_t>(1, sync::backend_hardware_concurrency());
  if (requested == 0) return hardware;
  return std::min(requested, hardware);
}

}  // namespace

CheckerPool::CheckerPool(Options options)
    : clock_(options.clock),
      configured_threads_(clamp_threads(options.threads)),
      waitfor_period_(options.waitfor_checkpoint_period > 0
                          ? std::max(options.waitfor_checkpoint_period,
                                     kMinPeriodNs)
                          : 0),
      waitfor_sink_(options.waitfor_sink),
      lockorder_period_(options.lockorder_checkpoint_period > 0
                            ? std::max(options.lockorder_checkpoint_period,
                                       kMinPeriodNs)
                            : 0),
      lockorder_sink_(options.lockorder_sink),
      recovery_(options.recovery),
      budget_(options.budget) {
  if (waitfor_period_ > 0 && waitfor_sink_ == nullptr) {
    throw std::invalid_argument(
        "CheckerPool: waitfor_checkpoint_period set without a waitfor_sink");
  }
  if (lockorder_period_ > 0 && lockorder_sink_ == nullptr) {
    throw std::invalid_argument(
        "CheckerPool: lockorder_checkpoint_period set without a "
        "lockorder_sink");
  }
}

CheckerPool::~CheckerPool() {
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (sync::BackendThread& worker : workers_) worker.join();
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source,
                                        core::Detector& detector) {
  return add_impl(source, &detector, MonitorOptions{});
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source,
                                        core::Detector& detector,
                                        MonitorOptions options) {
  return add_impl(source, &detector, std::move(options));
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source) {
  return add_impl(source, nullptr, MonitorOptions{});
}

CheckerPool::MonitorId CheckerPool::add(EventSink& source,
                                        MonitorOptions options) {
  return add_impl(source, nullptr, std::move(options));
}

CheckerPool::MonitorId CheckerPool::add_impl(EventSink& source,
                                             core::Detector* detector,
                                             MonitorOptions options) {
  // Detector-less sources pace themselves: cadence (and the timer clamp in
  // retire_check_locked) come from the source's own spec.
  const util::TimeNs requested_period = detector != nullptr
                                            ? detector->spec().check_period
                                            : source.spec().check_period;
  if (requested_period < 0) {
    throw std::invalid_argument(
        "CheckerPool::add: negative check_period");
  }
  if (options.max_stretch < 1.0) {
    throw std::invalid_argument(
        "CheckerPool::add: max_stretch must be >= 1");
  }
  auto entry = std::make_unique<Entry>();
  entry->monitor = &source;
  entry->detector = detector;
  entry->options = std::move(options);
  // Clamp (not reject) a zero period: callers historically pass 0 meaning
  // "as fast as possible", and the 100 µs floor keeps that from becoming a
  // hot spin on the heap.
  entry->period = std::max(requested_period, kMinPeriodNs);
  entry->effective_period = entry->period;

  std::lock_guard<sync::BackendMutex> lock(mu_);
  const MonitorId id = next_id_++;
  entry->id = id;
  entries_.emplace(id, std::move(entry));
  return id;
}

void CheckerPool::ensure_workers_locked() {
  if (!workers_.empty() || stop_) return;
  workers_.reserve(configured_threads_);
  for (std::size_t i = 0; i < configured_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void CheckerPool::schedule(MonitorId id) {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("CheckerPool::schedule: unknown monitor id");
  }
  Entry& entry = *it->second;
  if (entry.scheduled) return;
  entry.scheduled = true;
  ++entry.generation;
  // A fresh scheduling episode starts at base cadence: stretch retained
  // from a previous idle episode must not defer the first check while new
  // events accumulate.
  entry.stretch = 1.0;
  entry.ewma_events = 0.0;
  entry.effective_period = entry.period;
  // The first check of the episode runs in full: it re-contributes what
  // unschedule() withdrew from the wait-for graph.
  entry.quiet = false;
  heap_.push({wall_now() + entry.period, id, entry.generation});
  if (waitfor_enabled() && !checkpoint_scheduled_) {
    heap_.push({wall_now() + waitfor_period_, kCheckpointId, 0});
    checkpoint_scheduled_ = true;
  }
  if (lockorder_enabled() && !lockorder_scheduled_) {
    heap_.push({wall_now() + lockorder_period_, kLockOrderId, 0});
    lockorder_scheduled_ = true;
  }
  ensure_workers_locked();
  work_cv_.notify_all();
}

void CheckerPool::unschedule(MonitorId id) {
  std::unique_lock<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  entry.scheduled = false;
  // A quiet entry vouches that the graphs hold its last full check's
  // contribution; the withdrawal below ends that.
  entry.quiet = false;
  ++entry.generation;  // invalidates every heap item for this monitor
  idle_cv_.wait(lock, [&entry] { return entry.busy == 0; });
  // Withdraw the wait-for contribution: it would never be refreshed again
  // and every checkpoint would re-derive (and re-validate) candidates from
  // it.  A later check_now()/schedule() re-contributes.
  std::lock_guard<sync::BackendMutex> graph_lock(graph_mu_);
  graph_.erase(id);
}

void CheckerPool::remove(MonitorId id) {
  std::unique_lock<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  entry.scheduled = false;
  ++entry.generation;
  idle_cv_.wait(lock, [&entry] { return entry.busy == 0; });
  entries_.erase(it);  // stale heap items are discarded by the workers
  // No check of this monitor is in flight or can start (busy drained above),
  // so nothing can re-contribute this id's edges after the erase.  Per the
  // lifecycle contract (header comment), remove() erases the monitor from
  // BOTH pool-level graphs and re-arms every reported cycle naming it —
  // wait-for and order side handled identically.
  const auto names_monitor = [id](const auto& reported) {
    const auto& monitors = reported.second;
    return std::find(monitors.begin(), monitors.end(), id) != monitors.end();
  };
  {
    std::lock_guard<sync::BackendMutex> graph_lock(graph_mu_);
    graph_.erase(id);
    std::erase_if(reported_cycles_, names_monitor);
  }
  {
    std::lock_guard<sync::BackendMutex> order_lock(lockorder_mu_);
    order_graph_.erase(id);
    std::erase_if(reported_order_cycles_, names_monitor);
  }
}

core::Detector::CheckStats CheckerPool::check_now(MonitorId id) {
  Entry* entry = nullptr;
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    auto it = entries_.find(id);
    // Unknown or just-removed id: report "no check ran" instead of
    // throwing.  Callers probing mid-churn (the schedule explorer) cannot
    // atomically check-and-call, so caller discipline is not enforceable
    // here.
    if (it == entries_.end()) return core::Detector::CheckStats{};
    entry = it->second.get();
    ++entry->busy;  // pins the entry: remove() waits for busy == 0
  }
  // The busy pin must drop even if the check throws (e.g. a user
  // on_checkpoint callback), or unschedule()/remove() would block forever.
  struct BusyRelease {
    CheckerPool* pool;
    Entry* entry;
    ~BusyRelease() {
      {
        std::lock_guard<sync::BackendMutex> lock(pool->mu_);
        --entry->busy;
      }
      pool->idle_cv_.notify_all();
    }
  } release{this, entry};
  // A synchronous check runs on the caller's thread, so under a budget its
  // cost is in-path spend: measure and fold every one.
  const util::TimeNs started = budget_.enabled() ? cpu_now() : 0;
  CheckOutcome outcome;
  {
    std::lock_guard<sync::BackendMutex> check_lock(entry->check_mu);
    outcome = run_check(*entry, clock_->now_ns());
  }
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    retire_check_locked(*entry, outcome);
  }
  if (budget_.enabled()) budget_.record_batch(cpu_now() - started, wall_now());
  return outcome.stats;
}

std::size_t CheckerPool::thread_count() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  return workers_.size();
}

std::size_t CheckerPool::monitor_count() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  return entries_.size();
}

std::size_t CheckerPool::scheduled_count() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->scheduled) ++count;
  }
  return count;
}

util::TimeNs CheckerPool::period(MonitorId id) const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("CheckerPool::period: unknown monitor id");
  }
  return it->second->period;
}

util::TimeNs CheckerPool::effective_period(MonitorId id) const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument(
        "CheckerPool::effective_period: unknown monitor id");
  }
  return it->second->effective_period;
}

double CheckerPool::stretch(MonitorId id) const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw std::invalid_argument("CheckerPool::stretch: unknown monitor id");
  }
  return it->second->stretch;
}

CheckerPool::CheckOutcome CheckerPool::run_check(Entry& entry,
                                                 util::TimeNs rule_now) {
  const util::TimeNs started = wall_now();
  std::vector<trace::EventRecord>& segment = entry.segment;
  // The gate's probe is read before the capture, so a change racing the
  // capture reads as a change at the next due check, never as none.
  const std::optional<std::uint64_t> version = entry.monitor->state_version();
  // While a monitor is recovery-poisoned its traffic is out-of-band by
  // definition (evictions and would-block rejections record no events,
  // but admitted non-blocking calls still record theirs), so replaying
  // the window's segment would fabricate ST violations.  Detection is
  // suspended for the window — segment drained and discarded, state still
  // captured (the wait-for/order contributions stay fresh).  The monitor
  // ends the poison by itself, so it is read BEFORE the capture: a
  // rejection that landed between a capture and a later read would escape
  // both the discarded segment and the new baseline.
  const bool poisoned = entry.monitor->recovery_poisoned();
  // One atomic capture stands in for the paper's suspension: the segment
  // and the state belong to one instant, and everything below reads only
  // these private copies, so the monitor keeps serving meanwhile.
  const trace::SchedulingState state = entry.monitor->capture(segment);
  const util::TimeNs captured = wall_now();
  CheckOutcome outcome;
  core::Detector::CheckStats& stats = outcome.stats;
  // The rule state a later check could still fire on over an unchanged
  // state is absent (see Detector::quiescent); never while detection is
  // suspended or being resumed.
  bool at_rest = false;
  if (poisoned) {
    stats.idle = true;
  } else if (entry.suspended) {
    // Recovery complete: the first check after the poison ended restarts
    // the detector from its own capture.
    entry.suspended = false;
    if (entry.detector != nullptr) entry.detector->rebaseline(state);
    stats.idle = true;
    monitors_unpoisoned_.fetch_add(1, std::memory_order_relaxed);
    log_recovery({'C', trace::kNoPid, entry.monitor->spec().name, 0,
                  clock_->now_ns(),
                  "recovery complete: the poisoned hold ended"});
  } else if (entry.detector != nullptr) {
    stats = entry.detector->check(segment, state, rule_now);
    at_rest = entry.detector->quiescent();
  } else {
    // Detector-less sinks (interposition adapters) skip the per-monitor
    // algorithms — their synthetic stream is not a faithful Hoare history
    // and Algorithms 1-3 would fabricate ST violations over it — but still
    // feed the cadence controller (segment size) and, below, the pool-level
    // wait-for and lock-order contributions.
    stats.events = segment.size();
    stats.idle = segment.empty();
    at_rest = true;
  }
  const util::TimeNs finished = wall_now();
  checks_executed_.fetch_add(1, std::memory_order_relaxed);
  total_quiesce_ns_.fetch_add(static_cast<std::uint64_t>(captured - started),
                              std::memory_order_relaxed);
  total_check_ns_.fetch_add(static_cast<std::uint64_t>(finished - started),
                            std::memory_order_relaxed);
  outcome.occupied = state.has_running() || state.blocked_count() > 0;
  if (waitfor_enabled()) contribute_wait_edges(entry, state);
  // Shed with the prediction checkpoint: the per-check fold is the other
  // half of prediction's cost (the observe() join).  Edges missed while
  // shed are simply not recorded — the relation is advisory, and the
  // certified-interval join never fabricates, so resuming is safe.
  const bool order_shed = lockorder_enabled() && budget_.shed_prediction();
  if (lockorder_enabled() && !order_shed) contribute_lock_order(entry, state);
  if (entry.options.on_checkpoint) entry.options.on_checkpoint(state);
  // Quiet: every later check over this state, with nothing recorded since,
  // would replay nothing and fire nothing (see the header comment).  A
  // shed order fold left an older access set behind, so it does not count.
  if (version && at_rest && stats.violations == 0 && !outcome.occupied &&
      state.holders.empty() && !order_shed && !entry.options.on_checkpoint) {
    outcome.quiet_at = version;
  }
  // The two buffers that circulate between the log and entry.segment keep
  // the largest capacity either ever needed.  A check delayed by a few
  // periods drains a burst many times the usual segment, and without this
  // every busy monitor would hold two burst-sized buffers for good.
  if (segment.capacity() > kKeptSegmentCapacity &&
      segment.capacity() > 4 * segment.size()) {
    std::vector<trace::EventRecord> smaller;
    smaller.reserve(2 * segment.size());
    segment.swap(smaller);
  }
  return outcome;
}

bool CheckerPool::gate_holds_locked(const Entry& entry) const {
  return entry.quiet && entry.monitor->state_version() == entry.quiet_version;
}

void CheckerPool::retire_check_locked(Entry& entry,
                                      const CheckOutcome& outcome) {
  entry.quiet = outcome.quiet_at.has_value();
  entry.quiet_version = outcome.quiet_at.value_or(0);
  const core::Detector::CheckStats& stats = outcome.stats;
  const bool occupied = outcome.occupied;
  // Budget degradation feeds the same controller: level ≥ kStretch lifts
  // the idle-stretch ceiling (first shed step — idle monitors are checked
  // even more lazily, which costs nothing in detection latency thanks to
  // the timer clamp below), and kWiden multiplies the effective period of
  // EVERY monitor, occupied ones included (last step before nothing is
  // left to shed but detection itself — which is never shed; the clamp
  // keeps the widened period timer-bounded).  Both knobs are 1.0 when the
  // budget is disabled or nominal.
  const double boost = budget_.stretch_boost();
  const double widen = budget_.widen_factor();
  const double ceiling = std::max(1.0, entry.options.max_stretch * boost);
  entry.ewma_events = kEventsEwmaAlpha * static_cast<double>(stats.events) +
                      (1.0 - kEventsEwmaAlpha) * entry.ewma_events;
  // Symmetric recovery: a ceiling that shrank back (boost returned to 1)
  // re-clamps stretch retained from the pressure episode immediately.
  entry.stretch = std::min(entry.stretch, ceiling);
  if (stats.events > 0 || occupied) {
    // Activity, or anybody running/queued: base cadence, now.  Every new
    // fault arrives with events or occupancy — a standing violation
    // re-reported over an idle monitor does not — and occupancy is the
    // precondition of every timer rule (ST-5/6/8c), so an occupied monitor
    // is always checked at base cadence.
    entry.stretch = 1.0;
  } else if (entry.ewma_events < kIdleEventsEwma) {
    entry.stretch = std::min(entry.stretch * 2.0, ceiling);
  }
  util::TimeNs effective = static_cast<util::TimeNs>(
      static_cast<double>(entry.period) * std::max(entry.stretch, widen));
  // Detection-latency clamp.  A blocking episode that *begins* mid-
  // stretched-interval is only noticed at the next (deferred) check, so
  // the effective period also bounds that first detection latency.  Capping
  // it at the smallest *positive* timer threshold (never below the base
  // period; a zeroed threshold means "rule unused", not "clamp off") keeps
  // the deferred case within ~2x the threshold: onset -> next check is at
  // most that threshold, and the check both snaps the cadence back to base
  // and evaluates the timer rules.  Tmax < T_eff (the Section 3.3
  // relation) holds throughout, since stretching only grows T.
  const core::MonitorSpec& spec = entry.detector != nullptr
                                      ? entry.detector->spec()
                                      : entry.monitor->spec();
  util::TimeNs min_timer = 0;
  for (const util::TimeNs threshold : {spec.t_max, spec.t_io, spec.t_limit}) {
    if (threshold > 0 && (min_timer == 0 || threshold < min_timer)) {
      min_timer = threshold;
    }
  }
  if (min_timer > 0) {
    effective = std::min(effective, std::max(entry.period, min_timer));
  }
  entry.effective_period = std::max<util::TimeNs>(1, effective);
}

util::TimeNs CheckerPool::next_due_locked(const Entry& entry,
                                          util::TimeNs due,
                                          util::TimeNs finished) {
  const util::TimeNs period = std::max<util::TimeNs>(1, entry.effective_period);
  const util::TimeNs next = due + period;
  if (next > finished) return next;  // on schedule (includes pulled-forward)
  // The check outlasted its period: `missed` deadlines fell due while it
  // ran.  Slip the grid; the next check's drained segment covers them.
  const std::uint64_t missed =
      static_cast<std::uint64_t>((finished - next) / period) + 1;
  checks_coalesced_.fetch_add(missed, std::memory_order_relaxed);
  return finished + period;
}

void CheckerPool::finish_slot_locked(const BatchSlot& slot) {
  Entry& entry = *slot.entry;
  // Deadlines restart from the item's original due time, so checks the
  // window pulled forward keep their cadence grid; a check that outlasted
  // its period slips the grid instead.
  if (entry.scheduled && entry.generation == slot.item.generation) {
    retire_check_locked(entry, slot.outcome);
    heap_.push({next_due_locked(entry, slot.item.due, wall_now()),
                slot.item.id, slot.item.generation});
    work_cv_.notify_one();
  }
  --entry.busy;
}

void CheckerPool::contribute_wait_edges(const Entry& entry,
                                        const trace::SchedulingState& state) {
  // Resolve names and copy queues outside the graph lock; only the swap-in
  // happens under it.
  core::WaitContribution contribution = core::make_wait_contribution(
      entry.id, entry.monitor->spec().name, state, entry.monitor->symbols());
  std::lock_guard<sync::BackendMutex> lock(graph_mu_);
  graph_.update(std::move(contribution));
}

void CheckerPool::contribute_lock_order(const Entry& entry,
                                        const trace::SchedulingState& state) {
  // observe() joins this snapshot against every other monitor's current
  // accesses, so the whole fold runs under the order-graph lock.  The
  // access sets are one snapshot deep per monitor, keeping the join small.
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  order_graph_.observe(entry.id, entry.monitor->spec().name, state);
}

bool CheckerPool::validate_cycle(const core::DeadlockCycle& cycle) {
  // Pin every participating monitor so remove() cannot free an entry while
  // we re-snapshot it.  A monitor that already unregistered voids the cycle.
  std::vector<Entry*> pinned;
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    for (const auto& link : cycle.links) {
      auto it = entries_.find(link.monitor);
      if (it == entries_.end()) {
        for (Entry* entry : pinned) --entry->busy;
        if (!pinned.empty()) idle_cv_.notify_all();
        return false;
      }
      Entry* entry = it->second.get();
      // A cycle may traverse one monitor more than once; pin per link so
      // the unpin below is symmetric.
      ++entry->busy;
      pinned.push_back(entry);
    }
  }
  // Two sequential live passes, each re-snapshotting every participating
  // monitor.  One pass is not enough for exactness: its snapshots are taken
  // at different instants, so link A could be confirmed at t1, dissolve,
  // and link B (formed only after A dissolved) be confirmed at t2 — a
  // "cycle" that never coexisted.  With two passes, a link confirmed in
  // both with the SAME blocking episode and the same hold episode was
  // continuously blocked/held across the boundary between the passes — a
  // parked thread cannot release anything, and a re-formed wait or hold
  // carries a fresh episode ticket.  So every edge of the cycle exists
  // simultaneously at the instant pass 1 ended, and the deadlock is real;
  // a cycle that resolved before the checkpoint fails here and is never
  // reported.  Episode identity is the per-monitor monotonic ticket
  // (clock-independent: distinct episodes get distinct tickets even under
  // a frozen ManualClock); only links from pre-ticket traces fall back to
  // enqueue/hold timestamps.
  bool confirmed = true;
  for (int pass = 0; pass < 2 && confirmed; ++pass) {
    for (std::size_t i = 0; i < cycle.links.size() && confirmed; ++i) {
      const auto& link = cycle.links[i];
      const trace::SchedulingState state = pinned[i]->monitor->snapshot();
      confirmed =
          core::link_holds_in(link, state, pinned[i]->monitor->symbols());
    }
  }
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    for (Entry* entry : pinned) --entry->busy;
  }
  idle_cv_.notify_all();
  return confirmed;
}

std::size_t CheckerPool::run_waitfor_checkpoint() {
  if (!waitfor_enabled()) return 0;
  std::lock_guard<sync::BackendMutex> pass_lock(checkpoint_pass_mu_);
  std::vector<core::DeadlockCycle> candidates;
  {
    std::lock_guard<sync::BackendMutex> lock(graph_mu_);
    candidates = graph_.find_cycles();
  }
  waitfor_checkpoints_.fetch_add(1, std::memory_order_relaxed);

  std::size_t confirmed_count = 0;
  std::unordered_set<std::string> confirmed_keys;
  for (const core::DeadlockCycle& cycle : candidates) {
    if (!validate_cycle(cycle)) continue;
    ++confirmed_count;
    const std::string key = cycle.key();
    confirmed_keys.insert(key);
    bool already_reported;
    {
      std::lock_guard<sync::BackendMutex> lock(graph_mu_);
      std::vector<MonitorId> monitors;
      monitors.reserve(cycle.links.size());
      for (const auto& link : cycle.links) monitors.push_back(link.monitor);
      already_reported =
          !reported_cycles_.emplace(key, std::move(monitors)).second;
    }
    if (already_reported) continue;
    deadlocks_reported_.fetch_add(1, std::memory_order_relaxed);
    waitfor_sink_->report(core::make_cycle_report(cycle, clock_->now_ns()));
    // Exactly one recovery action per reported cycle: actuation rides the
    // same newly-reported edge as the fault report.
    if (recovery_enabled()) act_on_confirmed_cycle(cycle);
  }

  // Forget cycles that no longer hold.  (A deadlock that re-forms carries
  // fresh episode tickets, hence a fresh key, and is reported again even
  // if no pass ran while it was dissolved.)
  {
    std::lock_guard<sync::BackendMutex> lock(graph_mu_);
    std::erase_if(reported_cycles_, [&](const auto& reported) {
      return confirmed_keys.find(reported.first) == confirmed_keys.end();
    });
  }
  return confirmed_count;
}

std::size_t CheckerPool::waitfor_graph_monitors() const {
  std::lock_guard<sync::BackendMutex> lock(graph_mu_);
  return graph_.monitor_count();
}

std::size_t CheckerPool::run_lockorder_checkpoint() {
  if (!lockorder_enabled()) return 0;
  if (budget_.shed_prediction()) {
    // Prediction is shed before detection (budget level ≥ kShedPrediction):
    // the pass is skipped, not cancelled — the periodic heap item keeps
    // rescheduling, so the first pass after recovery resumes over the
    // accumulated relation.  lockorder_checkpoints() deliberately does not
    // advance: it counts passes that ran.
    prediction_sheds_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  // Order cycles are accumulated historical facts — no live validation
  // pass, and no cross-pass race to serialize: the reported-set insert
  // under the graph lock makes concurrent passes agree on who reports.
  std::vector<core::OrderCycle> fresh;
  std::vector<core::OrderEdge> edges_snapshot;
  std::size_t present = 0;
  {
    std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
    for (core::OrderCycle& cycle : order_graph_.find_cycles()) {
      ++present;
      auto [it, inserted] =
          reported_order_cycles_.emplace(cycle.key(), cycle.monitors());
      if (inserted) fresh.push_back(std::move(cycle));
    }
    // The pre-emptive decision scores minority edges by witness count; take
    // the relation snapshot under the same lock as the verdicts.
    if (!fresh.empty() && recovery_enabled()) {
      edges_snapshot = order_graph_.edges();
    }
  }
  lockorder_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  for (const core::OrderCycle& cycle : fresh) {
    potential_deadlocks_reported_.fetch_add(1, std::memory_order_relaxed);
    lockorder_sink_->report(
        core::make_order_report(cycle, clock_->now_ns()));
    if (recovery_enabled()) act_on_order_cycle(cycle, edges_snapshot);
  }
  return present;
}

std::size_t CheckerPool::lockorder_edge_count() const {
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  return order_graph_.edge_count();
}

std::vector<core::OrderEdge> CheckerPool::lockorder_edges() const {
  std::lock_guard<sync::BackendMutex> lock(lockorder_mu_);
  return order_graph_.edges();
}

CheckerPool::Entry* CheckerPool::pin_entry(MonitorId id) {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  ++it->second->busy;  // remove() waits for busy == 0
  // The action re-baselines the detector: the next check runs in full.  A
  // check landing between here and the action cannot re-arm the gate
  // across it, since both remedies move the monitor's state version.
  it->second->quiet = false;
  return it->second.get();
}

void CheckerPool::unpin_entry(Entry* entry) {
  if (entry == nullptr) return;
  {
    std::lock_guard<sync::BackendMutex> lock(mu_);
    --entry->busy;
  }
  idle_cv_.notify_all();
}

void CheckerPool::rebaseline_entry(Entry& entry) {
  // Discard the segment spanning the action and restart the detector from
  // the post-action state.  The caller holds entry.check_mu, so no worker
  // check interleaves between the action and the new baseline.
  const trace::SchedulingState state = entry.monitor->capture(entry.segment);
  if (entry.detector != nullptr) entry.detector->rebaseline(state);
}

void CheckerPool::act_on_confirmed_cycle(const core::DeadlockCycle& cycle) {
  const core::RecoveryDecision decision = recovery_.policy->decide(cycle);
  if (decision.victim.pid == trace::kNoPid) return;
  Entry* entry = pin_entry(decision.victim.monitor);
  if (entry == nullptr) return;  // victim monitor unregistered: cycle gone
  {
    // check_mu spans the action and the re-baseline: a periodic check must
    // never observe the post-action queues against a pre-action baseline
    // (that mismatch would read as an ST-Rule violation).
    std::lock_guard<sync::BackendMutex> check_lock(entry->check_mu);
    if (decision.remedy == core::RecoveryRemedy::kPoisonVictim) {
      // The poison lasts as long as the hold the victim waits behind; the
      // monitor ends it, and run_check resumes detection after.
      const auto link = std::find_if(
          cycle.links.begin(), cycle.links.end(), [&](const auto& l) {
            return l.pid == decision.victim.pid &&
                   l.monitor == decision.victim.monitor;
          });
      entry->monitor->recovery_poison(
          link != cycle.links.end() ? link->holder_ticket : 0);
      entry->suspended = true;
      victims_poisoned_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry->monitor->deliver_recovery_fault(decision.victim.pid);
      recovery_faults_delivered_.fetch_add(1, std::memory_order_relaxed);
    }
    rebaseline_entry(*entry);
  }
  unpin_entry(entry);
  recovery_actions_.fetch_add(1, std::memory_order_relaxed);
  const util::TimeNs at = clock_->now_ns();
  log_recovery(core::make_recovery_record(decision, at));
  core::ReportSink* sink =
      recovery_.sink != nullptr ? recovery_.sink : waitfor_sink_;
  sink->report(core::make_recovery_report(decision, at));
}

void CheckerPool::act_on_order_cycle(
    const core::OrderCycle& cycle,
    const std::vector<core::OrderEdge>& edges) {
  if (!recovery_.policy->preempt_predicted() || recovery_.gate == nullptr) {
    return;
  }
  const core::OrderDecision decision = recovery_.policy->decide(cycle, edges);
  if (decision.imposed_order.empty()) return;
  recovery_.gate->impose(decision.imposed_order, decision.fenced);
  orders_imposed_.fetch_add(1, std::memory_order_relaxed);
  recovery_actions_.fetch_add(1, std::memory_order_relaxed);
  const util::TimeNs at = clock_->now_ns();
  log_recovery(core::make_recovery_record(decision, at));
  core::ReportSink* sink =
      recovery_.sink != nullptr ? recovery_.sink : lockorder_sink_;
  sink->report(core::make_recovery_report(decision, at));
}

void CheckerPool::log_recovery(trace::RecoveryRecord record) {
  std::lock_guard<sync::BackendMutex> lock(recovery_mu_);
  recovery_log_.push_back(std::move(record));
}

std::vector<trace::RecoveryRecord> CheckerPool::recovery_log() const {
  std::lock_guard<sync::BackendMutex> lock(recovery_mu_);
  return recovery_log_;
}

std::uint64_t CheckerPool::events_lost() const {
  std::lock_guard<sync::BackendMutex> lock(mu_);
  std::uint64_t lost = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->monitor != nullptr) lost += entry->monitor->events_lost();
  }
  return lost;
}

void CheckerPool::run_checkpoint_item_locked(
    std::unique_lock<sync::BackendMutex>& lock, MonitorId id) {
  heap_.pop();  // this worker owns the pass; re-pushed when done
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  const util::TimeNs pass_started = budget_.enabled() ? cpu_now() : 0;
  if (id == kCheckpointId) {
    run_waitfor_checkpoint();
  } else {
    run_lockorder_checkpoint();
  }
  if (budget_.enabled()) {
    // Checkpoint passes are detection spend too (graph SCC + live
    // validation can dwarf a per-monitor check); one clock pair per pass,
    // same as a dispatch batch.
    budget_.record_batch(cpu_now() - pass_started, wall_now());
  }
  lock.lock();
  const bool any_scheduled =
      std::any_of(entries_.begin(), entries_.end(), [](const auto& kv) {
        return kv.second->scheduled;
      });
  bool& armed =
      id == kCheckpointId ? checkpoint_scheduled_ : lockorder_scheduled_;
  if (!any_scheduled) {
    // Nothing is being checked, so nothing refreshes the graphs
    // (unschedule also withdrew the wait-for contributions); schedule()
    // re-arms on the next scheduling instead of waking a worker every
    // period for an idle pool.
    armed = false;
  } else {
    const util::TimeNs period =
        id == kCheckpointId ? waitfor_period_ : lockorder_period_;
    heap_.push({wall_now() + period, id, 0});
    work_cv_.notify_one();
  }
}

void CheckerPool::worker_loop() {
  std::unique_lock<sync::BackendMutex> lock(mu_);
  std::vector<BatchSlot> batch;
  while (!stop_) {
    if (heap_.empty()) {
      work_cv_.wait(lock);
      continue;
    }
    const HeapItem top = heap_.top();
    util::TimeNs now = wall_now();
    if (top.due > now) {
      work_cv_.wait_for(lock, std::chrono::nanoseconds(top.due - now));
      continue;
    }
    if (top.id < kFirstMonitorId) {
      run_checkpoint_item_locked(lock, top.id);
      continue;
    }

    // --- Form a batch: every monitor due now, plus near-due monitors
    // within one check-period quantum of the head.  One dispatch amortizes
    // the heap pops, the condvar wake-up and the rule-clock read across
    // the whole batch.  The batch size cap splits the backlog across the
    // pool's workers (heap size / K, min 1) so one worker never serializes
    // a whole due wave while its K-1 peers idle; on a single-worker pool
    // the cap is the full wave.
    batch.clear();
    const std::size_t batch_cap =
        std::max<std::size_t>(1, heap_.size() / configured_threads_);
    util::TimeNs window = 0;
    while (!heap_.empty() && batch.size() < batch_cap) {
      const HeapItem item = heap_.top();
      if (item.id < kFirstMonitorId) break;  // checkpoints dispatch alone
      auto it = entries_.find(item.id);
      if (it == entries_.end() || it->second->generation != item.generation ||
          !it->second->scheduled) {
        heap_.pop();  // stale: unscheduled, rescheduled, or removed
        continue;
      }
      if (batch.empty()) {
        if (item.due > now) break;  // head raced away (stale pops)
        window = it->second->period;
      } else if (item.due > now + window) {
        break;
      }
      heap_.pop();
      ++it->second->busy;
      batch.push_back({it->second.get(), item, {}});
    }
    if (batch.empty()) continue;  // everything popped was stale
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    // If due work remains beyond this batch's cap, wake a peer to serve it
    // concurrently.
    if (!heap_.empty() && heap_.top().due <= now) work_cv_.notify_one();
    lock.unlock();

    // One rule-clock read per batch, not per check.  Timer rules for later
    // batch members see a timestamp early by at most the batch runtime —
    // conservative: a threshold crossed mid-batch is simply caught at that
    // monitor's next check.  The budget measurement reuses the same
    // structure: one thread-CPU clock pair brackets the whole batch (the
    // spend it charges is the worker's CPU time, relocks and cadence
    // updates included — exactly the cost the batch imposed, and immune to
    // preemption charging the scheduler's slice to the budget).
    const util::TimeNs batch_started = budget_.enabled() ? cpu_now() : 0;
    const util::TimeNs rule_now = clock_->now_ns();
    for (BatchSlot& slot : batch) {
      Entry& entry = *slot.entry;
      // Slots run sequentially, so an unschedule()/remove() issued after
      // batch formation may have landed before this slot's turn: re-check
      // under mu_ and skip the now-pointless check (dropping the pin
      // immediately) instead of making the caller wait on it.  The
      // evidence gate is read under the same lock: a quiet monitor whose
      // version has not moved is answered here, with no check_mu, capture
      // or graph fold.  Reading it at the slot's turn, not when the batch
      // formed, keeps the instant a change is first seen where the capture
      // would have seen it, so the gate does not move detection latency.
      {
        std::lock_guard<sync::BackendMutex> relock(mu_);
        if (!entry.scheduled || entry.generation != slot.item.generation) {
          --entry.busy;
          slot.entry = nullptr;
        } else if (gate_holds_locked(entry)) {
          slot.outcome = {};  // no events, unoccupied, still quiet
          slot.outcome.stats.idle = true;
          slot.outcome.quiet_at = entry.quiet_version;
          checks_executed_.fetch_add(1, std::memory_order_relaxed);
          finish_slot_locked(slot);
          slot.entry = nullptr;
        }
      }
      if (slot.entry == nullptr) {
        idle_cv_.notify_all();
        continue;
      }
      {
        std::lock_guard<sync::BackendMutex> check_lock(entry.check_mu);
        slot.outcome = run_check(entry, rule_now);
      }
      // Retire the slot as soon as its check completes — cadence update,
      // reschedule, busy release — so a waiting unschedule()/remove() of
      // this monitor (e.g. a RobustMonitor destructor) resumes after this
      // check instead of after the whole batch.  The entry pointer is only
      // safe before the busy drop: remove() may free it right after.
      {
        std::lock_guard<sync::BackendMutex> relock(mu_);
        finish_slot_locked(slot);
      }
      idle_cv_.notify_all();
    }
    if (budget_.enabled()) {
      budget_.record_batch(cpu_now() - batch_started, wall_now());
    }
    lock.lock();
  }
}

}  // namespace robmon::rt
