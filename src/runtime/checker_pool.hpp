// CheckerPool — the sharded, deadline-scheduled, batch-draining detection
// engine, and the only one: a RobustMonitor without a shared pool owns a
// one-thread pool of its own.
//
// The paper's fault-detection routine (Fig. 1) is specified per monitor;
// running it on one thread per monitor makes a process with M monitors pay
// M mostly-idle threads.  The pool inverts the structure: K worker threads
// (K bounded by hardware concurrency, configurable) share a min-heap of
// registered monitors ordered by next check deadline (spec.check_period
// cadence).  When a monitor comes due, one worker captures it —
// EventSink::capture() drains the event segment and snapshots the
// scheduling state under one hold of the monitor's own lock — and runs its
// Detector on those private copies.  That capture is the whole of the
// paper's "suspend every process while checking": there is no global
// stop-the-world across monitors, and the monitor keeps serving while
// Algorithms 1-3 run.
//
// Batched dispatch: a dispatching worker pops not just the due head but
// every monitor due within one check-period quantum of the head monitor,
// then runs the batch's checks back-to-back outside the scheduler lock.
// This amortizes heap operations, condvar wake-ups, lock acquisitions and
// rule-clock reads (one Clock::now_ns() per batch, not per check) across
// the batch — at M=256 monitors on one cadence, a per-item loop paid one
// dispatch per check.  Checks pulled forward by the window are rescheduled
// from their *original* deadline, so the cadence grid is preserved.
//
// Evidence gate: a due check of a monitor whose state has not changed
// since its last full check, when that check left the monitor *quiet*, is
// answered at its batch slot, under the relock that slot takes anyway, by
// one read of EventSink::state_version() — no check_mu, no capture, no
// Algorithms 1-3, no wait-for or lock-order fold.  Quiet means the check
// saw nobody running, queued or holding, no open Request-List entry or
// user assertion, no violation, no poison or suspended detection, and
// folded its lock-order contribution (prediction not shed), and the entry
// has no on_checkpoint callback.  The check the gate answers would have
// read an empty segment and s_t == s_p with every timer rule vacuous, so
// it could change no verdict; it still counts in checks_executed() and
// feeds the cadence controller as an idle check.  check_now() always runs
// in full.
//
// Backlog: when a check outlasts its (effective) period, the next deadline
// is already in the past.  The pool slips the grid — the missed slots are
// absorbed by the next check (the drained segment covers them) and counted
// in checks_coalesced() — so a slow monitor never starves the rest of the
// pool.
//
// Adaptive cadence: MonitorOptions::max_stretch > 1 lets an *idle* monitor
// be checked lazily — its effective period stretches geometrically from
// check_period up to check_period × max_stretch while consecutive checks
// drain nothing, and snaps back to check_period on the first check that
// sees events or occupancy.  The paper's Section 3.3
// Tmax < T relation holds throughout (stretching only grows T), and the
// timer rules keep a hard latency bound: a monitor observed occupied is
// always checked at base cadence, and for an episode that *begins* inside
// a stretched interval the effective period is additionally clamped to
// the smallest timer threshold (min(Tmax, Tio, Tlimit), never below the
// base period) — so the first post-onset check, which both evaluates the
// timer rules and snaps the cadence back, runs within one threshold of
// onset.
//
// Lifecycle: add() registers a monitor (idle); schedule() begins periodic
// checking; unschedule() stops it and blocks until any in-flight check of
// that monitor completes; remove() unregisters.  check_now() runs one
// synchronous check from the caller's thread and needs no workers, so a
// never-scheduled pool is free.  Worker threads spawn lazily on the first
// schedule() and are joined by the destructor.
//
// Cross-monitor deadlock detection (Options::waitfor_checkpoint_period):
// every check of every registered monitor additionally folds its snapshot
// into a shared core::WaitForGraph; a pool-level checkpoint item on the
// same deadline heap periodically runs cycle detection over the graph.
// Candidate cycles may rest on snapshots taken at different times, so each
// one is confirmed against *live* re-snapshots of the participating
// monitors (same blocking episode, same hold episode) before a
// GlobalDeadlock fault naming the full thread/monitor cycle goes to the
// waitfor sink — a cycle that resolved before the checkpoint is never
// reported.  Episodes are identified by per-monitor monotonic tickets
// (HoareMonitor::next_ticket_), so the zero-false-positive guarantee is
// clock-independent — it holds even under a frozen ManualClock.  A
// confirmed cycle is reported once and re-armed if it ever dissolves.
//
// Lock-order prediction (Options::lockorder_checkpoint_period): a second
// pool-level checkpoint, on its own reserved heap item, accumulates the
// (monitor -> monitor) acquisition-order relation — fed from the same
// per-check snapshots (SchedulingState.holders plus each thread's queued
// acquisitions) via core::LockOrderGraph — and runs SCC
// cycle detection over the *order* graph.  A cycle there means monitors
// are taken in inconsistent orders even though no real wait cycle ever
// closed; it is reported once as a kPotentialDeadlock warning naming the
// exact monitor cycle and the witnessing thread/episode-ticket pairs.
// Unlike wait-for candidates, order cycles are historical facts, so there
// is no live-validation pass; soundness comes from the certified-interval
// join (see core/lockorder.hpp).  Unscheduling keeps a monitor's recorded
// order edges (the warning stays valid); unregistering erases them.
//
// Recovery (Options::recovery): with a core::RecoveryPolicy attached, both
// pool-level checkpoints turn their verdicts into actions.  When a
// confirmed cycle is first reported, the policy scores the blocked
// participants and the pool actuates the chosen remedy — recovery-poisons
// the monitor the victim waits on (waiters wake with Status::kRecoveryFault
// instead of blocking forever) or delivers a designated RecoveryFault to
// the victim thread alone.  The poison is cast against the hold the victim
// waits behind (the cycle link's holder ticket), and the monitor itself
// ends it when that hold ends; the pool only suspends the monitor's
// detection meanwhile, and the first check that reads the poison ended
// re-baselines the detector from its own capture (recovery complete).
// When a predicted order cycle is first warned about, the policy acts
// pre-emptively: the witness counts name the dominant acquisition order,
// and the pool engages Options::recovery.gate with that order plus the
// minority-edge witnesses, so cooperating call sites re-order (or fence)
// before the cycle can ever close.  Exactly one action fires per reported cycle.  After a poison or
// delivery the affected monitor's Detector is re-baselined
// (Detector::rebaseline) from a fresh capture — recovery transitions are
// out-of-band and must not surface as ST-Rule false positives.  Every
// action (and every completion) is appended to recovery_log() as a trace
// codec v4 `rcov` record; actions are also reported to
// Options::recovery.sink (rule RC).
//
// Overhead budget (Options::budget): a pool-wide BudgetController bounds
// total detection spend as a fraction of wall-clock time.  Measurement
// reuses the batch-drain structure — one thread-CPU clock pair per dispatch
// batch (and per checkpoint pass and check_now() call) feeds a windowed
// spend EWMA — and when the EWMA exceeds the budget the pool degrades one
// step per decision window, in a fixed order: idle cadence stretches
// harder, then lock-order *prediction* is shed (checkpoint passes and
// per-check folds skipped, resumable), then every effective check period
// widens toward the smallest timer threshold.  Confirmed-cycle
// (wait-for) detection and active recovery are never shed.  Recovery is
// symmetric with hysteresis, and every transition lands in budget_log() as
// a codec v6 `bdgt` record.  See runtime/budget.hpp for the controller and
// docs/overhead-budget.md for the contract the bench gates.
//
// Lifecycle contract (unschedule vs remove): unschedule(id) stops checking
// and withdraws the monitor's live wait-for contribution, but keeps its
// recorded order edges, every reported-cycle key and all introspection
// counters — a re-schedule resumes exactly where it left off, and nothing
// is re-reported.  remove(id) additionally erases the monitor's edges from
// BOTH pool-level graphs and re-arms every reported cycle (wait-for and
// order alike) that named the monitor: a cycle through an unregistered
// monitor no longer exists, and an equivalent one after a re-register must
// be reported (and recovered from) again.  Cumulative counters
// (checks_executed, deadlocks_reported, recovery_actions, ...) are
// lifetime totals and are never reset by schedule/unschedule/remove.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/detector.hpp"
#include "core/lockorder.hpp"
#include "core/recovery.hpp"
#include "core/waitfor.hpp"
#include "runtime/budget.hpp"
#include "sync/backend.hpp"
#include "sync/gate.hpp"
#include "runtime/event_sink.hpp"
#include "trace/codec.hpp"

namespace robmon::rt {

class CheckerPool {
 public:
  struct Options {
    /// Worker threads K; 0 means "hardware concurrency".  Always clamped to
    /// [1, hardware concurrency].
    std::size_t threads = 0;
    /// Supplies the timestamps the detection rules evaluate against (Tmax,
    /// Tio, Tlimit).  The check *cadence* is always the backend wall clock,
    /// so a frozen ManualClock cannot stall periodic checking.  Defaults to
    /// the sync backend's clock: real steady_clock normally, the
    /// SimScheduler's virtual clock under ROBMON_SYNC_BACKEND_SIM — rules
    /// and cadence then share one deterministic timeline.
    const util::Clock* clock = sync::backend_clock();
    /// Cadence of the pool-level wait-for checkpoint (wall-clock, like the
    /// check cadence).  0 disables cross-monitor deadlock detection.
    util::TimeNs waitfor_checkpoint_period = 0;
    /// Destination for GlobalDeadlock faults; required when the checkpoint
    /// is enabled.
    core::ReportSink* waitfor_sink = nullptr;
    /// Cadence of the pool-level lock-order prediction checkpoint
    /// (wall-clock).  0 disables lock-order prediction.
    util::TimeNs lockorder_checkpoint_period = 0;
    /// Destination for PotentialDeadlock warnings; required when the
    /// prediction checkpoint is enabled.
    core::ReportSink* lockorder_sink = nullptr;
    /// Recovery hook, invoked from both checkpoints (see file comment).
    struct Recovery {
      /// Decision logic; null disables recovery.  Must outlive the pool.
      core::RecoveryPolicy* policy = nullptr;
      /// Impose-order actuator for predicted cycles; without it the
      /// pre-emptive half of the policy is skipped (decisions on confirmed
      /// cycles still actuate).
      sync::Gate* gate = nullptr;
      /// Destination for ext.RC action reports; when null, confirmed-cycle
      /// actions go to waitfor_sink and order impositions to
      /// lockorder_sink.
      core::ReportSink* sink = nullptr;
    };
    Recovery recovery = {};
    /// Global detection-overhead budget (see the file comment and
    /// runtime/budget.hpp).  fraction ≤ 0 (the default) disables the
    /// controller: no measurement, no degradation, every knob neutral.
    BudgetOptions budget = {};
  };

  /// Per-monitor checking policy.
  struct MonitorOptions {
    /// Adaptive cadence ceiling: while the monitor is idle (no drained
    /// events, nobody running or queued), its effective check period
    /// stretches up to check_period × max_stretch.  1.0 = fixed cadence.
    /// Must be ≥ 1.
    double max_stretch = 1.0;
    /// Invoked with every checkpoint state (replayable-trace support).
    std::function<void(const trace::SchedulingState&)> on_checkpoint;
  };

  using MonitorId = std::uint64_t;

  CheckerPool() : CheckerPool(Options{}) {}
  explicit CheckerPool(Options options);
  ~CheckerPool();

  CheckerPool(const CheckerPool&) = delete;
  CheckerPool& operator=(const CheckerPool&) = delete;

  /// Register a source/detector pair.  The pair must outlive its
  /// registration (until remove() or pool destruction).  The check cadence
  /// is detector.spec().check_period, clamped to a 100 µs floor: the pool
  /// has no per-event mode, so a zero period (the paper's "T = 1" request)
  /// would otherwise hot-spin the heap.  A negative period is rejected
  /// (std::invalid_argument).  Registered monitors start idle.  Any
  /// EventSink registers; HoareMonitor implements the interface, so native
  /// monitors pass through unchanged.
  MonitorId add(EventSink& source, core::Detector& detector);
  MonitorId add(EventSink& source, core::Detector& detector,
                MonitorOptions options);

  /// Detector-less registration — the ingestion path for sources whose
  /// event stream is not a faithful Hoare-monitor history (the LD_PRELOAD
  /// interposition adapter's synthetic monitors): Algorithms 1-3 would
  /// fabricate ST violations over a synthetic stream, so the per-check
  /// work reduces to the capture + the pool-level wait-for and
  /// lock-order contributions, which are exactly the analyses that fire
  /// through the shim.  Cadence and the timer clamp come from
  /// source.spec(); every lifecycle and checkpoint behaviour is identical.
  MonitorId add(EventSink& source);
  MonitorId add(EventSink& source, MonitorOptions options);

  /// Begin periodic checking of `id` (first check one period from now).
  /// Spawns the worker threads on first use.  No-op if already scheduled.
  void schedule(MonitorId id);

  /// Stop periodic checking of `id`; on return no check of this monitor is
  /// in flight and none will start.  No-op if not scheduled.  Withdraws the
  /// live wait-for contribution but keeps recorded order edges, reported-
  /// cycle keys and counters (see the lifecycle contract above).
  void unschedule(MonitorId id);

  /// Unschedule and unregister `id`: erases the monitor's edges from both
  /// pool-level graphs and re-arms every reported cycle naming it, on both
  /// the wait-for and the order side (see the lifecycle contract above).
  void remove(MonitorId id);

  /// One synchronous checking-routine invocation on the caller's thread;
  /// serialized against any worker checking the same monitor.  Feeds the
  /// adaptive-cadence controller like a periodic check and, when the budget
  /// is enabled, the budget controller with its measured cost.  An unknown or
  /// just-removed id returns an empty CheckStats deterministically (the
  /// schedule explorer calls this mid-churn, where an id can vanish between
  /// the caller's lookup and the call).
  core::Detector::CheckStats check_now(MonitorId id);

  /// One synchronous wait-for checkpoint pass on the caller's thread:
  /// cycle detection over the contributed graph, live validation of every
  /// candidate, reporting of confirmed cycles.  Returns the number of
  /// cycles confirmed in this pass (reported ones plus already-known ones).
  /// No-op returning 0 when the checkpoint is disabled.
  std::size_t run_waitfor_checkpoint();

  /// One synchronous lock-order prediction pass on the caller's thread:
  /// SCC cycle detection over the accumulated order relation, reporting of
  /// newly seen cycles as kPotentialDeadlock.  Returns the number of
  /// plausible cycles present (reported plus already-reported).  No-op
  /// returning 0 when prediction is disabled.
  std::size_t run_lockorder_checkpoint();

  // --- Introspection (bench/check_overhead, bench/pool_scaling, tests). -----

  /// Worker threads currently running (0 until the first schedule()).
  std::size_t thread_count() const;
  std::size_t monitor_count() const;
  std::size_t scheduled_count() const;

  /// Clamped base check period of `id` (the floor applied by add()).
  util::TimeNs period(MonitorId id) const;
  /// Current effective period = period × stretch (adaptive cadence).
  util::TimeNs effective_period(MonitorId id) const;
  /// Current stretch factor in [1, max_stretch].
  double stretch(MonitorId id) const;

  /// Due checks answered by this pool (periodic + check_now), including
  /// the ones the evidence gate answers without running the algorithms.
  /// Detector::checks_run()/idle_checks() count only algorithm runs, so
  /// the gated checks of a monitor are the difference of the two.
  std::uint64_t checks_executed() const {
    return checks_executed_.load(std::memory_order_relaxed);
  }
  /// Worker dispatches: scheduler-lock acquire → run transitions (one per
  /// batch, plus one per checkpoint pass); dispatches()/checks_executed()
  /// is the amortization factor.
  std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }
  /// Missed deadlines absorbed by slipping the cadence grid.
  std::uint64_t checks_coalesced() const {
    return checks_coalesced_.load(std::memory_order_relaxed);
  }
  /// Cumulative wall time from check start to the end of the capture
  /// (EventSink::capture: drain + snapshot under the monitor's lock, plus
  /// the wait for that lock), and wall time of the full checking routine,
  /// in nanoseconds.
  std::uint64_t total_quiesce_ns() const {
    return total_quiesce_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_check_ns() const {
    return total_check_ns_.load(std::memory_order_relaxed);
  }
  /// Events dropped by the registered monitors' EventLogs at their pending
  /// bound (sum of EventLog::events_lost() over every currently registered
  /// monitor; see EventLog::Options::capacity).  A healthy pool keeps this
  /// at 0: the periodic drain empties each log well inside its capacity.
  /// Non-zero means ingestion outran checking and the loss accounting — not
  /// silent gaps — absorbed the difference.
  std::uint64_t events_lost() const;

  /// Wait-for checkpoint passes executed (periodic + run_waitfor_checkpoint).
  std::uint64_t waitfor_checkpoints() const {
    return waitfor_checkpoints_.load(std::memory_order_relaxed);
  }
  /// GlobalDeadlock faults delivered to the waitfor sink.
  std::uint64_t deadlocks_reported() const {
    return deadlocks_reported_.load(std::memory_order_relaxed);
  }
  /// Monitors currently contributing edges to the wait-for graph.
  std::size_t waitfor_graph_monitors() const;

  /// Lock-order prediction passes executed (periodic + synchronous).
  std::uint64_t lockorder_checkpoints() const {
    return lockorder_checkpoints_.load(std::memory_order_relaxed);
  }
  /// PotentialDeadlock warnings delivered to the lockorder sink.
  std::uint64_t potential_deadlocks_reported() const {
    return potential_deadlocks_reported_.load(std::memory_order_relaxed);
  }
  /// Distinct (from, to) pairs in the accumulated order relation.
  std::size_t lockorder_edge_count() const;
  /// Flattened copy of the order relation (trace export, diagnostics).
  std::vector<core::OrderEdge> lockorder_edges() const;

  /// Recovery actions applied (poisons + deliveries + order impositions;
  /// excludes recovery completions).
  std::uint64_t recovery_actions() const {
    return recovery_actions_.load(std::memory_order_relaxed);
  }
  std::uint64_t victims_poisoned() const {
    return victims_poisoned_.load(std::memory_order_relaxed);
  }
  std::uint64_t recovery_faults_delivered() const {
    return recovery_faults_delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t orders_imposed() const {
    return orders_imposed_.load(std::memory_order_relaxed);
  }
  /// Recovery completions: checks that resumed detection on a victim
  /// monitor after its poison ended (see the file comment).
  std::uint64_t monitors_unpoisoned() const {
    return monitors_unpoisoned_.load(std::memory_order_relaxed);
  }
  /// Copy of the action log, in order — the codec v4 `rcov` records a
  /// trace export attaches (examples/gate_crossing --trace).
  std::vector<trace::RecoveryRecord> recovery_log() const;

  /// Current overhead-budget degradation level (kNominal when disabled).
  BudgetLevel budget_level() const { return budget_.level(); }
  std::uint64_t budget_transitions() const { return budget_.transitions(); }
  /// Cumulative detection spend the budget controller was fed (thread-CPU
  /// ns of every batch, checkpoint pass and check_now); 0 when disabled.
  std::uint64_t budget_spent_ns() const { return budget_.spent_ns(); }
  /// Copy of the transition log, in order — the codec v6 `bdgt` records a
  /// trace export attaches.
  std::vector<trace::BudgetRecord> budget_log() const {
    return budget_.log();
  }
  /// Lock-order prediction checkpoint passes skipped under budget pressure.
  std::uint64_t prediction_sheds() const {
    return prediction_sheds_.load(std::memory_order_relaxed);
  }

 private:
  /// Reserved heap ids for the pool-level checkpoint items; real monitors
  /// start at kFirstMonitorId.
  static constexpr MonitorId kCheckpointId = 0;
  static constexpr MonitorId kLockOrderId = 1;
  static constexpr MonitorId kFirstMonitorId = 2;

  struct Entry {
    MonitorId id = 0;
    EventSink* monitor = nullptr;
    /// Null for detector-less registrations (see add(EventSink&, ...)).
    core::Detector* detector = nullptr;
    MonitorOptions options;
    util::TimeNs period = 0;            ///< Clamped base period.
    util::TimeNs effective_period = 0;  ///< period × stretch (mu_).
    double stretch = 1.0;               ///< Cadence controller state (mu_).
    double ewma_events = 0.0;           ///< EWMA of drained segment sizes.
    /// Bumped by schedule()/unschedule(); stale heap items are discarded.
    std::uint64_t generation = 0;
    bool scheduled = false;
    /// Checks currently executing against this entry (worker or check_now).
    int busy = 0;
    /// Serializes the actual checking routine per monitor.  Backend mutex:
    /// held across the capture and the recovery actuators, which block.
    sync::BackendMutex check_mu;
    /// Detection suspended by a recovery poison the pool cast (check_mu):
    /// cleared, with a re-baseline, by the first check that reads the
    /// monitor unpoisoned.
    bool suspended = false;
    /// Evidence gate (mu_): the last full check left the monitor quiet,
    /// and `quiet_version` is the state version read before its capture.
    /// A due check finding the version unmoved is answered without running.
    bool quiet = false;
    std::uint64_t quiet_version = 0;
    /// The last drained segment (check_mu).  capture() swaps it with
    /// the sink's pending buffer, so the two buffers are recycled instead
    /// of reallocated every check (run_check shrinks one a burst left
    /// oversized).
    std::vector<trace::EventRecord> segment;
  };

  struct HeapItem {
    util::TimeNs due = 0;
    MonitorId id = 0;
    std::uint64_t generation = 0;
    bool operator>(const HeapItem& other) const { return due > other.due; }
  };

  /// What one check leaves for the cadence controller and the gate.
  struct CheckOutcome {
    core::Detector::CheckStats stats;
    bool occupied = false;  ///< Snapshot showed running/queued processes.
    /// Set when the check left the monitor quiet: the state version read
    /// before its capture.
    std::optional<std::uint64_t> quiet_at;
  };

  /// One batch slot: the pinned entry plus the heap item it came from and
  /// the check's outcome (for cadence/reschedule under the relock).
  struct BatchSlot {
    Entry* entry = nullptr;
    HeapItem item;
    CheckOutcome outcome;
  };

  /// Shared registration body; `detector` may be null (detector-less add).
  MonitorId add_impl(EventSink& source, core::Detector* detector,
                     MonitorOptions options);
  void worker_loop();
  void ensure_workers_locked();
  /// Run one full check; `rule_now` is the rule-clock timestamp shared by
  /// the whole batch.  check_mu held.
  CheckOutcome run_check(Entry& entry, util::TimeNs rule_now);
  /// Whether a due check of `entry` is answered by the evidence gate: the
  /// last full check left it quiet and its state version has not moved
  /// since.  mu_ held.
  bool gate_holds_locked(const Entry& entry) const;
  /// Fold one check's outcome into the entry: the gate state and the
  /// cadence controller's EWMA/stretch.  mu_ held.
  void retire_check_locked(Entry& entry, const CheckOutcome& outcome);
  /// Retire a batch slot's check and re-push its heap item while the entry
  /// is still scheduled under the slot's generation; drops the slot's busy
  /// pin (remove() may free the entry right after).  mu_ held.
  void finish_slot_locked(const BatchSlot& slot);
  /// Next deadline after a check scheduled at `due` finished at `finished`,
  /// coalescing missed slots.  mu_ held.
  util::TimeNs next_due_locked(const Entry& entry, util::TimeNs due,
                               util::TimeNs finished);
  /// Handle a due pool-level checkpoint heap item (`id` names which of the
  /// two).  Lock held on entry and exit; released around the pass itself.
  void run_checkpoint_item_locked(std::unique_lock<sync::BackendMutex>& lock,
                                  MonitorId id);

  bool waitfor_enabled() const {
    return waitfor_period_ > 0 && waitfor_sink_ != nullptr;
  }
  bool lockorder_enabled() const {
    return lockorder_period_ > 0 && lockorder_sink_ != nullptr;
  }
  /// Fold `state` into the wait-for graph as `entry`'s current edge set.
  void contribute_wait_edges(const Entry& entry,
                             const trace::SchedulingState& state);
  /// Fold `state` into the acquisition-order relation.
  void contribute_lock_order(const Entry& entry,
                             const trace::SchedulingState& state);
  /// Live validation: re-snapshot the cycle's monitors and require every
  /// link to still hold (same blocking episode, same hold episode).
  bool validate_cycle(const core::DeadlockCycle& cycle);

  bool recovery_enabled() const { return recovery_.policy != nullptr; }
  /// Pin `id`'s entry (remove() waits on the busy count) for an actuation,
  /// and clear its gate state; nullptr when the monitor already
  /// unregistered.  Callers must unpin_entry() the result.
  Entry* pin_entry(MonitorId id);
  void unpin_entry(Entry* entry);
  /// Drain the monitor's segment and re-baseline its detector from the same
  /// capture — recovery transitions are out-of-band and must not surface
  /// as ST-Rule violations.
  void rebaseline_entry(Entry& entry);
  /// Actuate the policy's decision for a newly reported confirmed cycle.
  void act_on_confirmed_cycle(const core::DeadlockCycle& cycle);
  /// Actuate the pre-emptive decision for a newly warned order cycle;
  /// `edges` is the relation snapshot the decision scores witnesses from.
  void act_on_order_cycle(const core::OrderCycle& cycle,
                          const std::vector<core::OrderEdge>& edges);
  void log_recovery(trace::RecoveryRecord record);

  const util::Clock* clock_;
  std::size_t configured_threads_;
  util::TimeNs waitfor_period_ = 0;
  core::ReportSink* waitfor_sink_ = nullptr;
  util::TimeNs lockorder_period_ = 0;
  core::ReportSink* lockorder_sink_ = nullptr;
  Options::Recovery recovery_;
  /// Pool-wide overhead governor (Options::budget; no-op when disabled).
  BudgetController budget_;

  mutable sync::BackendMutex mu_;
  sync::BackendCondVar work_cv_;   ///< Heap / stop changes.
  sync::BackendCondVar idle_cv_;   ///< Entry busy-count drops.
  std::unordered_map<MonitorId, std::unique_ptr<Entry>> entries_;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  std::vector<sync::BackendThread> workers_;
  MonitorId next_id_ = kFirstMonitorId;  ///< 0/1 are reserved checkpoints.
  bool stop_ = false;
  bool checkpoint_scheduled_ = false;  ///< WF checkpoint item on the heap.
  bool lockorder_scheduled_ = false;   ///< LO checkpoint item on the heap.

  /// Wait-for state.  Lock order: checkpoint_pass_mu_ before mu_ before
  /// graph_mu_, never the reverse.
  /// Serializes whole checkpoint passes: a periodic worker pass racing a
  /// synchronous run_waitfor_checkpoint() could otherwise erase the other
  /// pass's reported_cycles_ entry and double-report a persisting cycle.
  sync::BackendMutex checkpoint_pass_mu_;
  mutable sync::BackendMutex graph_mu_;
  core::WaitForGraph graph_;
  /// Cycles confirmed at the previous pass, keyed by canonical cycle key
  /// and remembering the participating monitors (suppresses duplicate
  /// reports while a deadlock persists; cleared when the cycle dissolves,
  /// and re-armed by remove() of any participant — same shape as the
  /// order-side set below, per the lifecycle contract).
  std::unordered_map<std::string, std::vector<MonitorId>> reported_cycles_;

  /// Lock-order prediction state.  Lock order: mu_ before lockorder_mu_,
  /// never the reverse (remove() erases a monitor's edges under mu_).
  mutable sync::BackendMutex lockorder_mu_;
  core::LockOrderGraph order_graph_;
  /// Order cycles already warned about, keyed by canonical cycle key and
  /// remembering the participating monitors: the order relation never
  /// dissolves on its own, so a warning fires once — until a participant
  /// unregisters, which erases its edges and re-arms cycles through it.
  std::unordered_map<std::string, std::vector<core::OrderMonitorId>>
      reported_order_cycles_;

  /// Recovery state.  recovery_mu_ only guards the log; actuations never
  /// run under mu_/graph_mu_/lockorder_mu_.
  /// Wait-for actuations are additionally serialized by
  /// checkpoint_pass_mu_; order-side actuations are not — they rely on
  /// the Gate's and the counters' own synchronization, so any new shared
  /// state touched from act_on_order_cycle needs its own guard.
  mutable sync::BackendMutex recovery_mu_;
  std::vector<trace::RecoveryRecord> recovery_log_;

  std::atomic<std::uint64_t> checks_executed_{0};
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> checks_coalesced_{0};
  std::atomic<std::uint64_t> total_quiesce_ns_{0};
  std::atomic<std::uint64_t> total_check_ns_{0};
  std::atomic<std::uint64_t> waitfor_checkpoints_{0};
  std::atomic<std::uint64_t> deadlocks_reported_{0};
  std::atomic<std::uint64_t> lockorder_checkpoints_{0};
  std::atomic<std::uint64_t> potential_deadlocks_reported_{0};
  std::atomic<std::uint64_t> recovery_actions_{0};
  std::atomic<std::uint64_t> victims_poisoned_{0};
  std::atomic<std::uint64_t> recovery_faults_delivered_{0};
  std::atomic<std::uint64_t> orders_imposed_{0};
  std::atomic<std::uint64_t> monitors_unpoisoned_{0};
  std::atomic<std::uint64_t> prediction_sheds_{0};
};

}  // namespace robmon::rt
