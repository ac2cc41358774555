#include "runtime/robust_monitor.hpp"

namespace robmon::rt {

RobustMonitor::RobustMonitor(core::MonitorSpec spec, core::ReportSink& sink)
    : RobustMonitor(std::move(spec), sink, Options{}) {}

RobustMonitor::RobustMonitor(core::MonitorSpec spec, core::ReportSink& sink,
                             Options options)
    : sink_(&sink),
      options_(options),
      monitor_(std::move(spec), *options.clock, *options.injection,
               options.instrumentation, options.semantics,
               options.retain_trace),
      detector_(monitor_.spec(), monitor_.symbols(), sink) {
  CheckerPool::MonitorOptions policy;
  policy.max_stretch = options_.cadence_max_stretch;
  if (options_.retain_trace) {
    policy.on_checkpoint = [this](const trace::SchedulingState& s) {
      std::lock_guard<std::mutex> lock(checkpoints_mu_);
      checkpoints_.push_back(s);
    };
  }
  pool_ = options_.checker_pool;
  if (pool_ == nullptr) {
    // One engine either way: a monitor without a shared pool gets a
    // one-thread pool of its own, whose worker spawns on start_checking().
    own_pool_ = std::make_unique<CheckerPool>(
        CheckerPool::Options{.threads = 1, .clock = options_.clock});
    pool_ = own_pool_.get();
  }
  pool_id_ = pool_->add(monitor_, detector_, std::move(policy));
  const std::string expression = monitor_.spec().effective_path_expression();
  if (!expression.empty()) order_spec_.emplace(expression);

  const trace::SchedulingState initial = monitor_.snapshot();
  detector_.initialize(initial);
  if (options_.retain_trace) {
    std::lock_guard<std::mutex> lock(checkpoints_mu_);
    checkpoints_.push_back(initial);
  }
}

RobustMonitor::~RobustMonitor() { pool_->remove(pool_id_); }

void RobustMonitor::advance_order_matcher(trace::Pid pid,
                                          const std::string& procedure) {
  if (!order_spec_) return;
  pathexpr::MatchResult result;
  {
    std::lock_guard<std::mutex> lock(matchers_mu_);
    auto [it, inserted] = matchers_.try_emplace(pid, order_spec_->matcher());
    result = it->second.advance(procedure);
    if (result == pathexpr::MatchResult::kViolation) it->second.reset();
  }
  if (result != pathexpr::MatchResult::kViolation) return;

  core::FaultReport report;
  report.rule = core::RuleId::kRealTimeOrder;
  report.pid = pid;
  report.proc = monitor_.symbols().find(procedure);
  report.detected_at = options_.clock->now_ns();
  if (procedure == spec().release_procedure) {
    report.suspected = core::FaultKind::kReleaseBeforeAcquire;
  } else if (procedure == spec().acquire_procedure) {
    report.suspected = core::FaultKind::kDoubleAcquireDeadlock;
  }
  report.message = "call to '" + procedure +
                   "' violates the declared order " +
                   order_spec_->expression();
  sink_->report(report);
}

Status RobustMonitor::enter(trace::Pid pid, const std::string& procedure) {
  // Real-time phase: check the declared partial order before admission
  // (Section 3.3: "real-time checking of calling orders").
  advance_order_matcher(pid, procedure);
  const Status status = monitor_.enter(pid, procedure);
  // A recovery eviction/rejection aborts the caller's protocol sequence
  // mid-call: the matcher advanced for a procedure that never completed,
  // and the caller is told to retry from scratch — so the matcher must
  // restart too, or the retry's Acquire reads as a declared-order
  // violation (a recovery-induced false positive).
  if (status == Status::kRecoveryFault) reset_order_matcher(pid);
  return status;
}

Status RobustMonitor::wait(trace::Pid pid, const std::string& cond) {
  const Status status = monitor_.wait(pid, cond);
  if (status == Status::kRecoveryFault) reset_order_matcher(pid);
  return status;
}

void RobustMonitor::reset_order_matcher(trace::Pid pid) {
  if (!order_spec_) return;
  std::lock_guard<std::mutex> lock(matchers_mu_);
  const auto it = matchers_.find(pid);
  if (it != matchers_.end()) it->second.reset();
}

void RobustMonitor::start_checking() { pool_->schedule(pool_id_); }

void RobustMonitor::stop_checking() { pool_->unschedule(pool_id_); }

core::Detector::CheckStats RobustMonitor::check_now() {
  return pool_->check_now(pool_id_);
}

trace::TraceFile RobustMonitor::export_trace() const {
  std::lock_guard<std::mutex> lock(checkpoints_mu_);
  return trace::make_trace_file(
      spec().name, std::string(core::to_string(spec().type)), spec().rmax,
      monitor_.symbols(), monitor_.history(), checkpoints_,
      monitor_.log().events_lost());
}

}  // namespace robmon::rt
