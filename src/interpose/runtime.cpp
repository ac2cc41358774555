#include "interpose/runtime.hpp"

#include <pthread.h>

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <utility>

#include "trace/codec.hpp"
#include "util/flags.hpp"

namespace robmon::interpose {

namespace {

std::atomic<Runtime*> g_runtime{nullptr};
std::mutex g_init_mu;
std::atomic<Runtime*> g_graveyard{nullptr};
std::atomic<bool> g_handlers_registered{false};

void atexit_flush() {
  if (Runtime* runtime = Runtime::instance_if_built()) {
    runtime->flush(stderr);
  }
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Fibonacci hash of the object address (low bits of a pthread object
/// address are alignment zeros; the multiply spreads them).
std::size_t hash_key(std::uintptr_t key) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 17);
}

}  // namespace

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig config;
  util::EnvFlags env;
  config.shards = static_cast<std::size_t>(
      env.i64("SHARDS", static_cast<std::int64_t>(config.shards), 1, 64));
  config.budget_fraction = env.f64("BUDGET", config.budget_fraction, 0.0, 0.5);
  config.lockorder = env.boolean("LOCKORDER", config.lockorder);
  config.recovery = env.boolean("RECOVERY", config.recovery);
  config.trace_path = env.str("TRACE", config.trace_path);
  config.check_period =
      env.i64("CHECK_PERIOD_MS", 100, 1, 60000) * util::kMillisecond;
  config.waitfor_period =
      env.i64("WAITFOR_MS", 250, 1, 60000) * util::kMillisecond;
  config.lockorder_period =
      env.i64("LOCKORDER_MS", 500, 1, 60000) * util::kMillisecond;
  config.max_monitors = static_cast<std::size_t>(
      env.i64("MAX_MONITORS", static_cast<std::int64_t>(config.max_monitors),
              1, 1 << 20));
  config.verbose = env.boolean("LOG", config.verbose);
  if (!env.ok()) config.config_error = env.error_text();
  return config;
}

void StderrSink::report(const core::FaultReport& fault) {
  total_.fetch_add(1, std::memory_order_relaxed);
  const char* label = "fault";
  if (fault.rule == core::RuleId::kWfCycleDetected) {
    deadlocks_.fetch_add(1, std::memory_order_relaxed);
    label = "deadlock detected";
  } else if (fault.rule == core::RuleId::kLockOrderCycle) {
    order_warnings_.fetch_add(1, std::memory_order_relaxed);
    label = "lock-order warning";
  } else if (fault.rule == core::RuleId::kRecoveryAction) {
    label = "recovery action";
  }
  std::fprintf(stderr, "robmon: %s: %s\n", label, fault.message.c_str());
}

Runtime::Runtime(RuntimeConfig config) : config_(std::move(config)) {
  if (!config_.config_error.empty()) {
    // The shim never aborts the host: report once, run with defaults.
    std::fprintf(stderr, "%srobmon: continuing with defaults\n",
                 config_.config_error.c_str());
  }
  rt::CheckerPool::Options options;
  options.threads = config_.shards;
  options.waitfor_checkpoint_period = config_.waitfor_period;
  options.waitfor_sink = &sink_;
  if (config_.lockorder) {
    options.lockorder_checkpoint_period = config_.lockorder_period;
    options.lockorder_sink = &sink_;
  }
  options.budget.fraction = config_.budget_fraction;
  if (config_.recovery) {
    options.recovery.policy = &recovery_policy_;
    options.recovery.sink = &sink_;
  }
  pool_ = std::make_unique<rt::CheckerPool>(options);

  const std::size_t capacity = round_up_pow2(config_.max_monitors * 2);
  table_mask_ = capacity - 1;
  table_ = std::make_unique<Slot[]>(capacity);
}

Runtime::~Runtime() = default;

Runtime& Runtime::instance() {
  Runtime* runtime = g_runtime.load(std::memory_order_acquire);
  if (runtime != nullptr) return *runtime;
  std::lock_guard<std::mutex> lock(g_init_mu);
  runtime = g_runtime.load(std::memory_order_acquire);
  if (runtime == nullptr) {
    runtime = new Runtime(RuntimeConfig::from_env());
    // atexit/atfork registrations are inherited across fork, so they are
    // registered once per process tree, not once per runtime rebuild.
    if (!g_handlers_registered.exchange(true)) {
      std::atexit(atexit_flush);
      ::pthread_atfork(nullptr, nullptr, &Runtime::reset_after_fork);
    }
    g_runtime.store(runtime, std::memory_order_release);
  }
  return *runtime;
}

Runtime* Runtime::instance_if_built() {
  return g_runtime.load(std::memory_order_acquire);
}

void Runtime::reset_after_fork() {
  detail::t_tid = 0;
  detail::t_holds = {};
  Runtime* old = g_runtime.exchange(nullptr, std::memory_order_acq_rel);
  if (old == nullptr) return;
  // Intrusive push — no allocation in the (fork-constrained) child — and
  // the chain stays reachable from the process-lifetime graveyard head,
  // so the retired runtime is "still reachable", never leaked.
  old->graveyard_next_ = g_graveyard.load(std::memory_order_relaxed);
  g_graveyard.store(old, std::memory_order_release);
}

SyntheticMonitor* Runtime::create_monitor(SyntheticMonitor::Kind kind) {
  static std::atomic<std::uint64_t> mutex_count{0};
  static std::atomic<std::uint64_t> cond_count{0};
  const bool is_mutex = kind == SyntheticMonitor::Kind::kMutex;
  auto& counter = is_mutex ? mutex_count : cond_count;
  const std::uint64_t index =
      counter.fetch_add(1, std::memory_order_relaxed);
  std::string name =
      (is_mutex ? "mutex-" : "cond-") + std::to_string(index);

  SyntheticMonitor::Config monitor_config;
  monitor_config.check_period = config_.check_period;
  monitor_config.retain_history = !config_.trace_path.empty();
  auto* monitor =
      new SyntheticMonitor(std::move(name), kind,
                           util::SteadyClock::instance(), monitor_config);
  const rt::CheckerPool::MonitorId id = pool_->add(*monitor);
  pool_->schedule(id);
  {
    std::lock_guard<std::mutex> lock(monitors_mu_);
    monitors_.push_back(monitor);
  }
  registered_.fetch_add(1, std::memory_order_relaxed);
  if (config_.verbose) {
    std::fprintf(stderr, "robmon: observing %s\n",
                 monitor->spec().name.c_str());
  }
  return monitor;
}

SyntheticMonitor* Runtime::monitor_for(const void* addr,
                                       SyntheticMonitor::Kind kind) {
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  if (key == 0) return nullptr;
  std::size_t idx = hash_key(key) & table_mask_;
  for (std::size_t probe = 0; probe <= table_mask_; ++probe) {
    Slot& slot = table_[idx];
    std::uintptr_t current = slot.key.load(std::memory_order_acquire);
    if (current == 0) {
      if (registered_.load(std::memory_order_relaxed) >=
          config_.max_monitors) {
        break;  // Registry at capacity: pass through.
      }
      if (slot.key.compare_exchange_strong(current, key,
                                           std::memory_order_acq_rel)) {
        SyntheticMonitor* monitor = create_monitor(kind);
        slot.monitor.store(monitor, std::memory_order_release);
        return monitor;
      }
      // Lost the claim; `current` reloaded — fall through to the match
      // check (the winner may have claimed our key).
    }
    if (current == key) {
      SyntheticMonitor* monitor = slot.monitor.load(std::memory_order_acquire);
      while (monitor == nullptr) {
        // Claimed but not yet published: the claimant is constructing.
        monitor = slot.monitor.load(std::memory_order_acquire);
      }
      return monitor;
    }
    idx = (idx + 1) & table_mask_;
  }
  passthroughs_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

SyntheticMonitor* Runtime::find_monitor(const void* addr) {
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  if (key == 0) return nullptr;
  std::size_t idx = hash_key(key) & table_mask_;
  for (std::size_t probe = 0; probe <= table_mask_; ++probe) {
    const Slot& slot = table_[idx];
    const std::uintptr_t current = slot.key.load(std::memory_order_acquire);
    if (current == 0) return nullptr;
    if (current == key) return slot.monitor.load(std::memory_order_acquire);
    idx = (idx + 1) & table_mask_;
  }
  return nullptr;
}

void Runtime::flush(std::FILE* out) {
  std::vector<SyntheticMonitor*> monitors;
  {
    std::lock_guard<std::mutex> lock(monitors_mu_);
    monitors = monitors_;
  }
  std::uint64_t lost = 0;
  for (SyntheticMonitor* monitor : monitors) {
    lost += monitor->events_lost();
  }
  std::fprintf(out,
               "robmon: summary monitors=%zu faults=%llu deadlocks=%llu "
               "order_warnings=%llu passthrough=%llu events_lost=%llu\n",
               monitors.size(),
               static_cast<unsigned long long>(sink_.total()),
               static_cast<unsigned long long>(sink_.deadlocks()),
               static_cast<unsigned long long>(sink_.order_warnings()),
               static_cast<unsigned long long>(passthroughs()),
               static_cast<unsigned long long>(lost));
  if (config_.trace_path.empty()) return;
  for (SyntheticMonitor* monitor : monitors) {
    const trace::TraceFile file = trace::make_trace_file(
        monitor->spec().name, std::string(to_string(monitor->spec().type)),
        monitor->spec().rmax, monitor->symbols(), monitor->history(),
        /*checkpoints=*/{}, monitor->events_lost());
    const std::string path =
        config_.trace_path + monitor->spec().name + ".trace";
    std::ofstream stream(path);
    if (!stream) {
      std::fprintf(stderr, "robmon: cannot write trace %s\n", path.c_str());
      continue;
    }
    trace::write_trace(stream, file);
  }
}

}  // namespace robmon::interpose
