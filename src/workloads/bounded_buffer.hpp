// Bounded buffer over a communication-coordinator monitor (Section 2.1):
// Send/Receive procedures, senders delayed on condition "full", receivers on
// condition "empty".  The paper's four Level-II (monitor procedure) faults
// are injected here, since they are bugs in the procedures' use of
// Wait/Signal rather than in the monitor implementation:
//
//   II.a kSendDelayWrong       Send waits on "full" although not full.
//   II.b kReceiveDelayWrong    Receive waits on "empty" although not empty.
//   II.c kReceiveExceedsSend   Receive fabricates an item from an empty
//                              buffer instead of waiting.
//   II.d kSendExceedsCapacity  Send overfills instead of waiting.
//
// The item store is guarded by its own mutex so that injected
// mutual-exclusion violations produce *logical* anomalies (what the
// detector sees) without undefined behaviour in the harness.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "inject/injection.hpp"
#include "runtime/robust_monitor.hpp"

namespace robmon::wl {

class BoundedBuffer {
 public:
  /// `monitor` must be a coordinator-type RobustMonitor whose rmax equals
  /// `capacity`.  The monitor tracks the free-slot count as R#.
  /// `in_monitor_ns` is a dwell each procedure sleeps right after Enter,
  /// modelling the critical section's duration so that entries contend
  /// (without it a deterministic schedule rarely queues two entries).
  BoundedBuffer(rt::RobustMonitor& monitor, std::size_t capacity,
                inject::InjectionController& injection =
                    inject::NullInjection::instance(),
                util::TimeNs in_monitor_ns = 0);

  /// Monitor procedure "Send".
  rt::Status send(trace::Pid pid, std::int64_t item);

  /// Monitor procedure "Receive"; the received item goes to *out.
  rt::Status receive(trace::Pid pid, std::int64_t* out);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::int64_t free_slots() const;

 private:
  bool is_full() const;
  bool is_empty() const;
  /// Enter `procedure`, then sleep the configured dwell.
  rt::Status enter(trace::Pid pid, const char* procedure);

  rt::RobustMonitor* monitor_;
  std::size_t capacity_;
  inject::InjectionController* injection_;
  util::TimeNs in_monitor_ns_;

  mutable std::mutex items_mu_;
  std::deque<std::int64_t> items_;
};

}  // namespace robmon::wl
