#include "workloads/bounded_buffer.hpp"

#include "sync/backend.hpp"

namespace robmon::wl {

using core::FaultKind;

BoundedBuffer::BoundedBuffer(rt::RobustMonitor& monitor, std::size_t capacity,
                             inject::InjectionController& injection,
                             util::TimeNs in_monitor_ns)
    : monitor_(&monitor),
      capacity_(capacity),
      injection_(&injection),
      in_monitor_ns_(in_monitor_ns) {
  // R# (free slots) is owned by the monitor and adjusted atomically with
  // each Send/Receive completion event; a gauge sampled at snapshot time
  // would race with procedure bodies under real threads.
  monitor_->track_resources(static_cast<std::int64_t>(capacity));
}

std::size_t BoundedBuffer::size() const {
  std::lock_guard<std::mutex> lock(items_mu_);
  return items_.size();
}

std::int64_t BoundedBuffer::free_slots() const {
  return static_cast<std::int64_t>(capacity_) -
         static_cast<std::int64_t>(size());
}

bool BoundedBuffer::is_full() const { return size() >= capacity_; }
bool BoundedBuffer::is_empty() const { return size() == 0; }

rt::Status BoundedBuffer::enter(trace::Pid pid, const char* procedure) {
  const rt::Status status = monitor_->enter(pid, procedure);
  if (status == rt::Status::kOk && in_monitor_ns_ > 0) {
    sync::backend_sleep_for(in_monitor_ns_);
  }
  return status;
}

rt::Status BoundedBuffer::send(trace::Pid pid, std::int64_t item) {
  if (const auto status = enter(pid, "Send"); status != rt::Status::kOk) {
    return status;
  }

  // II.a: delayed although the buffer is not full.  Arming is conditioned
  // on the state where the fault has an observable effect.
  const bool force_delay =
      !is_full() && injection_->fire(FaultKind::kSendDelayWrong, pid);
  // II.d: not delayed although the buffer is full (overfill).
  const bool skip_delay =
      is_full() && injection_->fire(FaultKind::kSendExceedsCapacity, pid);

  if (force_delay || (is_full() && !skip_delay)) {
    if (const auto status = monitor_->wait(pid, "full");
        status != rt::Status::kOk) {
      return status;
    }
  }

  {
    std::lock_guard<std::mutex> lock(items_mu_);
    items_.push_back(item);
  }
  monitor_->signal_exit(pid, "empty", -1);  // one fewer free slot
  return rt::Status::kOk;
}

rt::Status BoundedBuffer::receive(trace::Pid pid, std::int64_t* out) {
  if (const auto status = enter(pid, "Receive"); status != rt::Status::kOk) {
    return status;
  }

  // II.b: delayed although the buffer is not empty.
  const bool force_delay =
      !is_empty() && injection_->fire(FaultKind::kReceiveDelayWrong, pid);
  // II.c: fabricate an item from an empty buffer instead of waiting.
  const bool fabricate =
      is_empty() && injection_->fire(FaultKind::kReceiveExceedsSend, pid);

  if (force_delay || (is_empty() && !fabricate)) {
    if (const auto status = monitor_->wait(pid, "empty");
        status != rt::Status::kOk) {
      return status;
    }
  }

  {
    std::lock_guard<std::mutex> lock(items_mu_);
    if (items_.empty()) {
      *out = -1;  // fabricated value (fault II.c in effect)
    } else {
      *out = items_.front();
      items_.pop_front();
    }
  }
  monitor_->signal_exit(pid, "full", +1);  // one more free slot
  return rt::Status::kOk;
}

}  // namespace robmon::wl
