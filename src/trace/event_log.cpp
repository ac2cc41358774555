#include "trace/event_log.hpp"

namespace robmon::trace {

namespace {

/// Owner-side increment of a relaxed counter: only the owner writes it, so
/// a load and a store replace the read-modify-write.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

}  // namespace

EventLog::EventLog() : EventLog(Options{}) {}

EventLog::EventLog(Options options)
    : capacity_(options.capacity), retain_history_(options.retain_history) {}

std::uint64_t EventLog::append(const EventRecord& event) {
  const std::uint64_t seq = next_seq_++;
  if (buffer_.size() >= capacity_) {
    bump(lost_, 1);
    return seq;
  }
  buffer_.push_back(event);
  buffer_.back().seq = seq;
  bump(appended_, 1);
  return seq;
}

void EventLog::drain(std::vector<EventRecord>& out) {
  out.clear();
  out.swap(buffer_);
  bump(drained_, out.size());
  if (retain_history_) archive_.insert(archive_.end(), out.begin(), out.end());
}

std::size_t EventLog::pending() const {
  // Two independent relaxed loads: a reader racing the owner may see the
  // drain's count before the appends it covers, hence the clamp.
  const std::uint64_t appended = appended_.load(std::memory_order_relaxed);
  const std::uint64_t drained = drained_.load(std::memory_order_relaxed);
  return appended >= drained ? static_cast<std::size_t>(appended - drained)
                             : 0;
}

std::uint64_t EventLog::total_appended() const {
  return appended_.load(std::memory_order_relaxed);
}

std::uint64_t EventLog::events_lost() const {
  return lost_.load(std::memory_order_relaxed);
}

std::vector<EventRecord> EventLog::history() const {
  if (!retain_history_) return {};
  std::vector<EventRecord> out;
  out.reserve(archive_.size() + buffer_.size());
  out.insert(out.end(), archive_.begin(), archive_.end());
  out.insert(out.end(), buffer_.begin(), buffer_.end());
  return out;
}

}  // namespace robmon::trace
