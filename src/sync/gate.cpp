#include "sync/gate.hpp"

#include <algorithm>

namespace robmon::sync {

void Gate::impose(std::vector<std::string> order,
                  std::vector<trace::Pid> fenced) {
  std::lock_guard<BackendMutex> lock(mu_);
  engaged_ = true;
  ++impositions_;
  // Merge: independent cycles impose disjoint orders, and clobbering an
  // earlier imposition would silently un-fence its call sites.  Monitors
  // already ranked keep their rank; new ones append behind.
  for (std::string& name : order) {
    if (rank_.find(name) != rank_.end()) continue;
    rank_.emplace(name, order_.size());
    order_.push_back(std::move(name));
  }
  fenced_.insert(fenced.begin(), fenced.end());
}

void Gate::clear() {
  {
    std::lock_guard<BackendMutex> lock(mu_);
    engaged_ = false;
    fenced_.clear();
    order_.clear();
    rank_.clear();
  }
  cv_.notify_all();
}

bool Gate::engaged() const {
  std::lock_guard<BackendMutex> lock(mu_);
  return engaged_;
}

bool Gate::is_fenced(trace::Pid pid) const {
  std::lock_guard<BackendMutex> lock(mu_);
  return engaged_ && fenced_.count(pid) != 0;
}

std::vector<std::string> Gate::imposed_order() const {
  std::lock_guard<BackendMutex> lock(mu_);
  return order_;
}

void Gate::apply_order(std::vector<std::string>& monitors) const {
  std::lock_guard<BackendMutex> lock(mu_);
  if (!engaged_ || rank_.empty()) return;
  std::stable_sort(monitors.begin(), monitors.end(),
                   [this](const std::string& a, const std::string& b) {
                     const auto ra = rank_.find(a);
                     const auto rb = rank_.find(b);
                     const std::size_t ka =
                         ra == rank_.end() ? rank_.size() : ra->second;
                     const std::size_t kb =
                         rb == rank_.end() ? rank_.size() : rb->second;
                     return ka < kb;
                   });
}

std::uint64_t Gate::impositions() const {
  std::lock_guard<BackendMutex> lock(mu_);
  return impositions_;
}

std::uint64_t Gate::fenced_crossings() const {
  std::lock_guard<BackendMutex> lock(mu_);
  return fenced_crossings_;
}

Gate::Side Gate::enter(trace::Pid pid) {
  std::unique_lock<BackendMutex> lock(mu_);
  if (engaged_ && fenced_.count(pid) != 0) {
    // Fenced crossing: exclusive against everything, writer priority so a
    // steady stream of shared crossings cannot starve it.
    ++exclusive_waiting_;
    cv_.wait(lock, [this] { return !exclusive_held_ && shared_ == 0; });
    --exclusive_waiting_;
    exclusive_held_ = true;
    ++fenced_crossings_;
    return Side::kExclusive;
  }
  // Unfenced (or disengaged) crossing: shared side.  Registering even while
  // disengaged means an imposition arriving mid-crossing still waits for
  // every in-flight crossing to drain before a fenced one runs alone.
  cv_.wait(lock,
           [this] { return !exclusive_held_ && exclusive_waiting_ == 0; });
  ++shared_;
  return Side::kShared;
}

void Gate::exit(Side side) {
  {
    std::lock_guard<BackendMutex> lock(mu_);
    if (side == Side::kExclusive) {
      exclusive_held_ = false;
    } else {
      --shared_;
    }
  }
  cv_.notify_all();
}

}  // namespace robmon::sync
