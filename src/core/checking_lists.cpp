#include "core/checking_lists.hpp"

#include <algorithm>

namespace robmon::core {

void CheckingLists::reset(const trace::SchedulingState& prev) {
  enter_zero.clear();
  for (const auto& entry : prev.entry_queue) {
    enter_zero.push_back({entry.pid, entry.proc, entry.enqueued_at});
  }
  for (auto& slot : wait_cond) {
    slot.entries.clear();
    slot.live = false;
  }
  for (const auto& queue : prev.cond_queues) {
    ListQueue& rebuilt = wait_list(queue.cond);
    for (const auto& entry : queue.entries) {
      rebuilt.push_back({entry.pid, entry.proc, entry.enqueued_at});
    }
  }
  running.clear();
  if (prev.has_running()) {
    running.push_back({prev.running, prev.running_proc, prev.running_since});
  }
  resource_no = prev.resources;
}

namespace {

/// The slot of `cond` in the sorted slot vector, or where it belongs.
std::vector<WaitCondList>::iterator slot_position(
    std::vector<WaitCondList>& slots, trace::SymbolId cond) {
  return std::lower_bound(slots.begin(), slots.end(), cond,
                          [](const WaitCondList& slot, trace::SymbolId c) {
                            return slot.cond < c;
                          });
}

}  // namespace

ListQueue& CheckingLists::wait_list(trace::SymbolId cond) {
  auto it = slot_position(wait_cond, cond);
  if (it == wait_cond.end() || it->cond != cond) {
    it = wait_cond.insert(it, WaitCondList{cond, false, {}});
  }
  it->live = true;
  return it->entries;
}

WaitCondList* CheckingLists::find_wait_slot(trace::SymbolId cond) {
  const auto it = slot_position(wait_cond, cond);
  return it != wait_cond.end() && it->cond == cond ? &*it : nullptr;
}

bool CheckingLists::pid_blocked(trace::Pid pid) const {
  const auto holds = [pid](const ListQueue& list) {
    return std::any_of(list.begin(), list.end(),
                       [pid](const ListEntry& e) { return e.pid == pid; });
  };
  if (holds(enter_zero)) return true;
  return std::any_of(
      wait_cond.begin(), wait_cond.end(),
      [&](const WaitCondList& slot) { return holds(slot.entries); });
}

bool CheckingLists::pid_running(trace::Pid pid) const {
  return std::any_of(running.begin(), running.end(),
                     [pid](const ListEntry& e) { return e.pid == pid; });
}

bool CheckingLists::remove_running(trace::Pid pid) {
  const auto it =
      std::find_if(running.begin(), running.end(),
                   [pid](const ListEntry& e) { return e.pid == pid; });
  if (it == running.end()) return false;
  running.erase(it);
  return true;
}

bool lists_match(const ListQueue& rebuilt,
                 const std::vector<trace::QueueEntry>& actual) {
  if (rebuilt.size() != actual.size()) return false;
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    if (rebuilt[i].pid != actual[i].pid) return false;
    if (rebuilt[i].proc != actual[i].proc) return false;
  }
  return true;
}

}  // namespace robmon::core
