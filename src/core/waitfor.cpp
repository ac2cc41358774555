#include "core/waitfor.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/scc.hpp"

namespace robmon::core {

WaitContribution make_wait_contribution(WaitMonitorId monitor,
                                        std::string name,
                                        const trace::SchedulingState& state,
                                        const trace::SymbolTable& symbols) {
  WaitContribution contribution;
  contribution.monitor = monitor;
  contribution.name = std::move(name);
  contribution.captured_at = state.captured_at;
  for (const auto& entry : state.entry_queue) {
    contribution.waits.push_back(
        {entry.pid, std::string(), entry.enqueued_at, entry.ticket});
  }
  for (const auto& queue : state.cond_queues) {
    const std::string cond = symbols.name(queue.cond);
    for (const auto& entry : queue.entries) {
      contribution.waits.push_back(
          {entry.pid, cond, entry.enqueued_at, entry.ticket});
    }
  }
  if (state.has_running()) {
    contribution.holds.push_back(
        {state.running, true, state.running_since, state.running_ticket});
  }
  for (const auto& hold : state.holders) {
    contribution.holds.push_back(
        {hold.pid, false, hold.held_since, hold.ticket});
  }
  return contribution;
}

std::string DeadlockCycle::key() const {
  std::ostringstream out;
  for (const auto& link : links) {
    out << link.pid << ">" << link.monitor << "[" << link.cond << "]>"
        << link.holder << "#" << link.blocked_ticket << "/"
        << link.holder_ticket << ";";
  }
  return out.str();
}

std::string describe(const DeadlockCycle& cycle) {
  std::ostringstream out;
  out << "global deadlock cycle (" << cycle.links.size() << " links): ";
  for (std::size_t i = 0; i < cycle.links.size(); ++i) {
    const auto& link = cycle.links[i];
    if (i) out << " -> ";
    out << "p" << link.pid << " waits on " << link.monitor_name;
    if (link.cond.empty()) {
      out << "[entry]";
    } else {
      out << "[" << link.cond << "]";
    }
    out << " held by p" << link.holder;
  }
  return out.str();
}

FaultReport make_cycle_report(const DeadlockCycle& cycle,
                              util::TimeNs detected_at) {
  FaultReport fault;
  fault.rule = RuleId::kWfCycleDetected;
  fault.suspected = FaultKind::kGlobalDeadlock;
  fault.pid = cycle.links.front().pid;
  fault.detected_at = detected_at;
  fault.message = describe(cycle);
  return fault;
}

bool link_holds_in(const DeadlockCycle::Link& link,
                   const trace::SchedulingState& state,
                   const trace::SymbolTable& symbols) {
  // Episode identity: the monitor's monotonic ticket when the link carries
  // one (clock-independent), the enqueue/hold timestamp otherwise
  // (pre-ticket traces).
  const auto same_wait_episode = [&](const trace::QueueEntry& entry) {
    if (entry.pid != link.pid) return false;
    if (link.blocked_ticket != 0) return entry.ticket == link.blocked_ticket;
    return entry.enqueued_at == link.blocked_since;
  };

  // Blocked side: same thread parked on the same queue in the same
  // blocking episode.
  bool still_blocked = false;
  if (link.cond.empty()) {
    for (const auto& entry : state.entry_queue) {
      if (same_wait_episode(entry)) {
        still_blocked = true;
        break;
      }
    }
  } else {
    const trace::SymbolId cond = symbols.find(link.cond);
    if (cond == trace::kNoSymbol) return false;
    for (const auto& entry : state.cond_entries(cond)) {
      if (same_wait_episode(entry)) {
        still_blocked = true;
        break;
      }
    }
  }
  if (!still_blocked) return false;

  // Holder side: an entry waiter is behind the mutex holder; a condition
  // waiter is behind the monitor's *sole* resource holder.  If another
  // holder appeared since the contribution, the wait has become an OR
  // (any holder releasing unblocks it) and the edge no longer stands.
  if (link.cond.empty()) {
    if (state.running != link.holder) return false;
    if (link.holder_ticket != 0) {
      return state.running_ticket == link.holder_ticket;
    }
    return state.running_since == link.held_since;
  }
  if (state.holders.size() != 1) return false;
  const trace::HoldEntry* hold = state.hold_of(link.holder);
  if (hold == nullptr) return false;
  if (link.holder_ticket != 0) return hold->ticket == link.holder_ticket;
  return hold->held_since == link.held_since;
}

void WaitForGraph::update(WaitContribution contribution) {
  contributions_[contribution.monitor] = std::move(contribution);
}

void WaitForGraph::erase(WaitMonitorId monitor) {
  contributions_.erase(monitor);
}

const WaitContribution* WaitForGraph::contribution(
    WaitMonitorId monitor) const {
  const auto it = contributions_.find(monitor);
  return it == contributions_.end() ? nullptr : &it->second;
}

namespace {

/// Thread-level view: each edge is a full candidate link (the monitor the
/// tail waits on and the head's hold on it).
struct ThreadGraph {
  // std::map keeps pid iteration deterministic across runs.
  std::map<trace::Pid, std::vector<DeadlockCycle::Link>> adjacency;
};

ThreadGraph build_thread_graph(
    const std::unordered_map<WaitMonitorId, WaitContribution>& contributions) {
  ThreadGraph graph;
  // Iterate monitors in id order so edge order (and thus the representative
  // cycle picked per SCC) is deterministic.
  std::vector<const WaitContribution*> ordered;
  ordered.reserve(contributions.size());
  for (const auto& [id, contribution] : contributions) {
    ordered.push_back(&contribution);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const WaitContribution* a, const WaitContribution* b) {
              return a->monitor < b->monitor;
            });
  for (const WaitContribution* contribution : ordered) {
    // A condition waiter is only *deterministically* blocked behind a
    // holder when that holder is the monitor's sole resource holder (the
    // single-unit model: forks, one-permit allocators).  With several
    // distinct holders the wait is an OR — any one of them releasing
    // unblocks the waiter — which a cycle edge cannot soundly encode, so
    // no resource edges are emitted (conservative: can only miss, never
    // fabricate).
    std::size_t resource_holders = 0;
    for (const auto& hold : contribution->holds) {
      if (!hold.mutex) ++resource_holders;
    }
    for (const auto& wait : contribution->waits) {
      for (const auto& hold : contribution->holds) {
        // An entry waiter is blocked behind the mutex holder; a condition
        // waiter is blocked behind the sole resource holder.
        if (wait.cond.empty() != hold.mutex) continue;
        if (!hold.mutex && resource_holders != 1) continue;
        graph.adjacency[wait.pid].push_back(
            {wait.pid, contribution->monitor, contribution->name, wait.cond,
             wait.since, hold.pid, hold.since, wait.ticket, hold.ticket});
      }
    }
  }
  for (auto& [pid, links] : graph.adjacency) {
    std::sort(links.begin(), links.end(),
              [](const DeadlockCycle::Link& a, const DeadlockCycle::Link& b) {
                return a.holder != b.holder ? a.holder < b.holder
                                            : a.monitor < b.monitor;
              });
  }
  return graph;
}

/// Rotate so the smallest (pid, monitor) link comes first.
void canonicalize(DeadlockCycle& cycle) {
  if (cycle.links.empty()) return;
  std::size_t best = 0;
  for (std::size_t i = 1; i < cycle.links.size(); ++i) {
    const auto& a = cycle.links[i];
    const auto& b = cycle.links[best];
    if (a.pid < b.pid || (a.pid == b.pid && a.monitor < b.monitor)) best = i;
  }
  std::rotate(cycle.links.begin(),
              cycle.links.begin() + static_cast<std::ptrdiff_t>(best),
              cycle.links.end());
}

}  // namespace

std::vector<DeadlockCycle> WaitForGraph::find_cycles() const {
  const ThreadGraph graph = build_thread_graph(contributions_);

  std::vector<trace::Pid> roots;
  roots.reserve(graph.adjacency.size());
  for (const auto& [pid, links] : graph.adjacency) roots.push_back(pid);
  const auto components = strongly_connected_components(
      roots, [&graph](trace::Pid v) {
        std::vector<trace::Pid> out;
        const auto it = graph.adjacency.find(v);
        if (it != graph.adjacency.end()) {
          out.reserve(it->second.size());
          for (const auto& link : it->second) out.push_back(link.holder);
        }
        return out;
      });

  std::vector<DeadlockCycle> cycles;
  for (const auto& component : components) {
    std::map<trace::Pid, bool> in_component;
    for (const trace::Pid pid : component) in_component[pid] = true;

    if (component.size() == 1) {
      // Self-loop: a thread waiting on a monitor it itself holds (the
      // cross-monitor manifestation of III.c double-acquire).
      const trace::Pid pid = component.front();
      const auto it = graph.adjacency.find(pid);
      if (it == graph.adjacency.end()) continue;
      for (const auto& link : it->second) {
        if (link.holder == pid) {
          cycles.push_back(DeadlockCycle{{link}});
          break;
        }
      }
      continue;
    }

    // Walk within the SCC until a node repeats; the suffix from its first
    // occurrence is one representative elementary cycle of this component.
    const trace::Pid start = *std::min_element(component.begin(),
                                               component.end());
    std::vector<DeadlockCycle::Link> path;
    std::map<trace::Pid, std::size_t> position;
    trace::Pid current = start;
    DeadlockCycle cycle;
    while (true) {
      const auto pos = position.find(current);
      if (pos != position.end()) {
        cycle.links.assign(path.begin() +
                               static_cast<std::ptrdiff_t>(pos->second),
                           path.end());
        break;
      }
      position[current] = path.size();
      const auto it = graph.adjacency.find(current);
      const DeadlockCycle::Link* next = nullptr;
      if (it != graph.adjacency.end()) {
        for (const auto& link : it->second) {
          if (in_component.count(link.holder)) {
            next = &link;
            break;
          }
        }
      }
      if (next == nullptr) break;  // cannot happen in a true SCC; be safe
      path.push_back(*next);
      current = next->holder;
    }
    if (cycle.links.empty()) continue;
    canonicalize(cycle);
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

}  // namespace robmon::core
