#include "core/lockorder.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "core/scc.hpp"

namespace robmon::core {

std::string OrderCycle::key() const {
  std::ostringstream out;
  for (const auto& step : steps) out << step.monitor << ">";
  return out.str();
}

std::vector<OrderMonitorId> OrderCycle::monitors() const {
  std::vector<OrderMonitorId> ids;
  ids.reserve(steps.size());
  for (const auto& step : steps) ids.push_back(step.monitor);
  return ids;
}

std::string describe(const OrderCycle& cycle) {
  std::ostringstream out;
  out << "potential deadlock (lock-order cycle, " << cycle.steps.size()
      << " monitors): ";
  for (std::size_t i = 0; i < cycle.steps.size(); ++i) {
    const auto& step = cycle.steps[i];
    const auto& next = cycle.steps[(i + 1) % cycle.steps.size()];
    if (i) out << "; ";
    out << step.name << " -> " << next.name << " [p" << step.witness.pid
        << " held " << step.name << " (t#" << step.witness.from_ticket
        << ") then " << (step.witness.to_wait ? "requested" : "took") << " "
        << next.name << " (t#" << step.witness.to_ticket << ")]";
  }
  return out.str();
}

FaultReport make_order_report(const OrderCycle& cycle,
                              util::TimeNs detected_at) {
  FaultReport fault;
  fault.rule = RuleId::kLockOrderCycle;
  fault.suspected = FaultKind::kPotentialDeadlock;
  fault.pid = cycle.steps.front().witness.pid;
  fault.detected_at = detected_at;
  fault.message = describe(cycle);
  return fault;
}

void LockOrderGraph::observe(OrderMonitorId monitor, const std::string& name,
                             const trace::SchedulingState& state) {
  Observation fresh;
  fresh.name = name;
  for (const auto& hold : state.holders) {
    fresh.accesses.push_back(
        {hold.pid, hold.ticket, false, hold.held_since, state.captured_at});
  }
  // A queued thread that already holds a unit here is most plausibly
  // entering to *release* it (or re-acquiring, which the per-monitor ST-8a
  // rule owns); counting that as an acquisition would flag deadlock-free
  // release orders, so such waits are excluded.  Mutex occupancy (Running)
  // is excluded for the same reason.
  const auto holds_here = [&state](trace::Pid pid) {
    return state.hold_of(pid) != nullptr;
  };
  for (const auto& entry : state.entry_queue) {
    if (holds_here(entry.pid)) continue;
    fresh.accesses.push_back(
        {entry.pid, entry.ticket, true, entry.enqueued_at,
         state.captured_at});
  }
  for (const auto& queue : state.cond_queues) {
    for (const auto& entry : queue.entries) {
      if (holds_here(entry.pid)) continue;
      fresh.accesses.push_back(
          {entry.pid, entry.ticket, true, entry.enqueued_at,
           state.captured_at});
    }
  }

  // Idle snapshots (the common case on the per-check hot path) still
  // replace the stored access set — a stale hold must clear — but have
  // nothing to join, so the O(monitors) scan is skipped.
  if (fresh.accesses.empty()) {
    accesses_[monitor] = std::move(fresh);
    return;
  }

  for (const auto& [other_id, other] : accesses_) {
    if (other_id == monitor) continue;
    for (const Access& mine : fresh.accesses) {
      for (const Access& theirs : other.accesses) {
        if (mine.pid != theirs.pid) continue;
        // Two parked threads cannot witness an order (a thread is parked
        // on at most one queue; a same-pid pair of waits is aliasing or
        // staleness — conservatively skipped).
        if (mine.wait && theirs.wait) continue;
        // Certified-overlap join: each access proves continuous presence
        // over [since, last_seen]; only provably simultaneous pairs may
        // become edges (a stale hold released before the other side began
        // fails this test instead of fabricating an order).
        if (mine.since > theirs.last_seen || theirs.since > mine.last_seen) {
          continue;
        }
        if (mine.wait || theirs.wait) {
          // Hold x wait: the parked side is the acquisition — a parked
          // thread cannot have taken the hold afterwards.
          const Access& held = mine.wait ? theirs : mine;
          const Access& parked = mine.wait ? mine : theirs;
          const OrderMonitorId held_at = mine.wait ? other_id : monitor;
          const OrderMonitorId parked_at = mine.wait ? monitor : other_id;
          const std::string& held_name =
              mine.wait ? other.name : fresh.name;
          const std::string& parked_name =
              mine.wait ? fresh.name : other.name;
          add_witness(held_at, parked_at, held_name, parked_name,
                      {held.pid, held.ticket, parked.ticket, true});
        } else {
          // Hold x hold: the earlier acquisition start came first; equal
          // starts (frozen clock) are unordered and skipped.
          if (mine.since == theirs.since) continue;
          const bool mine_first = mine.since < theirs.since;
          const Access& first = mine_first ? mine : theirs;
          const Access& second = mine_first ? theirs : mine;
          add_witness(mine_first ? monitor : other_id,
                      mine_first ? other_id : monitor,
                      mine_first ? fresh.name : other.name,
                      mine_first ? other.name : fresh.name,
                      {first.pid, first.ticket, second.ticket, false});
        }
      }
    }
  }
  accesses_[monitor] = std::move(fresh);
}

void LockOrderGraph::add_witness(OrderMonitorId from, OrderMonitorId to,
                                 const std::string& from_name,
                                 const std::string& to_name,
                                 const OrderWitness& witness) {
  auto& per_target = edges_[from];
  auto it = per_target.find(to);
  if (it == per_target.end()) {
    OrderEdge edge;
    edge.from = from;
    edge.to = to;
    edge.from_name = from_name;
    edge.to_name = to_name;
    it = per_target.emplace(to, std::move(edge)).first;
    ++edge_total_;
  }
  OrderEdge& edge = it->second;
  for (const OrderWitness& existing : edge.witnesses) {
    if (existing.pid == witness.pid &&
        existing.from_ticket == witness.from_ticket &&
        existing.to_ticket == witness.to_ticket &&
        existing.to_wait == witness.to_wait) {
      return;  // same episode pair re-observed
    }
  }
  ++edge.witness_total;
  if (edge.witnesses.size() < kMaxWitnessesPerEdge) {
    edge.witnesses.push_back(witness);
  }
}

void LockOrderGraph::erase(OrderMonitorId monitor) {
  accesses_.erase(monitor);
  const auto out_it = edges_.find(monitor);
  if (out_it != edges_.end()) {
    edge_total_ -= out_it->second.size();
    edges_.erase(out_it);
  }
  for (auto it = edges_.begin(); it != edges_.end();) {
    edge_total_ -= it->second.erase(monitor);
    it = it->second.empty() ? edges_.erase(it) : std::next(it);
  }
}

std::uint64_t LockOrderGraph::witness_total() const {
  std::uint64_t total = 0;
  for (const auto& [from, per_target] : edges_) {
    for (const auto& [to, edge] : per_target) total += edge.witness_total;
  }
  return total;
}

std::vector<OrderEdge> LockOrderGraph::edges() const {
  std::vector<OrderEdge> flat;
  flat.reserve(edge_total_);
  for (const auto& [from, per_target] : edges_) {
    for (const auto& [to, edge] : per_target) flat.push_back(edge);
  }
  std::sort(flat.begin(), flat.end(),
            [](const OrderEdge& a, const OrderEdge& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  return flat;
}

void LockOrderGraph::restore(std::vector<OrderEdge> edges) {
  accesses_.clear();
  edges_.clear();
  edge_total_ = 0;
  for (OrderEdge& edge : edges) {
    const OrderMonitorId from = edge.from;
    const OrderMonitorId to = edge.to;
    if (edges_[from].emplace(to, std::move(edge)).second) ++edge_total_;
  }
}

namespace {

/// Deterministic adjacency: both node and target order are sorted.
using OrderAdjacency =
    std::map<OrderMonitorId, std::map<OrderMonitorId, const OrderEdge*>>;

/// DFS-step budget for the per-SCC simple-cycle enumeration: far above any
/// realistic monitor graph, a backstop against adversarial dense SCCs
/// (where the cycle count is exponential).  Exhausting it can only *miss*
/// warnings, never fabricate them.
constexpr std::size_t kCycleSearchBudget = 4096;

/// Goodlock plausibility: assign one witness per edge such that the
/// witnessing threads are pairwise distinct (a thread cannot deadlock with
/// itself across episodes).  Small backtracking search; edges keep at most
/// kMaxWitnessesPerEdge witnesses and real cycles are short.
bool assign_witnesses(const std::vector<const OrderEdge*>& edges,
                      std::size_t at, std::set<trace::Pid>& used,
                      std::vector<OrderWitness>& chosen) {
  if (at == edges.size()) return true;
  for (const OrderWitness& witness : edges[at]->witnesses) {
    if (used.count(witness.pid)) continue;
    used.insert(witness.pid);
    chosen.push_back(witness);
    if (assign_witnesses(edges, at + 1, used, chosen)) return true;
    chosen.pop_back();
    used.erase(witness.pid);
  }
  return false;
}

/// Rotate so the smallest monitor id comes first.
void canonicalize(std::vector<OrderMonitorId>& ids) {
  const auto smallest = std::min_element(ids.begin(), ids.end());
  std::rotate(ids.begin(), smallest, ids.end());
}

}  // namespace

std::vector<OrderCycle> LockOrderGraph::find_cycles() const {
  OrderAdjacency adjacency;
  for (const auto& [from, per_target] : edges_) {
    for (const auto& [to, edge] : per_target) {
      adjacency[from][to] = &edge;
      adjacency[to];  // ensure the target is a node even without out-edges
    }
  }

  std::vector<OrderMonitorId> roots;
  roots.reserve(adjacency.size());
  for (const auto& [node, targets] : adjacency) roots.push_back(node);
  const auto components = strongly_connected_components(
      roots, [&adjacency](OrderMonitorId v) {
        std::vector<OrderMonitorId> out;
        const auto it = adjacency.find(v);
        if (it != adjacency.end()) {
          out.reserve(it->second.size());
          for (const auto& [w, edge] : it->second) out.push_back(w);
        }
        return out;
      });

  std::vector<OrderCycle> cycles;
  std::set<std::string> seen;
  const auto try_report = [&](std::vector<OrderMonitorId> ids) {
    canonicalize(ids);
    std::vector<const OrderEdge*> edge_path;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      edge_path.push_back(
          adjacency.at(ids[i]).at(ids[(i + 1) % ids.size()]));
    }
    std::set<trace::Pid> used;
    std::vector<OrderWitness> chosen;
    if (!assign_witnesses(edge_path, 0, used, chosen)) return;
    OrderCycle cycle;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      cycle.steps.push_back(
          {ids[i], edge_path[i]->from_name, chosen[i]});
    }
    if (seen.insert(cycle.key()).second) cycles.push_back(std::move(cycle));
  };

  // Per SCC, enumerate *every* simple cycle (budgeted) and keep the ones
  // with a plausible witness assignment: one representative cycle per SCC
  // would be wrong here, because the cycle it happens to pick can be a
  // single-thread ordering (suppressed) while a different cycle through
  // the same component is independently witnessed.  Each cycle is found
  // exactly once, rooted at its smallest monitor id: the DFS from root s
  // only traverses component nodes > s and closes back on s.
  for (const auto& component : components) {
    if (component.size() < 2) continue;  // no same-monitor edges: no loops
    const std::set<OrderMonitorId> in_component(component.begin(),
                                                component.end());
    std::size_t budget = kCycleSearchBudget;
    std::vector<OrderMonitorId> path;
    std::set<OrderMonitorId> on_path;
    const std::function<void(OrderMonitorId, OrderMonitorId)> dfs =
        [&](OrderMonitorId root, OrderMonitorId v) {
          if (budget == 0) return;
          --budget;
          path.push_back(v);
          on_path.insert(v);
          for (const auto& [w, edge] : adjacency.at(v)) {
            if (w != root && (w < root || !in_component.count(w))) continue;
            if (w == root) {
              try_report(path);
            } else if (!on_path.count(w)) {
              dfs(root, w);
            }
            if (budget == 0) break;
          }
          path.pop_back();
          on_path.erase(v);
        };
    for (const OrderMonitorId root : in_component) {
      path.clear();
      on_path.clear();
      dfs(root, root);
    }
  }
  return cycles;
}

std::vector<trace::LockOrderRecord> to_order_records(
    const std::vector<OrderEdge>& edges) {
  std::vector<trace::LockOrderRecord> records;
  for (const OrderEdge& edge : edges) {
    for (const OrderWitness& witness : edge.witnesses) {
      records.push_back({edge.from_name, edge.to_name, witness.pid,
                         witness.from_ticket, witness.to_ticket,
                         witness.to_wait});
    }
  }
  return records;
}

std::vector<OrderEdge> order_edges_from_records(
    const std::vector<trace::LockOrderRecord>& records) {
  std::map<std::string, OrderMonitorId> ids;
  const auto id_of = [&ids](const std::string& name) {
    return ids.emplace(name, ids.size() + 1).first->second;
  };
  std::map<std::pair<OrderMonitorId, OrderMonitorId>, OrderEdge> edges;
  for (const trace::LockOrderRecord& record : records) {
    const OrderMonitorId from = id_of(record.from);
    const OrderMonitorId to = id_of(record.to);
    OrderEdge& edge = edges[{from, to}];
    if (edge.witnesses.empty() && edge.witness_total == 0) {
      edge.from = from;
      edge.to = to;
      edge.from_name = record.from;
      edge.to_name = record.to;
    }
    ++edge.witness_total;
    if (edge.witnesses.size() < LockOrderGraph::kMaxWitnessesPerEdge) {
      edge.witnesses.push_back({record.pid, record.from_ticket,
                                record.to_ticket, record.to_wait});
    }
  }
  std::vector<OrderEdge> flat;
  flat.reserve(edges.size());
  for (auto& [key, edge] : edges) flat.push_back(std::move(edge));
  return flat;
}

}  // namespace robmon::core
