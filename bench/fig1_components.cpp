// Figure 1, quantified: per-component microbenchmarks of the augmented
// monitor construct's functional units — the monitor primitives, the
// data-gathering routine, the history database, the scheduling-state
// snapshot, and the three checking routines (Algorithms 1-3).
//
// Uses google-benchmark; one benchmark per architectural box.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/algorithms.hpp"
#include "core/detector.hpp"
#include "pathexpr/matcher.hpp"
#include "runtime/hoare_monitor.hpp"
#include "trace/event_log.hpp"

namespace {

using namespace robmon;

/// Discards reports (benchmarks measure rule evaluation, not sinks).
class DiscardSink final : public core::ReportSink {
 public:
  void report(const core::FaultReport&) override {}
};

// --- Monitor primitives: bare vs instrumented. ------------------------------

void BM_MonitorOp_Bare(benchmark::State& state) {
  const util::SteadyClock& clock = util::SteadyClock::instance();
  rt::HoareMonitor monitor(core::MonitorSpec::manager("bare"), clock,
                           inject::NullInjection::instance(),
                           rt::Instrumentation::kOff);
  const trace::SymbolId op = monitor.symbols().intern("Op");
  for (auto _ : state) {
    monitor.enter(1, op);
    monitor.exit(1);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MonitorOp_Bare);

void BM_MonitorOp_Instrumented(benchmark::State& state) {
  const util::SteadyClock& clock = util::SteadyClock::instance();
  rt::HoareMonitor monitor(core::MonitorSpec::manager("instr"), clock,
                           inject::NullInjection::instance(),
                           rt::Instrumentation::kFull);
  const trace::SymbolId op = monitor.symbols().intern("Op");
  std::vector<trace::EventRecord> segment;
  for (auto _ : state) {
    monitor.enter(1, op);
    monitor.exit(1);
    if (monitor.log().pending() > 65536) monitor.capture(segment);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MonitorOp_Instrumented);

// --- History database. -------------------------------------------------------

void BM_EventLogAppend(benchmark::State& state) {
  trace::EventLog log;
  const auto event = trace::EventRecord::enter(1, 0, true, 42);
  std::vector<trace::EventRecord> segment;
  for (auto _ : state) {
    log.append(event);
    if (log.pending() > 65536) log.drain(segment);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLogAppend);

void BM_EventLogSegmentCycle(benchmark::State& state) {
  // One gathering period: append a segment, then the checker drains it.
  trace::EventLog log;
  const auto event = trace::EventRecord::enter(1, 0, true, 42);
  const auto length = static_cast<std::size_t>(state.range(0));
  std::vector<trace::EventRecord> segment;
  for (auto _ : state) {
    for (std::size_t i = 0; i < length; ++i) log.append(event);
    log.drain(segment);
    benchmark::DoNotOptimize(segment.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_EventLogSegmentCycle)->Arg(256)->Arg(4096);

// --- Scheduling-state snapshot. ----------------------------------------------

void BM_Snapshot(benchmark::State& state) {
  const util::SteadyClock& clock = util::SteadyClock::instance();
  rt::HoareMonitor monitor(core::MonitorSpec::coordinator("snap", 8), clock);
  monitor.symbols().intern("Send");
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.snapshot());
  }
}
BENCHMARK(BM_Snapshot);

// --- Checking routines vs segment length. ------------------------------------

/// A consistent enter/exit event segment for one process.
std::vector<trace::EventRecord> make_segment(std::size_t pairs,
                                             trace::SymbolId proc) {
  std::vector<trace::EventRecord> events;
  events.reserve(pairs * 2);
  util::TimeNs t = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    events.push_back(trace::EventRecord::enter(1, proc, true, ++t));
    events.push_back(trace::EventRecord::signal_exit(
        1, proc, trace::kNoSymbol, false, ++t));
  }
  return events;
}

// The uncontended replay: one process entering and leaving, nobody ever
// blocked, so every event takes Algorithm 1's uncontended step.
void BM_Algorithm1(benchmark::State& state) {
  core::MonitorSpec spec = core::MonitorSpec::manager("a1");
  spec.t_max = spec.t_io = 3600 * util::kSecond;
  trace::SymbolTable symbols;
  const trace::SymbolId op = symbols.intern("Op");
  DiscardSink sink;
  const auto events =
      make_segment(static_cast<std::size_t>(state.range(0)) / 2, op);
  const trace::SchedulingState empty;
  core::CheckingLists lists;
  for (auto _ : state) {
    const auto ctx = core::CheckContext::make(spec, symbols, 1000, sink);
    benchmark::DoNotOptimize(
        core::run_algorithm1(ctx, empty, empty, events, lists));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Algorithm1)->Arg(64)->Arg(1024)->Arg(8192);

// The contended replay: every event takes the general step.  Each 5-event
// round is an entry-queue hand-off (p2 queues on EQ, p1's Wait admits it)
// followed by a condition hand-off (p2's Signal-Exit(1) resumes p1), and
// ends with the monitor vacant.  p3 stays parked on CQ[park] throughout,
// so somebody is always recorded as blocked and every event pays the ST-4
// scan.  The segment is clean.
void BM_Algorithm1_Contended(benchmark::State& state) {
  core::MonitorSpec spec = core::MonitorSpec::manager("a1c");
  spec.t_max = spec.t_io = 3600 * util::kSecond;
  trace::SymbolTable symbols;
  const trace::SymbolId op = symbols.intern("Op");
  const trace::SymbolId cond = symbols.intern("cond");
  const trace::SymbolId park = symbols.intern("park");
  DiscardSink sink;
  std::vector<trace::EventRecord> events;
  util::TimeNs t = 0;
  for (std::int64_t i = 0; i < state.range(0) / 5; ++i) {
    events.push_back(trace::EventRecord::enter(1, op, true, ++t));
    events.push_back(trace::EventRecord::enter(2, op, false, ++t));
    events.push_back(trace::EventRecord::wait(1, op, cond, ++t));
    events.push_back(trace::EventRecord::signal_exit(2, op, cond, true, ++t));
    events.push_back(trace::EventRecord::signal_exit(
        1, op, trace::kNoSymbol, false, ++t));
  }
  trace::SchedulingState parked;
  parked.cond_queues.push_back({cond, {}});
  parked.cond_queues.push_back({park, {{3, op, 0, 1}}});
  core::CheckingLists lists;
  for (auto _ : state) {
    const auto ctx = core::CheckContext::make(spec, symbols, 1000, sink);
    benchmark::DoNotOptimize(
        core::run_algorithm1(ctx, parked, parked, events, lists));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_Algorithm1_Contended)->Arg(64)->Arg(1024)->Arg(8192);

void BM_Algorithm2(benchmark::State& state) {
  core::MonitorSpec spec = core::MonitorSpec::coordinator("a2", 8);
  trace::SymbolTable symbols;
  const trace::SymbolId send = symbols.intern(spec.send_procedure);
  const trace::SymbolId receive = symbols.intern(spec.receive_procedure);
  const trace::SymbolId empty_c = symbols.intern(spec.empty_condition);
  const trace::SymbolId full_c = symbols.intern(spec.full_condition);
  DiscardSink sink;
  std::vector<trace::EventRecord> events;
  util::TimeNs t = 0;
  for (std::int64_t i = 0; i < state.range(0) / 2; ++i) {
    events.push_back(
        trace::EventRecord::signal_exit(1, send, empty_c, false, ++t));
    events.push_back(
        trace::EventRecord::signal_exit(2, receive, full_c, false, ++t));
  }
  trace::SchedulingState prev;
  prev.resources = 8;
  trace::SchedulingState cur = prev;
  for (auto _ : state) {
    core::ResourceCounters counters;
    const auto ctx = core::CheckContext::make(spec, symbols, 1000, sink);
    benchmark::DoNotOptimize(
        core::run_algorithm2(ctx, prev, cur, events, counters));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Algorithm2)->Arg(64)->Arg(1024)->Arg(8192);

void BM_Algorithm3(benchmark::State& state) {
  core::MonitorSpec spec = core::MonitorSpec::allocator("a3");
  spec.t_limit = 3600 * util::kSecond;
  trace::SymbolTable symbols;
  const trace::SymbolId acquire = symbols.intern(spec.acquire_procedure);
  const trace::SymbolId release = symbols.intern(spec.release_procedure);
  DiscardSink sink;
  std::vector<trace::EventRecord> events;
  util::TimeNs t = 0;
  for (std::int64_t i = 0; i < state.range(0) / 4; ++i) {
    events.push_back(trace::EventRecord::enter(1, acquire, true, ++t));
    events.push_back(trace::EventRecord::signal_exit(
        1, acquire, trace::kNoSymbol, false, ++t));
    events.push_back(trace::EventRecord::enter(1, release, true, ++t));
    events.push_back(trace::EventRecord::signal_exit(
        1, release, trace::kNoSymbol, false, ++t));
  }
  // Kept across iterations, as the Detector keeps it across checks; each
  // segment releases what it acquires, so every iteration starts empty.
  core::RequestList requests;
  for (auto _ : state) {
    const auto ctx = core::CheckContext::make(spec, symbols, 1000, sink);
    benchmark::DoNotOptimize(core::run_algorithm3(ctx, events, requests));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Algorithm3)->Arg(64)->Arg(1024)->Arg(8192);

// --- Real-time phase. ----------------------------------------------------------

void BM_PathExprAdvance(benchmark::State& state) {
  const pathexpr::CallOrderSpec spec("(Acquire ; Release)*");
  pathexpr::Matcher matcher = spec.matcher();
  const std::string acquire = "Acquire";
  const std::string release = "Release";
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.advance(acquire));
    benchmark::DoNotOptimize(matcher.advance(release));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PathExprAdvance);

}  // namespace

BENCHMARK_MAIN();
