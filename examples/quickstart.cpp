// Quickstart: the augmented monitor construct in ~60 lines.
//
// Builds a communication-coordinator monitor (a 4-slot bounded buffer),
// starts the periodic fault-detection routine, runs a producer and a
// consumer, and then injects one Level-II fault — a Send that overfills
// instead of waiting — to show a detection report.
//
//   ./quickstart
#include <cstdio>
#include <thread>

#include "robmon.hpp"

using namespace robmon;

int main() {
  // A sink collecting every fault report the detection routines produce.
  core::CollectingSink sink;

  // Declare the monitor (Section 4 of the paper): name, type, Rmax, and
  // the detection-model timing parameters.
  core::MonitorSpec spec = core::MonitorSpec::coordinator("demo-buffer", 4);
  spec.check_period = 50 * util::kMillisecond;  // T: checking interval

  // Inject exactly one "send exceeds capacity" fault (taxonomy II.d).
  inject::ScriptedInjection injection(
      {core::FaultKind::kSendExceedsCapacity, trace::kNoPid, 1, false});
  rt::RobustMonitor::Options options;
  options.injection = &injection;

  rt::RobustMonitor monitor(spec, sink, options);
  wl::BoundedBuffer buffer(monitor, 4, injection);
  monitor.start_checking();

  // A producer that outruns its consumer: the consumer starts only once
  // the buffer is full, and the injected fault makes the next Send push
  // anyway instead of waiting.
  std::thread producer([&] {
    for (std::int64_t i = 0; i < 200; ++i) buffer.send(/*pid=*/1, i);
  });
  std::thread consumer([&] {
    while (buffer.size() < buffer.capacity()) std::this_thread::yield();
    std::int64_t item = 0;
    for (std::int64_t i = 0; i < 200; ++i) buffer.receive(/*pid=*/2, &item);
  });
  producer.join();
  consumer.join();

  monitor.stop_checking();
  monitor.check_now();  // final checking-routine invocation

  std::printf("operations completed: 400 (200 sends, 200 receives)\n");
  std::printf("events recorded:      %llu\n",
              static_cast<unsigned long long>(
                  monitor.monitor().log().total_appended()));
  std::printf("fault injected:       %s\n",
              injection.fired() ? "yes (II.d send-exceeds-capacity)" : "no");
  std::printf("fault reports:        %zu\n", sink.count());
  for (const auto& report : sink.reports()) {
    std::printf("  %s\n", core::describe(report, monitor.symbols()).c_str());
  }
  return sink.count() > 0 ? 0 : 1;  // we expect the injection to be caught
}
