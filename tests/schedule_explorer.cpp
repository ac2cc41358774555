// Schedule explorer: runs the pool-level recovery scenarios of
// workloads/schedule_scenarios.hpp under the deterministic fiber backend,
// sweeping seeds and asserting the detection scorecard per schedule.
//
// Structure (links robmon_sim — the whole runtime under SimBackend):
//   * PinnedCorpus — the regression corpus: known-interesting interleavings
//     (each recovery race that previously only a soak could reach) pinned
//     by (scenario, seed, schedule digest, scorecard).
//   * SameSeed* / DifferentSeeds* — the determinism contract: same seed ⇒
//     byte-identical v6 trace, report log and digest; seeds diverge.
//   * FreshSeedSweep — bounded per-PR exploration of new seeds
//     (ROBMON_EXPLORE_SEEDS per scenario, base ROBMON_EXPLORE_BASE); the
//     nightly job widens it and uploads failing seeds from
//     ROBMON_FAILED_SEEDS_FILE as artifacts.
//   * Replay — re-runs one (scenario, seed) named via env and dumps the
//     result; every failure above prints the exact command.
//   * PrintCorpus — regenerates the pinned table (ROBMON_PRINT_CORPUS=1).
#include "schedule_explorer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace robmon::testing {
namespace {

using wl::run_schedule_scenario;
using wl::ScenarioResult;
using wl::ScheduleScenario;

// The pinned regression corpus.  Two seeds per scenario: twelve exact
// interleavings of the six recovery races.  Digests/scorecards generated
// with PrintCorpus (see header).  Digests cover the whole scenario fiber,
// teardown included: every backend-mutex lock is a seeded preemption
// point, so a change to the locks a destructor takes can move a digest
// without changing the scorecard.
const CorpusRow kCorpus[] = {
    {ScheduleScenario::kRecoveryFull, 1, 0x70ba1e2fe3f94d7bULL,
     "wf=1 lo=2 act=3 poison=1 deliver=0 unpoison=1 impose=2 fenced=1 "
     "rf=1 reports=6"},
    {ScheduleScenario::kRecoveryFull, 2, 0xa737e68344a8afa1ULL,
     "wf=1 lo=2 act=3 poison=1 deliver=0 unpoison=1 impose=2 fenced=1 "
     "rf=1 reports=6"},
    {ScheduleScenario::kDeliverToVictim, 1, 0x780d70484440eda4ULL,
     "wf=1 lo=0 act=1 poison=0 deliver=1 unpoison=0 impose=0 fenced=0 "
     "rf=1 reports=2"},
    {ScheduleScenario::kDeliverToVictim, 2, 0x5aca443b707a434fULL,
     "wf=1 lo=0 act=1 poison=0 deliver=1 unpoison=0 impose=0 fenced=0 "
     "rf=1 reports=2"},
    {ScheduleScenario::kPoisonDuringWait, 1, 0x020608ec42cf2c0cULL,
     "wf=0 lo=0 act=0 poison=0 deliver=0 unpoison=0 impose=0 fenced=0 "
     "rf=9 reports=0"},
    {ScheduleScenario::kPoisonDuringWait, 2, 0x769854bb904e0382ULL,
     "wf=0 lo=0 act=0 poison=0 deliver=0 unpoison=0 impose=0 fenced=0 "
     "rf=9 reports=0"},
    {ScheduleScenario::kUnpoisonRacesNewBlocker, 1, 0x7b18be27df89f205ULL,
     "wf=0 lo=0 act=0 poison=0 deliver=0 unpoison=0 impose=0 fenced=0 "
     "rf=6 reports=0"},
    {ScheduleScenario::kUnpoisonRacesNewBlocker, 2, 0x0fc5db38e6eeb7a6ULL,
     "wf=0 lo=0 act=0 poison=0 deliver=0 unpoison=0 impose=0 fenced=0 "
     "rf=6 reports=0"},
    {ScheduleScenario::kRemovePoisonedMonitor, 1, 0x4c6c2e1d0e4a681fULL,
     "wf=1 lo=0 act=1 poison=1 deliver=0 unpoison=0 impose=0 fenced=0 "
     "rf=1 reports=2"},
    {ScheduleScenario::kRemovePoisonedMonitor, 2, 0xe8120b15b14c786cULL,
     "wf=1 lo=0 act=1 poison=1 deliver=0 unpoison=0 impose=0 fenced=0 "
     "rf=1 reports=2"},
    {ScheduleScenario::kGateImpositionRacesCrossing, 1, 0x5efae49c4c6b7163ULL,
     "wf=0 lo=1 act=1 poison=0 deliver=0 unpoison=0 impose=1 fenced=14 "
     "rf=0 reports=2"},
    {ScheduleScenario::kGateImpositionRacesCrossing, 2, 0x8ca5249ad18cb010ULL,
     "wf=0 lo=1 act=1 poison=0 deliver=0 unpoison=0 impose=1 fenced=14 "
     "rf=0 reports=2"},
};

std::string context(const ScenarioResult& result) {
  return std::string(result.name) + " seed=" + std::to_string(result.seed) +
         " digest=0x" + [&] {
           char buffer[32];
           std::snprintf(buffer, sizeof(buffer), "%016llx",
                         static_cast<unsigned long long>(
                             result.schedule_digest));
           return std::string(buffer);
         }() +
         " [" + result.scorecard() + "]\n  failure: " +
         (result.failure.empty() ? "<none>" : result.failure) +
         "\n  replay: " +
         replay_command(wl::scenario_from_name(result.name), result.seed);
}

TEST(ScheduleExplorerTest, PinnedCorpus) {
  for (const CorpusRow& row : kCorpus) {
    const ScenarioResult result = run_schedule_scenario(row.scenario, row.seed);
    EXPECT_TRUE(result.completed) << context(result);
    EXPECT_EQ(result.schedule_digest, row.digest)
        << "schedule drifted off the pinned interleaving\n"
        << context(result)
        << "\n  (legitimate drift: regenerate with PrintCorpus)";
    EXPECT_EQ(result.scorecard(), row.scorecard) << context(result);
  }
}

TEST(ScheduleExplorerTest, SameSeedIsByteIdentical) {
  // The acceptance contract: one pool-level recovery run (confirmed-cycle
  // poison + predicted-cycle imposition, zero real threads), executed twice
  // from the same seed, reproduces the identical schedule, byte-identical
  // v6 trace and identical fault report.
  const ScenarioResult first =
      run_schedule_scenario(ScheduleScenario::kRecoveryFull, 42);
  const ScenarioResult second =
      run_schedule_scenario(ScheduleScenario::kRecoveryFull, 42);
  EXPECT_TRUE(first.completed) << context(first);
  EXPECT_EQ(first.schedule_digest, second.schedule_digest);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace) << "v6 trace not byte-identical";
  EXPECT_EQ(first.report_log, second.report_log);
  EXPECT_EQ(first.scorecard(), second.scorecard());
}

TEST(ScheduleExplorerTest, DifferentSeedsExploreDifferentSchedules) {
  const ScenarioResult base =
      run_schedule_scenario(ScheduleScenario::kRecoveryFull, 42);
  bool diverged = false;
  for (std::uint64_t seed = 43; seed <= 46 && !diverged; ++seed) {
    const ScenarioResult other =
        run_schedule_scenario(ScheduleScenario::kRecoveryFull, seed);
    diverged = other.schedule_digest != base.schedule_digest;
  }
  EXPECT_TRUE(diverged) << "seed sweep never left the base interleaving";
}

TEST(ScheduleExplorerTest, FreshSeedSweep) {
  const std::uint64_t seeds_per_scenario = env_u64("ROBMON_EXPLORE_SEEDS", 3);
  const std::uint64_t base = env_u64("ROBMON_EXPLORE_BASE", 1000);
  const char* failed_file = std::getenv("ROBMON_FAILED_SEEDS_FILE");
  std::vector<std::string> failing;
  for (const ScheduleScenario scenario : wl::kAllScheduleScenarios) {
    for (std::uint64_t i = 0; i < seeds_per_scenario; ++i) {
      const std::uint64_t seed = base + i;
      const ScenarioResult result = run_schedule_scenario(scenario, seed);
      EXPECT_TRUE(result.completed) << context(result);
      if (!result.completed) {
        failing.push_back(std::string(wl::to_string(scenario)) + " " +
                          std::to_string(seed) + " " + result.failure);
      }
    }
  }
  if (failed_file != nullptr && !failing.empty()) {
    std::ofstream out(failed_file, std::ios::app);
    for (const std::string& line : failing) out << line << "\n";
  }
}

TEST(ScheduleExplorerTest, Replay) {
  const char* scenario_name = std::getenv("ROBMON_REPLAY_SCENARIO");
  if (scenario_name == nullptr || *scenario_name == '\0') {
    GTEST_SKIP() << "set ROBMON_REPLAY_SCENARIO / ROBMON_REPLAY_SEED to "
                    "replay one pinned interleaving";
  }
  const std::uint64_t seed = env_u64("ROBMON_REPLAY_SEED", 1);
  const ScheduleScenario scenario = wl::scenario_from_name(scenario_name);
  const ScenarioResult result = run_schedule_scenario(scenario, seed);
  std::printf("%s\n", context(result).c_str());
  std::printf("steps=%llu virtual_end_ns=%lld reports=%llu\n",
              static_cast<unsigned long long>(result.steps),
              static_cast<long long>(result.virtual_end_ns),
              static_cast<unsigned long long>(result.reports_total));
  std::printf("--- report log ---\n%s", result.report_log.c_str());
  std::printf("--- v6 trace (%zu bytes) ---\n%s", result.trace.size(),
              result.trace.c_str());
  EXPECT_TRUE(result.completed) << context(result);
}

TEST(ScheduleExplorerTest, PrintCorpus) {
  if (std::getenv("ROBMON_PRINT_CORPUS") == nullptr) {
    GTEST_SKIP() << "set ROBMON_PRINT_CORPUS=1 to regenerate the pinned "
                    "corpus table";
  }
  for (const CorpusRow& row : kCorpus) {
    const ScenarioResult result = run_schedule_scenario(row.scenario, row.seed);
    // Emitted as two adjacent literals split before " rf=", matching the
    // committed kCorpus layout (80-column clang-format).
    std::string head = result.scorecard();
    std::string tail;
    const std::size_t cut = head.rfind(" rf=");
    if (cut != std::string::npos) {
      tail = head.substr(cut + 1);
      head.resize(cut + 1);
    }
    std::printf("    {ScheduleScenario::%s, %llu, 0x%016llxULL,\n"
                "     \"%s\"\n     \"%s\"},%s%s\n",
                [&] {
                  switch (row.scenario) {
                    case ScheduleScenario::kRecoveryFull:
                      return "kRecoveryFull";
                    case ScheduleScenario::kDeliverToVictim:
                      return "kDeliverToVictim";
                    case ScheduleScenario::kPoisonDuringWait:
                      return "kPoisonDuringWait";
                    case ScheduleScenario::kUnpoisonRacesNewBlocker:
                      return "kUnpoisonRacesNewBlocker";
                    case ScheduleScenario::kRemovePoisonedMonitor:
                      return "kRemovePoisonedMonitor";
                    case ScheduleScenario::kGateImpositionRacesCrossing:
                      return "kGateImpositionRacesCrossing";
                  }
                  return "?";
                }(),
                static_cast<unsigned long long>(row.seed),
                static_cast<unsigned long long>(result.schedule_digest),
                head.c_str(), tail.c_str(),
                result.completed ? "" : "  // FAILED: ",
                result.completed ? "" : result.failure.c_str());
    if (!result.completed) {
      ADD_FAILURE() << context(result);
    }
  }
}

}  // namespace
}  // namespace robmon::testing
