// Compile-time synchronization-backend seam (the cxxtrace
// real_/relacy_synchronization.h pattern).
//
// Everything in the runtime that can block, spawn a thread, or read time for
// cadence/budget decisions names these aliases instead of std types.  The
// default build resolves them to RealBackend (exactly the std/pthread
// primitives used before the seam existed — zero cost).  Compiling with
// -DROBMON_SYNC_BACKEND_SIM=1 (the `robmon_sim` CMake target) resolves them
// to SimBackend: every blocking edge becomes a cooperative fiber suspend on
// a seeded SimScheduler and every clock becomes its virtual clock, which is
// what lets tests/schedule_explorer.cpp run the whole CheckerPool + recovery
// machinery deterministically from a seed.  See docs/deterministic-testing.md.
#pragma once

#include "util/clock.hpp"

#if defined(ROBMON_SYNC_BACKEND_SIM)
#include "sync/sim_backend.hpp"
#else
#include "sync/real_backend.hpp"
#endif

namespace robmon::sync {

#if defined(ROBMON_SYNC_BACKEND_SIM)
using Backend = SimBackend;
#else
using Backend = RealBackend;
#endif

using BackendMutex = Backend::Mutex;
using BackendCondVar = Backend::CondVar;
using BackendThread = Backend::Thread;

/// Monotone wall clock for deadlines and cadence (virtual under sim).
inline util::TimeNs backend_now() { return Backend::now(); }
/// Per-thread CPU clock for budget spend (virtual under sim).
inline util::TimeNs backend_cpu_now() { return Backend::cpu_now(); }
inline void backend_sleep_for(util::TimeNs delta) { Backend::sleep_for(delta); }
inline void backend_yield() { Backend::yield(); }
inline unsigned backend_hardware_concurrency() {
  return Backend::hardware_concurrency();
}
/// Clock instance for Options::clock defaults (detection-rule timestamps).
inline const util::Clock* backend_clock() { return Backend::clock(); }

}  // namespace robmon::sync
