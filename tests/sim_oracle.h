// Test-only reference simulator: the differential oracle for sim::Simulator.
//
// The production simulator is the data-oriented core (src/sim/sim_core.h).
// The original per-node priority_queue implementation lives on here, outside
// the library, so the core can be pinned to it bit for bit:
// tests/sim_diff_test.cpp, the scheduler tests in tests/sim_test.cpp, the
// simulator-input fuzzer and the 300-case property wall compare the two with
// memcmp-grade equality.
#pragma once

#include <vector>

#include "compile/dist_graph.h"
#include "sim/simulator.h"

namespace heterog::testing {

/// The reference run of `graph` under `priorities`. Validates its input like
/// Simulator::run_with_priorities (throws CheckError on the same graphs).
sim::SimResult oracle_simulate(const compile::DistGraph& graph,
                               const std::vector<double>& priorities,
                               const sim::SimOptions& options = sim::SimOptions());

/// The reference counterpart of Simulator::run: rank priorities under the
/// rank policy, arrival order under FIFO.
sim::SimResult oracle_simulate(const compile::DistGraph& graph,
                               const sim::SimOptions& options = sim::SimOptions());

}  // namespace heterog::testing
