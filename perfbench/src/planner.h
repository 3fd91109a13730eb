// Calls into the planner shared by several workloads: output fingerprints,
// the uniform data-parallel baselines behind speedup_vs_dp, and the traced
// run's replay of a monolithic get_runner through its layers' public calls.
#pragma once

#include <functional>
#include <string>

#include "common.h"
#include "core/heterog.h"

namespace perfbench {

using ModelFn = std::function<heterog::graph::GraphDef()>;

/// What an op's plan is checked on: the v2 plan text plus the exact
/// simulated per-iteration time and feasibility of the deployment.
std::string plan_output(const heterog::DistRunner& runner);

/// Best (lowest) simulated per-iteration time over the four uniform DP
/// baselines (EV-PS, EV-AR, CP-PS, CP-AR under FIFO — the paper's Table 1
/// columns) for `training` on `cluster`; 0 when all four run out of memory.
double best_dp_ms(const heterog::cluster::ClusterSpec& cluster,
                  const heterog::graph::GraphDef& training,
                  const heterog::strategy::Grouping& grouping);

/// Completed steps per simulated second of a fault-free DistRunner::run.
double fault_free_goodput(const heterog::DistRunner& runner);

/// Which layer calls replay_planner re-issues.
struct ReplayScope {
  bool search = false;      // Trainer::search (RL) with forward/backward units
  bool candidates = false;  // Trainer::heuristic_candidates + per-candidate evaluate_plan
  bool deploy = false;      // GraphCompiler::compile, rank_priorities, simulate
};

/// Traced runs only: re-issues the layer calls get_runner makes for
/// (`model`, `cluster`, `config`) from outside, timing each as a span under
/// `op`, and records unit times and the counts the program reported in
/// `runner` into ctx.layers. Cross-checks that the replayed search finds the
/// runner's plan. `runner` may be null when `scope` is empty (only the
/// build / profile / encode prologue is replayed).
void replay_planner(Context& ctx, int op, const ModelFn& model,
                    const heterog::cluster::ClusterSpec& cluster,
                    const heterog::HeteroGConfig& config,
                    const heterog::DistRunner* runner, ReplayScope scope);

}  // namespace perfbench
