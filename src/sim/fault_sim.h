// Fault-aware execution mode for the discrete-event simulator.
//
// Instead of one steady-state scalar, the cluster is stepped through a
// FaultPlan: for every training step the active fault set scales per-device
// compute durations and per-link bandwidth, and the step's makespan is
// reported individually. A step whose plan touches a failed device is
// flagged inexecutable — the signal DistRunner's re-planning loop consumes.
#pragma once

#include <map>
#include <optional>

#include "compile/dist_graph.h"
#include "faults/faults.h"
#include "health/health.h"
#include "sim/simulator.h"

namespace heterog::sim {

struct StepOutcome {
  int step = 0;
  double makespan_ms = 0.0;
  bool executable = true;  // false: a failed device is in the plan
  std::vector<cluster::DeviceId> failed_devices;  // cause when !executable
};

struct FaultAwareRun {
  std::vector<StepOutcome> steps;
  double total_ms = 0.0;               // sum over executable steps
  int first_inexecutable_step = -1;    // -1 when every step ran
};

/// Copy of `graph` with durations scaled by the active fault set: compute
/// nodes by their device's slowdown, transfer/collective nodes by the
/// inverse of the degraded link bandwidth factor on their path. When
/// `changed` is non-null it is set to whether any node's duration changed —
/// false means the copy simulates exactly like `graph` (scaling never
/// touches structure), the shortcut the fault runners take.
compile::DistGraph apply_fault_scaling(const compile::DistGraph& graph,
                                       const cluster::ClusterSpec& cluster,
                                       const faults::FaultScaling& scaling,
                                       bool* changed = nullptr);

/// Whether any node of the compiled plan executes on / communicates through
/// `device`.
bool plan_uses_device(const compile::DistGraph& graph, cluster::DeviceId device);

/// Steps the plan through `steps` iterations of `plan`. Stops at the first
/// step whose active fault set fails a device the plan uses (re-planning is
/// the runner's job, not the simulator's). Identical fault sets are
/// simulated once and memoised; a fault set that changes no duration of the
/// plan is answered by the one unscaled run.
FaultAwareRun simulate_with_faults(const compile::DistGraph& graph,
                                   const cluster::ClusterSpec& cluster,
                                   const faults::FaultPlan& plan, int steps,
                                   SimOptions options = SimOptions());

/// The *injection* half of the fault pipeline (DESIGN.md "Online health &
/// degraded modes"). The injector owns the FaultPlan and the fault-scaled
/// simulations; the runner's reaction logic sees only the
/// health::Observation values it hands out — per-attempt heartbeats, error
/// attributions and (for completed attempts) the raw makespan and per-device
/// busy times a real execution engine's telemetry would report. The oracle_*
/// accessors exist solely for the legacy PR-1 recovery path and the runner's
/// measurement-free replay bookkeeping; the online health path never calls
/// them.
class FaultInjector {
 public:
  /// Raw timing of one simulated iteration under a fixed fault set.
  struct StepMeasurement {
    double makespan_ms = 0.0;
    std::vector<double> device_busy_ms;  // indexed by device id
  };

  FaultInjector(compile::DistGraph graph, cluster::ClusterSpec cluster,
                faults::FaultPlan plan, SimOptions options);

  /// One attempt of `step` (attempt 0 = first try). Outcome precedence:
  /// a failed device the plan uses times the attempt out (no error
  /// attribution — heartbeats are the only signal); otherwise a transient
  /// event with failed_attempts > attempt aborts it with an attributed
  /// error; otherwise it completes with measured timings.
  /// `transients_active` = false suppresses transient errors (the runner
  /// already retried through this step before a re-plan re-entered it).
  health::Observation attempt_step(int step, int attempt,
                                   bool transients_active = true);

  /// Memoised simulation of the active graph under `scaling` (shared by the
  /// oracle and online paths so their arithmetic is identical).
  const StepMeasurement& measure(const faults::FaultScaling& scaling);

  /// Swaps in the re-planned graph/cluster and rewrites the plan's device
  /// references through `new_id_of` (faults::remap_plan semantics).
  void apply_replan(compile::DistGraph graph, cluster::ClusterSpec cluster,
                    const std::vector<int>& new_id_of);

  /// Oracle accessors — PR-1 recovery path only.
  faults::FaultScaling oracle_scaling(int step) const;
  const faults::FaultPlan& oracle_plan() const { return plan_; }

  int device_count() const { return cluster_.device_count(); }

 private:
  compile::DistGraph graph_;
  cluster::ClusterSpec cluster_;
  faults::FaultPlan plan_;
  SimOptions options_;
  std::map<std::string, StepMeasurement> memo_;  // keyed by scaling signature
  std::optional<SimResult> unscaled_;  // the active graph's unscaled run
};

}  // namespace heterog::sim
