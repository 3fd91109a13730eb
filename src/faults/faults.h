// Fault model for heterogeneous clusters (robustness extension; see
// DESIGN.md "Fault model & recovery").
//
// A FaultPlan is a schedule of adverse events injected into a (simulated)
// training run: permanent device failures, straggler slowdowns, link
// bandwidth degradation and transient compute/OOM hiccups. Each event has an
// onset step and an optional recovery step. The plan is consumed at three
// layers:
//   * sim/fault_sim.h    — fault-aware execution: per-step makespans under
//                          the active fault set;
//   * core/heterog.h     — DistRunner's detect -> retry -> re-plan loop;
//   * this module        — derivation of a degraded ClusterSpec for
//                          re-planning on the surviving/slowed hardware.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace heterog::faults {

/// Thrown for malformed fault plans (bad JSON, unknown kinds, events that
/// reference devices outside the target cluster, non-positive factors).
class FaultPlanError : public std::runtime_error {
 public:
  explicit FaultPlanError(const std::string& what) : std::runtime_error(what) {}
};

enum class FaultKind : uint8_t {
  kDeviceFailure,    // device drops out of the cluster (permanent for the
                     // runner; the fault-aware simulator honours recovery)
  kStraggler,        // compute on `device` slows by `slowdown`
  kLinkDegradation,  // bandwidth on the host path between `device_a` and
                     // `device_b` scales by `bandwidth_factor`
  kTransient,        // transient hiccup: the first `failed_attempts` tries of
                     // step `onset_step` on `device` fail, then succeed
  // Correlated fault domains (require a cluster with switch topology).
  kRackFailure,        // every device in rack `rack` fails at once
  kSwitchOutage,       // switch (level, switch_index) dies: every device whose
                       // only path to the rest of the cluster crosses it is
                       // isolated (cut off, not slowed) for the window
  kSwitchDegradation,  // switch (level, switch_index) forwards at
                       // `bandwidth_factor` of nominal: every host-pair path
                       // crossing it is scaled
};
/// Stable lower-case name of a kind ("device_failure", ...) — the JSON
/// vocabulary below. Pure function; safe from any thread.
const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kTransient;
  cluster::DeviceId device = -1;    // failure / straggler / transient target
  cluster::DeviceId device_a = -1;  // link degradation endpoints; the fault
  cluster::DeviceId device_b = -1;  // hits the host-pair path between them
  int onset_step = 0;               // first affected step (0-based)
  int recovery_step = -1;           // first unaffected step; -1 = never
  double slowdown = 1.0;            // straggler compute-time multiplier (> 1)
  double bandwidth_factor = 1.0;    // link / switch degradation factor in (0, 1)
  int failed_attempts = 1;          // transient: attempts failing at onset
  int level = -1;                   // switch events: 0 = ToR, k = tier k-1
  int switch_index = -1;            // switch events: index within the level
  int rack = -1;                    // rack failure: the rack that goes down

  /// Whether the event is in its [onset, recovery) window at `step`
  /// (steps are 0-based counts, not times). Const and pure.
  bool active_at(int step) const {
    return step >= onset_step && (recovery_step < 0 || step < recovery_step);
  }

  /// Human-readable one-liner for logs ("straggler on G1 x2.5 ...").
  std::string describe() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  /// True when no events are scheduled; an empty plan is always valid.
  bool empty() const { return events.empty(); }

  /// Throws FaultPlanError if any event is internally inconsistent or
  /// references a device outside `cluster`.
  void validate(const cluster::ClusterSpec& cluster) const;
};

/// One entry of active link degradation, in device-endpoint form.
struct LinkDegradation {
  cluster::DeviceId a = -1;
  cluster::DeviceId b = -1;
  double factor = 1.0;
};

/// One entry of active switch degradation, in (level, index) coordinates.
struct SwitchDegradation {
  int level = -1;
  int index = -1;
  double factor = 1.0;  // in (0, 1)
};

/// The net effect of all faults active at one step, resolved against a
/// concrete cluster: per-device compute slowdown, degraded links and the set
/// of failed devices.
struct FaultScaling {
  /// Step this scaling was resolved at (scaling_at sets it; -1 for
  /// hand-built scalings). Diagnostic only: excluded from signature() so
  /// identical fault sets at different steps still share one memo entry.
  int step = -1;

  std::vector<double> compute_slowdown;  // per device, >= 1.0
  std::vector<LinkDegradation> links;
  std::vector<cluster::DeviceId> failed;  // sorted, unique
  std::vector<SwitchDegradation> switches;
  // Devices cut off by an active switch outage: unreachable but not failed —
  // they miss heartbeats, block steps that use them and come back if the
  // outage recovers. Sorted, unique, disjoint handling from `failed`.
  std::vector<cluster::DeviceId> isolated;

  /// True when any slowdown, degradation, failure or isolation is in effect.
  bool any() const;
  /// Membership test against the sorted `failed` set (binary search).
  bool is_failed(cluster::DeviceId d) const;
  /// Membership test against the sorted `isolated` set (binary search).
  bool is_isolated(cluster::DeviceId d) const;

  /// Combined bandwidth factor (<= 1) applying to the (x -> y) link: the
  /// product of all degradations whose endpoint host pair matches x/y's,
  /// times the factor of every degraded switch on the host-pair path.
  double link_factor(const cluster::ClusterSpec& cluster, cluster::DeviceId x,
                     cluster::DeviceId y) const;

  /// Stable cache key for memoising simulations of identical fault sets.
  /// Throws FaultPlanError (naming `step` and the offending device) on a
  /// malformed scaling — a corrupt cache key would silently alias distinct
  /// fault sets.
  std::string signature() const;
};

/// Resolves `plan` at `step` against `cluster`. Transient events do not
/// contribute (they are handled by the runner's retry loop, not by scaling).
FaultScaling scaling_at(const FaultPlan& plan, const cluster::ClusterSpec& cluster,
                        int step);

/// Devices belonging to the fault domain of `e` in `cluster` (sorted):
/// every device in the rack for kRackFailure, every device whose rack hangs
/// under the switch for kSwitchOutage, empty for every other kind
/// (kSwitchDegradation slows paths but strands no one). Requires the event
/// to validate against `cluster`; throws FaultPlanError otherwise.
std::vector<cluster::DeviceId> domain_devices(const cluster::ClusterSpec& cluster,
                                              const FaultEvent& e);

/// Rewrites every device reference through `new_id_of` (old id -> new id, -1
/// for removed devices); events whose target vanished are dropped. Used by
/// the runner after re-planning onto a survivor cluster re-densifies ids.
/// Domain events carry no device ids and are kept as-is.
FaultPlan remap_plan(const FaultPlan& plan, const std::vector<int>& new_id_of);

/// As above, but additionally drops domain events that no longer validate
/// against `survivors` (e.g. a rack whose last host was removed, or a switch
/// whose outage would now isolate everyone left). Prefer this overload when a
/// survivor cluster is at hand — keeping a dangling domain event would poison
/// every later validate() call.
FaultPlan remap_plan(const FaultPlan& plan, const std::vector<int>& new_id_of,
                     const cluster::ClusterSpec& survivors);

/// ClusterSpec reflecting `scaling`: failed and isolated devices removed,
/// straggler devices' compute scaled down, degraded links and switches
/// applied (switch degradations re-price the inter-host bandwidth table via
/// ClusterSpec::degrade_switch). The result is what re-planning should
/// target. Throws ClusterSpecError if no device survives.
cluster::ClusterSpec degraded_cluster(const cluster::ClusterSpec& base,
                                      const FaultScaling& scaling);

/// JSON (de)serialisation -------------------------------------------------
///
/// Accepted schema (top-level object with "faults", or a bare array):
///   {"faults": [
///     {"kind": "device_failure",   "device": 3, "onset_step": 5},
///     {"kind": "straggler",        "device": 1, "onset_step": 0,
///      "recovery_step": 10, "slowdown": 2.5},
///     {"kind": "link_degradation", "device_a": 0, "device_b": 2,
///      "onset_step": 3, "bandwidth_factor": 0.25},
///     {"kind": "transient",        "device": 2, "onset_step": 4,
///      "failed_attempts": 2},
///     {"kind": "rack_failure",     "rack": 1, "onset_step": 5},
///     {"kind": "switch_outage",    "level": 0, "switch": 1, "onset_step": 5,
///      "recovery_step": 9},
///     {"kind": "switch_degradation", "level": 1, "switch": 0,
///      "onset_step": 3, "bandwidth_factor": 0.5}
///   ]}
/// Domain events (the last three) only validate against clusters that carry
/// a switch topology; "switch" maps to FaultEvent::switch_index. Input that
/// is not JSON throws FaultPlanError("fault plan JSON: <why> (at offset N)");
/// schema errors throw FaultPlanError("fault plan: <why>").
FaultPlan parse_fault_plan_json(const std::string& text);

/// Reads and parses `path`; throws FaultPlanError when unreadable.
FaultPlan load_fault_plan(const std::string& path);

/// Serialises `plan` back to the schema above (round-trips with the parser).
std::string fault_plan_to_json(const FaultPlan& plan);

/// Every field name the fault-plan JSON schema accepts, for the
/// docs/faults.md cross-check (mirrors cluster::topo_json_fields()).
const std::vector<std::string>& fault_json_fields();

}  // namespace heterog::faults
