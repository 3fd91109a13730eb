// Differential wall for the simulator (DESIGN.md §5i).
//
// The reference per-node priority_queue simulator (sim_oracle.h) is the
// oracle; sim::Simulator's data-oriented core and the fault runners'
// unscaled-run shortcut must reproduce it BIT-identically — makespans, busy
// times, peak-memory vectors and the full start/finish trace are compared
// with exact (memcmp-grade) equality, never tolerances. Scenarios are seeded
// and randomized: models × clusters × policies × fault scalings ×
// single-action strategy deltas.
//
// ctest label: simdiff (runs under ASan/UBSan and TSan in CI).
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "compile/compiler.h"
#include "faults/faults.h"
#include "graph/training.h"
#include "models/models.h"
#include "profiler/hardware_model.h"
#include "sched/scheduler.h"
#include "sim/fault_sim.h"
#include "sim/simulator.h"
#include "sim_oracle.h"
#include "strategy/strategy.h"
#include "test_util.h"

namespace heterog {
namespace {

using sched::OrderPolicy;
using sim::SimOptions;
using sim::SimResult;
using sim::Simulator;

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Exact equality of every observable the simulator reports. Doubles are
/// compared as raw bytes: "close" is a bug here, the core and the oracle
/// must execute the same arithmetic in the same order.
void expect_identical(const SimResult& oracle, const SimResult& candidate,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(bytes_equal({oracle.makespan_ms}, {candidate.makespan_ms}))
      << "makespan " << oracle.makespan_ms << " vs " << candidate.makespan_ms;
  EXPECT_TRUE(bytes_equal({oracle.computation_time_ms}, {candidate.computation_time_ms}));
  EXPECT_TRUE(
      bytes_equal({oracle.communication_time_ms}, {candidate.communication_time_ms}));
  EXPECT_TRUE(bytes_equal(oracle.resource_busy_ms, candidate.resource_busy_ms));
  EXPECT_EQ(oracle.peak_memory_bytes, candidate.peak_memory_bytes);
  EXPECT_EQ(oracle.oom, candidate.oom);
  EXPECT_EQ(oracle.oom_devices, candidate.oom_devices);
  EXPECT_TRUE(bytes_equal(oracle.start_ms, candidate.start_ms)) << "start trace";
  EXPECT_TRUE(bytes_equal(oracle.finish_ms, candidate.finish_ms)) << "finish trace";
}

std::vector<double> priorities_for(const compile::DistGraph& graph,
                                   OrderPolicy policy) {
  if (policy == OrderPolicy::kRankPriority) return sched::rank_priorities(graph);
  return std::vector<double>(static_cast<size_t>(graph.node_count()), 0.0);
}

strategy::Action random_action(std::mt19937& rng, int device_count) {
  switch (rng() % 4) {
    case 0:
      return strategy::Action::dp(strategy::ReplicationMode::kEven,
                                  strategy::CommMethod::kAllReduce);
    case 1:
      return strategy::Action::dp(strategy::ReplicationMode::kEven,
                                  strategy::CommMethod::kPS);
    case 2:
      return strategy::Action::dp(strategy::ReplicationMode::kProportional,
                                  strategy::CommMethod::kAllReduce);
    default:
      return strategy::Action::mp(static_cast<cluster::DeviceId>(rng() % device_count));
  }
}

faults::FaultScaling random_scaling(std::mt19937& rng, int device_count) {
  faults::FaultScaling scaling;
  scaling.compute_slowdown.assign(static_cast<size_t>(device_count), 1.0);
  const int slowed = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < slowed; ++i) {
    scaling.compute_slowdown[rng() % device_count] =
        1.2 + 0.1 * static_cast<double>(rng() % 30);
  }
  if (rng() % 2 == 0) {
    faults::LinkDegradation link;
    link.a = static_cast<cluster::DeviceId>(rng() % device_count);
    link.b = static_cast<cluster::DeviceId>(rng() % device_count);
    if (link.a != link.b) {
      link.factor = 0.25 + 0.05 * static_cast<double>(rng() % 10);
      scaling.links.push_back(link);
    }
  }
  return scaling;
}

/// One randomized scenario: compile a (model, cluster, strategy) triple, then
/// compare Simulator against the oracle on the base graph, a fault-scaled
/// variant, and a single-action strategy delta.
void run_scenario(int seed, const graph::GraphDef& graph,
                  const testing::TestRig& rig, const std::string& tag) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  const int devices = rig.cluster.device_count();

  const auto grouping = strategy::Grouping::build(graph, *rig.costs, 32);
  strategy::StrategyMap map =
      strategy::StrategyMap::uniform(grouping.group_count(), random_action(rng, devices));
  for (auto& action : map.group_actions) {
    if (rng() % 3 == 0) action = random_action(rng, devices);
  }
  const auto compiled = rig.compiler->compile(graph, grouping, map);

  SimOptions options;
  options.policy = rng() % 2 == 0 ? OrderPolicy::kRankPriority : OrderPolicy::kFifo;
  options.track_memory = rng() % 4 != 0;
  const Simulator simulator(options);
  auto compare = [&](const compile::DistGraph& g, const std::string& what) {
    const auto priorities = priorities_for(g, options.policy);
    expect_identical(testing::oracle_simulate(g, priorities, options),
                     simulator.run_with_priorities(g, priorities), tag + ": " + what);
  };

  compare(compiled.graph, "base graph");

  // Fault-scaled variant: durations change, structure does not.
  const faults::FaultScaling scaling = random_scaling(rng, devices);
  compare(sim::apply_fault_scaling(compiled.graph, rig.cluster, scaling), "fault delta");

  // Single-action strategy delta: the re-compiled graph can have a different
  // node count.
  strategy::StrategyMap flipped = map;
  const size_t group = rng() % flipped.group_actions.size();
  flipped.group_actions[group] = random_action(rng, devices);
  compare(rig.compiler->compile(graph, grouping, flipped).graph, "strategy delta");
}

/// A small randomized layered training graph: enough structural variety
/// (fan-out, parameterless ops, mixed byte sizes) to exercise every node
/// kind the compiler emits, cheap enough for hundreds of scenarios.
graph::GraphDef random_training_graph(int seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 13u);
  graph::GraphDef fwd("rand" + std::to_string(seed),
                      8.0 * static_cast<double>(1 + rng() % 8));
  const int layers = 3 + static_cast<int>(rng() % 6);
  std::vector<graph::OpId> previous;
  graph::OpId last = -1;
  for (int layer = 0; layer < layers; ++layer) {
    graph::OpDef op;
    op.name = "l" + std::to_string(layer);
    op.kind = layer == layers - 1 ? graph::OpKind::kLoss
              : rng() % 2 == 0    ? graph::OpKind::kConv2D
                                  : graph::OpKind::kMatMul;
    op.flops_per_sample = 1e8 * static_cast<double>(1 + rng() % 40);
    op.out_bytes_per_sample = 1024 * static_cast<int64_t>(1 + rng() % 512);
    op.param_bytes = rng() % 4 == 0 ? 0 : (1 << 16) * static_cast<int64_t>(1 + rng() % 64);
    const graph::OpId id = fwd.add_op(op);
    if (last >= 0) fwd.add_edge(last, id);
    if (!previous.empty() && rng() % 2 == 0) {
      fwd.add_edge(previous[rng() % previous.size()], id);  // skip connection
    }
    previous.push_back(id);
    last = id;
  }
  return graph::build_training_graph(fwd);
}

// 120 randomized small-graph scenarios on the heterogeneous 8-GPU testbed
// and the Fig. 3 testbed — the ≥100-scenario volume wall.
TEST(SimDiffTest, RandomizedScenariosTestbed8) {
  testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  for (int seed = 0; seed < 60; ++seed) {
    run_scenario(seed, random_training_graph(seed), rig,
                 "rig8 seed " + std::to_string(seed));
  }
}

TEST(SimDiffTest, RandomizedScenariosFig3) {
  testing::TestRig rig(cluster::make_fig3_testbed());
  for (int seed = 60; seed < 120; ++seed) {
    run_scenario(seed, random_training_graph(seed), rig,
                 "fig3 seed " + std::to_string(seed));
  }
}

// Full paper models on both testbeds — depth over volume: thousands of
// compiled nodes per scenario, every transfer/collective/PS shape the real
// search produces.
TEST(SimDiffTest, PaperModels) {
  struct Case {
    models::ModelKind kind;
    int layers;
    double batch;
  };
  const Case cases[] = {
      {models::ModelKind::kMobileNetV2, 0, 64.0},
      {models::ModelKind::kVgg19, 0, 32.0},
      {models::ModelKind::kBertLarge, 12, 24.0},
  };
  testing::TestRig rig8(cluster::make_paper_testbed_8gpu());
  testing::TestRig rig3(cluster::make_fig3_testbed());
  int seed = 1000;
  for (const auto& c : cases) {
    const auto graph = models::build_training(c.kind, c.layers, c.batch);
    run_scenario(seed++, graph, rig8, std::string(models::model_kind_name(c.kind)) + "/rig8");
    run_scenario(seed++, graph, rig3, std::string(models::model_kind_name(c.kind)) + "/fig3");
  }
}

// A plan on two model-parallel islands (the first half of the groups on
// GPU 0, the rest on GPU 7): GPUs 1-6 stay idle, so a fault can land on a
// device the plan never uses, and the islands exchange activations over the
// 0 <-> 7 link.
compile::DistGraph two_island_plan(const testing::TestRig& rig,
                                   const graph::GraphDef& graph) {
  const auto grouping = strategy::Grouping::build(graph, *rig.costs, 16);
  strategy::StrategyMap map;
  for (int g = 0; g < grouping.group_count(); ++g) {
    map.group_actions.push_back(
        strategy::Action::mp(g < grouping.group_count() / 2 ? 0 : 7));
  }
  return rig.compiler->compile(graph, grouping, map).graph;
}

// Fault-scaled variants of the two-island plan under both policies: a
// straggler on an idle GPU changes no duration (apply_fault_scaling says
// so), a straggler on an island GPU changes some; either way Simulator on
// the scaled graph equals the oracle.
TEST(SimDiffTest, FaultScaledIslandsMatchOracle) {
  testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto graph = two_island_plan(
      rig, models::build_training(models::ModelKind::kMobileNetV2, 0, 16.0));
  for (const auto policy : {OrderPolicy::kFifo, OrderPolicy::kRankPriority}) {
    SimOptions options;
    options.policy = policy;
    options.track_memory = false;
    for (const int device : {3, 7}) {
      for (int d = 0; d < 4; ++d) {
        const std::string what = "policy " + std::to_string(static_cast<int>(policy)) +
                                 " device " + std::to_string(device) + " delta " +
                                 std::to_string(d);
        faults::FaultScaling scaling;
        scaling.compute_slowdown.assign(8, 1.0);
        scaling.compute_slowdown[static_cast<size_t>(device)] =
            1.1 + 0.1 * static_cast<double>(d);
        bool changed = true;
        const auto scaled =
            sim::apply_fault_scaling(graph, rig.cluster, scaling, &changed);
        EXPECT_EQ(changed, device == 7) << what;
        expect_identical(testing::oracle_simulate(scaled, options),
                         Simulator(options).run(scaled), what);
        if (!changed) {
          expect_identical(testing::oracle_simulate(graph, options),
                           Simulator(options).run(scaled), what + " vs unscaled");
        }
      }
    }
  }
}

// The fault runners (FaultInjector::attempt_step and simulate_with_faults)
// answer a scaling that changes no duration from their one unscaled run and
// simulate every other scaling from scratch; both must equal the oracle run
// on apply_fault_scaling of the step's fault set. Cases: a straggler on a
// GPU the plan uses, a straggler on one it never uses (the unscaled-run
// shortcut) and a degraded link between the islands.
TEST(SimDiffTest, FaultInjectorPathsAgree) {
  testing::TestRig rig(cluster::make_paper_testbed_8gpu());
  const auto graph = two_island_plan(rig, testing::make_toy_training_graph(64.0));
  constexpr int kSteps = 4;

  struct Case {
    const char* name;
    faults::FaultEvent event;
    bool changes_durations;
  };
  std::vector<Case> cases;
  {
    faults::FaultEvent used;
    used.kind = faults::FaultKind::kStraggler;
    used.device = 7;
    used.onset_step = 1;
    used.recovery_step = 3;
    used.slowdown = 3.0;
    cases.push_back({"straggler on a used GPU", used, true});
    faults::FaultEvent idle = used;
    idle.device = 3;
    cases.push_back({"straggler on an idle GPU", idle, false});
    faults::FaultEvent link;
    link.kind = faults::FaultKind::kLinkDegradation;
    link.device_a = 0;
    link.device_b = 7;
    link.onset_step = 1;
    link.bandwidth_factor = 0.25;
    cases.push_back({"degraded 0<->7 link", link, true});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    faults::FaultPlan plan;
    plan.events.push_back(c.event);

    SimOptions options;  // the runners simulate timing only
    sim::FaultInjector injector(graph, rig.cluster, plan, options);
    const auto run = sim::simulate_with_faults(graph, rig.cluster, plan, kSteps, options);
    ASSERT_EQ(run.steps.size(), static_cast<size_t>(kSteps));
    options.track_memory = false;

    double total_ms = 0.0;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const auto scaling = faults::scaling_at(plan, rig.cluster, step);
      bool changed = false;
      const auto scaled = sim::apply_fault_scaling(graph, rig.cluster, scaling, &changed);
      EXPECT_EQ(changed, c.changes_durations && c.event.active_at(step));
      const SimResult oracle = testing::oracle_simulate(scaled, options);

      std::vector<double> device_busy_ms(8, 0.0);
      for (size_t r = 0; r < device_busy_ms.size(); ++r) {
        device_busy_ms[r] = oracle.resource_busy_ms[r];
      }
      const auto obs = injector.attempt_step(step, 0);
      ASSERT_TRUE(obs.completed);
      EXPECT_TRUE(bytes_equal({oracle.makespan_ms}, {obs.makespan_ms}));
      EXPECT_TRUE(bytes_equal(device_busy_ms, obs.device_busy_ms));

      EXPECT_TRUE(bytes_equal({oracle.makespan_ms}, {run.steps[step].makespan_ms}));
      total_ms += oracle.makespan_ms;
    }
    EXPECT_TRUE(bytes_equal({total_ms}, {run.total_ms}));
  }
}

}  // namespace
}  // namespace heterog
