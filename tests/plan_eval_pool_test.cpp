// sim::evaluate_plan with a ThreadPool must equal the serial evaluation in
// every field of PlanEvaluation, whichever single-iteration tryout wins
// (chained ranks, plain ranks, FIFO — the last two take the re-run branch)
// and under every option that changes which pieces run: skip_unroll_on_oom
// on a feasible and an OOM plan, unroll_iterations = 1 and the FIFO policy.
//
// Part of the `eval` binary, so it runs under -DHETEROG_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "models/models.h"
#include "sim/plan_eval.h"
#include "test_util.h"

namespace heterog::sim {
namespace {

using strategy::Action;

enum class Winner { kChainedRank, kPlainRank, kFifo };

/// Which single-iteration tryout evaluate_plan enforces for this plan,
/// recomputed from the three simulations it compares.
Winner tryout_winner(const compile::DistGraph& graph) {
  SimOptions options;
  options.track_memory = false;
  const Simulator rank_sim(options);
  const auto topo = graph.topological_order();
  const auto makespan = [&](const std::vector<double>& priorities) {
    return rank_sim.run_with_priorities(graph, priorities).makespan_ms;
  };
  const double chained = makespan(sched::rank_priorities(graph, topo));
  const double plain = makespan(sched::compute_ranks(graph, topo, {}));
  options.policy = sched::OrderPolicy::kFifo;
  const double fifo = Simulator(options).run(graph).makespan_ms;
  Winner winner = Winner::kChainedRank;
  double best = chained;
  if (plain < best) {
    winner = Winner::kPlainRank;
    best = plain;
  }
  if (fifo < best) winner = Winner::kFifo;
  return winner;
}

void expect_identical(const PlanEvaluation& pooled, const PlanEvaluation& serial,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(pooled.per_iteration_ms, serial.per_iteration_ms);
  EXPECT_EQ(pooled.cold_iteration_ms, serial.cold_iteration_ms);
  EXPECT_EQ(pooled.computation_ms, serial.computation_ms);
  EXPECT_EQ(pooled.communication_ms, serial.communication_ms);
  EXPECT_EQ(pooled.oom, serial.oom);
  EXPECT_EQ(pooled.peak_memory_bytes, serial.peak_memory_bytes);
  EXPECT_EQ(pooled.oom_devices, serial.oom_devices);
  EXPECT_EQ(pooled.device_busy_ms, serial.device_busy_ms);
  ASSERT_EQ(pooled.comm_busy.size(), serial.comm_busy.size());
  for (size_t i = 0; i < serial.comm_busy.size(); ++i) {
    EXPECT_EQ(pooled.comm_busy[i].resource, serial.comm_busy[i].resource);
    EXPECT_EQ(pooled.comm_busy[i].busy_ms, serial.comm_busy[i].busy_ms);
  }
  EXPECT_EQ(pooled.critical_path_ms, serial.critical_path_ms);
}

class PooledPlanEval : public ::testing::Test {
 protected:
  heterog::testing::TestRig rig_{cluster::make_paper_testbed_8gpu()};
  graph::GraphDef graph_ =
      models::build_training(models::ModelKind::kMobileNetV2, 0, 96.0);
  strategy::Grouping grouping_ = strategy::Grouping::build(graph_, *rig_.costs, 16);
  ThreadPool pool_{4};

  strategy::StrategyMap uniform(const strategy::Grouping& grouping, int action) const {
    return strategy::StrategyMap::uniform(grouping.group_count(),
                                          Action::from_index(action, 8));
  }
};

TEST_F(PooledPlanEval, EveryTryoutWinnerMatchesSerial) {
  PlanEvalOptions options;
  options.collect_utilization = true;
  PlanEvalScratch scratch;
  bool seen[3] = {false, false, false};
  for (int idx = 0; idx < Action::action_count(8); ++idx) {
    const auto map = uniform(grouping_, idx);
    const Winner winner =
        tryout_winner(rig_.compiler->compile(graph_, grouping_, map).graph);
    seen[static_cast<int>(winner)] = true;
    const std::string what = "action " + std::to_string(idx) + ", tryout winner " +
                             std::to_string(static_cast<int>(winner));
    const PlanEvaluation serial =
        evaluate_plan(*rig_.costs, graph_, grouping_, map, options);
    expect_identical(
        evaluate_plan(*rig_.costs, graph_, grouping_, map, options, nullptr, &pool_),
        serial, what);
    expect_identical(
        evaluate_plan(*rig_.costs, graph_, grouping_, map, options, &scratch, &pool_),
        serial, what + ", with scratch");
  }
  // The sweep must reach the re-run branch for both challengers.
  EXPECT_TRUE(seen[static_cast<int>(Winner::kChainedRank)]);
  EXPECT_TRUE(seen[static_cast<int>(Winner::kPlainRank)]);
  EXPECT_TRUE(seen[static_cast<int>(Winner::kFifo)]);
}

TEST_F(PooledPlanEval, OptionVariantsMatchSerial) {
  std::vector<std::pair<std::string, PlanEvalOptions>> variants;
  PlanEvalOptions skip;
  skip.skip_unroll_on_oom = true;
  variants.emplace_back("skip_unroll_on_oom", skip);
  PlanEvalOptions single;
  single.unroll_iterations = 1;
  variants.emplace_back("unroll_iterations=1", single);
  PlanEvalOptions fifo;
  fifo.policy = sched::OrderPolicy::kFifo;
  fifo.collect_utilization = true;
  variants.emplace_back("fifo policy", fifo);
  // One action per tryout winner on mobilenet_v2 (chained, FIFO, plain).
  for (const auto& [name, options] : variants) {
    for (const int idx : {0, 6, 9}) {
      const auto map = uniform(grouping_, idx);
      expect_identical(
          evaluate_plan(*rig_.costs, graph_, grouping_, map, options, nullptr, &pool_),
          evaluate_plan(*rig_.costs, graph_, grouping_, map, options),
          name + ", action " + std::to_string(idx));
    }
  }

  // An OOM plan, where skip_unroll_on_oom drops the unroll compile.
  const auto chain = heterog::testing::make_oversized_chain_training_graph();
  const auto grouping = strategy::Grouping::build(chain, *rig_.costs, 12);
  const auto all_on_one = strategy::StrategyMap::uniform(grouping.group_count(),
                                                         Action::mp(2));
  for (const bool skip_unroll : {true, false}) {
    PlanEvalOptions options;
    options.skip_unroll_on_oom = skip_unroll;
    const PlanEvaluation serial =
        evaluate_plan(*rig_.costs, chain, grouping, all_on_one, options);
    ASSERT_TRUE(serial.oom);
    expect_identical(
        evaluate_plan(*rig_.costs, chain, grouping, all_on_one, options, nullptr, &pool_),
        serial, std::string("oom plan, skip_unroll_on_oom=") + (skip_unroll ? "1" : "0"));
  }
}

}  // namespace
}  // namespace heterog::sim
