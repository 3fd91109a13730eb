#include "planner.h"

#include <algorithm>
#include <memory>

#include "agent/features.h"
#include "agent/policy.h"
#include "baselines/baselines.h"
#include "compile/compiler.h"
#include "graph/training.h"
#include "nn/layers.h"
#include "profiler/cost_provider.h"
#include "profiler/profiler.h"
#include "rl/trainer.h"
#include "sched/scheduler.h"
#include "sim/plan_eval.h"
#include "sim/simulator.h"
#include "strategy/serialize.h"

namespace perfbench {

using namespace heterog;

std::string plan_output(const DistRunner& runner) {
  return strategy::to_text(runner.strategy(), runner.cluster()) + "per_iteration_ms " +
         exact(runner.per_iteration_ms()) + "\nfeasible " +
         (runner.feasible() ? "1" : "0") + "\n";
}

double best_dp_ms(const cluster::ClusterSpec& cluster, const graph::GraphDef& training,
                  const strategy::Grouping& grouping) {
  const profiler::HardwareModel hardware(cluster);
  const profiler::GroundTruthCosts ground_truth(hardware);
  const baselines::Evaluator evaluator(ground_truth);
  double best = 0.0;
  for (const auto mode :
       {strategy::ReplicationMode::kEven, strategy::ReplicationMode::kProportional}) {
    for (const auto comm : {strategy::CommMethod::kPS, strategy::CommMethod::kAllReduce}) {
      const auto outcome = baselines::run_uniform_dp(evaluator, training, grouping, mode, comm);
      if (!outcome.oom && (best == 0.0 || outcome.time_ms < best)) best = outcome.time_ms;
    }
  }
  return best;
}

double fault_free_goodput(const DistRunner& runner) {
  constexpr int kSteps = 100;
  const RunStats stats = runner.run(kSteps);
  return stats.total_ms > 0.0 ? kSteps / (stats.total_ms / 1000.0) : 0.0;
}

void replay_planner(Context& ctx, int op, const ModelFn& model,
                    const cluster::ClusterSpec& cluster, const HeteroGConfig& config,
                    const DistRunner* runner, ReplayScope scope) {
  Layers& layers = ctx.layers;
  const int root = ctx.span_begin("replay", op);

  graph::GraphDef training;
  layers.sample("models.build_ms", timed_span(ctx, "models::build", op, root, [&] {
                  training = graph::build_training_graph(model());
                }));

  std::unique_ptr<profiler::HardwareModel> hardware;
  std::shared_ptr<const profiler::CostModel> costs;
  layers.sample("profiler.profile_ms", timed_span(ctx, "Profiler::profile", op, root, [&] {
                  hardware = std::make_unique<profiler::HardwareModel>(cluster);
                  profiler::Profiler prof(*hardware, config.profiler_seed);
                  costs = prof.profile(training);
                }));

  agent::EncodedGraph encoded;
  layers.sample("agent.encode_ms", timed_span(ctx, "agent::encode_graph", op, root, [&] {
                  encoded = agent::encode_graph(training, *costs, config.agent.max_groups);
                }));

  double search_ms = 0.0;
  double unit_forward_ms = 0.0;
  double unit_backward_ms = 0.0;
  if (scope.search) {
    const rl::SearchResult& reported = runner->search_result();
    rl::Trainer trainer(*costs, config.train);
    agent::PolicyNetwork policy(cluster.device_count(), config.agent);
    rl::SearchResult replayed;
    search_ms = timed_span(ctx, "Trainer::search", op, root,
                           [&] { replayed = trainer.search(policy, encoded); });
    layers.sample("rl.search_ms", search_ms);
    if (strategy::to_text(replayed.best_strategy, cluster) !=
        strategy::to_text(runner->strategy(), cluster)) {
      ctx.result.fail("op " + std::to_string(op) +
                      ": replayed Trainer::search found a different plan than get_runner");
    }

    // Unit costs of one policy update: a forward pass, then the tape's
    // backward sweep plus one Adam step, on a probe network.
    agent::PolicyNetwork probe(cluster.device_count(), config.agent);
    nn::AdamOptimizer adam(probe.params());
    std::vector<double> forward_ms;
    std::vector<double> backward_ms;
    for (int rep = 0; rep < 3; ++rep) {
      nn::Tape tape;
      agent::PolicyForward forward;
      forward_ms.push_back(timed_span(ctx, "PolicyNetwork::forward", op, root,
                                      [&] { forward = probe.forward(tape, encoded); }));
      const std::vector<int> actions = probe.greedy_actions(forward.logits.value());
      const nn::Var loss =
          tape.sum_all(tape.pick_per_row(tape.log_softmax_rows(forward.logits), actions));
      backward_ms.push_back(timed_span(ctx, "Tape::backward+AdamOptimizer::step", op, root,
                                       [&] {
                                         tape.backward(loss);
                                         adam.step();
                                       }));
    }
    unit_forward_ms = median(forward_ms);
    unit_backward_ms = median(backward_ms);
    layers.sample("agent.forward_ms", unit_forward_ms);
    layers.sample("nn.backward_ms", unit_backward_ms);
    layers.count("agent.forward.count", reported.episodes_run);
    layers.count("nn.updates.count", reported.episodes_run);
    layers.count("rl.episodes.count", reported.episodes_run);
    layers.count("rl.evals.count", static_cast<double>(reported.eval_cache_misses));
    layers.ratio_add("rl.eval_cache_hit.ratio", static_cast<double>(reported.eval_cache_hits),
                     static_cast<double>(reported.eval_cache_hits + reported.eval_cache_misses));
  }

  double unit_evaluate_ms = 0.0;
  if (scope.candidates) {
    rl::TrainConfig train = config.train;
    // As make_plan: only the heuristic-only path skips the unroll of OOM plans.
    if (!scope.search) train.skip_unroll_on_oom = true;
    const rl::Trainer trainer(*costs, train);
    std::vector<strategy::StrategyMap> candidates;
    timed_span(ctx, "Trainer::heuristic_candidates", op, root, [&] {
      candidates = trainer.heuristic_candidates(training, encoded.grouping);
    });
    sim::PlanEvalOptions options;
    options.compiler = train.compiler;
    options.skip_unroll_on_oom = train.skip_unroll_on_oom;
    sim::PlanEvalScratch scratch;
    std::vector<double> evaluate_ms;
    int feasible = 0;
    for (const auto& candidate : candidates) {
      sim::PlanEvaluation eval;
      evaluate_ms.push_back(timed_span(ctx, "sim::evaluate_plan", op, root, [&] {
        eval = sim::evaluate_plan(*costs, training, encoded.grouping, candidate, options,
                                  &scratch);
      }));
      if (!eval.oom) ++feasible;
    }
    unit_evaluate_ms = median(evaluate_ms);
    layers.sample("sim.evaluate_plan_ms", unit_evaluate_ms);
    layers.sample("sim.evaluate_plan_ms_max",
                  *std::max_element(evaluate_ms.begin(), evaluate_ms.end()));
    layers.ratio_add("sim.feasible.ratio", feasible, static_cast<double>(candidates.size()));
  }

  if (scope.search) {
    const rl::SearchResult& reported = runner->search_result();
    // What the layers above do not account for: sampling, reward
    // bookkeeping, OOM repair, polish and the engine's fan-out.
    const double threads = std::max(1, config.train.threads);
    const double accounted =
        reported.episodes_run * (unit_forward_ms + unit_backward_ms) +
        static_cast<double>(reported.eval_cache_misses) * unit_evaluate_ms / threads;
    layers.sample("rl.self_ms", std::max(0.0, search_ms - accounted));
  }

  if (scope.deploy) {
    const profiler::GroundTruthCosts ground_truth(*hardware);
    const compile::GraphCompiler compiler(ground_truth);
    std::unique_ptr<compile::CompileResult> compiled;
    layers.sample("compile.compile_ms", timed_span(ctx, "GraphCompiler::compile", op, root, [&] {
                    compiled = std::make_unique<compile::CompileResult>(
                        compiler.compile(training, runner->grouping(), runner->strategy()));
                  }));
    layers.count("compile.dist_nodes.count", compiled->graph.node_count());
    layers.sample("sched.rank_ms", timed_span(ctx, "sched::rank_priorities", op, root, [&] {
                    (void)sched::rank_priorities(compiled->graph);
                  }));
    layers.sample("sim.simulate_ms", timed_span(ctx, "sim::simulate", op, root, [&] {
                    (void)sim::simulate_iteration_ms(compiled->graph);
                  }));
  }
  ctx.span_end(root);
}

}  // namespace perfbench
