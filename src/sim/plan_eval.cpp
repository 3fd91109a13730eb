#include "sim/plan_eval.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "graph/training.h"
#include "sched/scheduler.h"
#include "sim/sim_core.h"

namespace heterog::sim {

namespace {

std::string comm_resource_name(const compile::ResourceModel& resources, int r) {
  const int devices = resources.device_count();
  if (resources.is_link_resource(r)) {
    const int pair = r - devices;
    return "link G" + std::to_string(pair / devices) + "->G" +
           std::to_string(pair % devices);
  }
  if (r == resources.nccl_resource()) return "nccl";
  if (resources.is_nic_resource(r)) {
    const int nic = r - resources.nccl_resource() - 1;
    return "nic host" + std::to_string(nic / 2) +
           (nic % 2 == 0 ? " egress" : " ingress");
  }
  return "resource " + std::to_string(r);
}

/// Per-device and per-comm-resource busy times plus the critical path of the
/// single-iteration schedule (max upward rank == longest dependency chain,
/// since transfers are explicit nodes and edges are free).
void collect_utilization(const compile::DistGraph& graph, const SimResult& single,
                         PlanEvaluation& eval) {
  const compile::ResourceModel& resources = graph.resources();
  eval.device_busy_ms.assign(static_cast<size_t>(resources.device_count()), 0.0);
  for (int r = 0; r < static_cast<int>(single.resource_busy_ms.size()); ++r) {
    const double busy = single.resource_busy_ms[static_cast<size_t>(r)];
    if (resources.is_gpu_resource(r)) {
      eval.device_busy_ms[static_cast<size_t>(r)] = busy;
    } else if (busy > 0.0) {
      eval.comm_busy.push_back({comm_resource_name(resources, r), busy});
    }
  }
  const std::vector<double> ranks = sched::compute_ranks(graph);
  eval.critical_path_ms =
      ranks.empty() ? 0.0 : *std::max_element(ranks.begin(), ranks.end());
}

/// Structural fingerprint of (graph, grouping, iterations) for the unroll
/// cache. Covers everything unroll_iterations / Grouping::unroll read except
/// op names — no evaluation result depends on node names (evaluate_plan
/// compiles with emit_node_names off).
uint64_t unroll_key(const graph::GraphDef& graph, const strategy::Grouping& grouping,
                    int iterations) {
  Hash64 h;
  h.mix(0x756e726f6c6cULL);  // "unroll" domain tag
  h.mix(static_cast<uint64_t>(iterations));
  h.mix(static_cast<uint64_t>(graph.op_count()));
  h.mix_double(graph.global_batch());
  for (const auto& op : graph.ops()) {
    h.mix(static_cast<uint64_t>(op.kind));
    h.mix(static_cast<uint64_t>(op.role));
    h.mix_double(op.flops_per_sample);
    h.mix_double(op.flops_fixed);
    h.mix_signed(op.out_bytes_per_sample);
    h.mix_signed(op.out_bytes_fixed);
    h.mix_signed(op.param_bytes);
    h.mix(op.batch_divisible ? 1 : 0);
    h.mix_signed(op.grad_of);
    h.mix_signed(op.mirror_of);
    const auto& succ = graph.successors(op.id);
    h.mix(succ.size());
    for (const auto s : succ) h.mix_signed(s);
  }
  for (const auto g : grouping.assignment()) h.mix_signed(g);
  return h.digest();
}

}  // namespace

std::shared_ptr<const PlanEvalScratch::Unrolled> PlanEvalScratch::unrolled(
    const graph::GraphDef& training_graph, const strategy::Grouping& grouping,
    int iterations) {
  const uint64_t key = unroll_key(training_graph, grouping, iterations);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [k, v] : entries_) {
      if (k == key) return v;
    }
  }
  auto built = std::make_shared<Unrolled>(
      Unrolled{graph::unroll_iterations(training_graph, iterations),
               strategy::Grouping::unroll(grouping, iterations)});
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;  // lost the build race; share the winner
  }
  if (entries_.size() >= 16) entries_.erase(entries_.begin());  // tiny LRU-ish cap
  entries_.emplace_back(key, built);
  return built;
}

PlanEvaluation evaluate_plan(const profiler::CostProvider& costs,
                             const graph::GraphDef& training_graph,
                             const strategy::Grouping& grouping,
                             const strategy::StrategyMap& strategy,
                             PlanEvalOptions options, PlanEvalScratch* scratch,
                             ThreadPool* pool) {
  check(options.unroll_iterations >= 1, "evaluate_plan: bad unroll");
  // Node names are write-only below this point (PlanEvaluation reports
  // resource names, never node names) — skip building them in the hot loop.
  compile::CompilerOptions compiler_options = options.compiler;
  compiler_options.emit_node_names = false;
  compiler_options.validate_output = false;  // asserted structure, not results
  const compile::GraphCompiler compiler(costs, compiler_options);

  const auto compiled = compiler.compile(training_graph, grouping, strategy);
  SimOptions sim_options;
  sim_options.policy = options.policy;
  sim_options.usable_memory_fraction = options.usable_memory_fraction;

  // Steady state: the unrolled training graph and its compile. The unroll is
  // strategy-independent, so the scratch (when provided) serves it from its
  // cache after the first plan of a (graph, grouping, k) triple.
  std::shared_ptr<const PlanEvalScratch::Unrolled> unrolled;
  std::optional<compile::CompileResult> unrolled_compiled;
  const auto compile_unrolled = [&] {
    const int k = options.unroll_iterations;
    if (scratch != nullptr) {
      unrolled = scratch->unrolled(training_graph, grouping, k);
    } else {
      unrolled = std::make_shared<const PlanEvalScratch::Unrolled>(
          PlanEvalScratch::Unrolled{graph::unroll_iterations(training_graph, k),
                                    strategy::Grouping::unroll(grouping, k)});
    }
    unrolled_compiled.emplace(
        compiler.compile(unrolled->graph, unrolled->grouping, strategy));
  };

  // The single-iteration runs (memory + breakdown + cold makespan) and the
  // unroll compile are independent pieces of work. With a pool they fan out;
  // without one they run in order on the caller. Every piece writes only its
  // own result, so the two are bit-identical. The rank tryouts share one
  // read-only CompactGraph, the snapshot in the calling thread's workspace
  // (run_core never writes a workspace's graph), and each simulates in the
  // workspace of the thread that runs it.
  //
  // For HeteroG's order policy the Scheduler is simulator-driven: it tries
  // the resource-chained ranks, the plain upward ranks and the FIFO order on
  // the compiled graph and enforces whichever finishes first (list
  // scheduling has no universally dominant priority rule; simulating the
  // candidates is exactly what the paper's Scheduler/Simulator pair is for).
  //
  // The chained-rank candidate usually wins the tryout, so it alone runs
  // with memory tracking on; the two challengers run without (tracking
  // writes memory arrays but never influences dispatch order, so their
  // makespans are unaffected). When a challenger does take the lead it is
  // re-simulated with tracking — simulation is deterministic, so the result
  // is bit-identical to having tracked it from the start, and the common
  // case skips two full memory passes per evaluation.
  const bool rank_policy = options.policy == sched::OrderPolicy::kRankPriority;
  SimWorkspace& caller_ws = thread_workspace();
  const CompactGraph& compact = caller_ws.graph;
  std::vector<compile::DistNodeId> topo;
  if (rank_policy) {
    validate_for_simulation(compiled.graph);
    caller_ws.graph.build(compiled.graph);
    topo = compiled.graph.topological_order();
  }
  SimOptions trial_options = sim_options;
  trial_options.track_memory = false;
  SimOptions fifo_options = sim_options;
  fifo_options.policy = sched::OrderPolicy::kFifo;
  SimOptions fifo_trial = fifo_options;
  fifo_trial.track_memory = false;
  const std::vector<double> zeros(
      rank_policy ? static_cast<size_t>(compiled.graph.node_count()) : 0, 0.0);
  std::vector<double> plain_ranks;
  SimResult single, plain, fifo;

  std::vector<std::function<void()>> pieces;
  if (rank_policy) {
    pieces.emplace_back([&] {
      single = run_core(compact, sched::rank_priorities(compiled.graph, topo),
                        sim_options, thread_workspace());
    });
    pieces.emplace_back([&] {
      plain_ranks = sched::compute_ranks(compiled.graph, topo, {});
      plain = run_core(compact, plain_ranks, trial_options, thread_workspace());
    });
    pieces.emplace_back(
        [&] { fifo = run_core(compact, zeros, fifo_trial, thread_workspace()); });
  } else {
    pieces.emplace_back(
        [&] { single = evaluate(compiled.graph, costs.cluster(), sim_options); });
  }
  // An OOM plan under skip_unroll_on_oom never reads the unroll, so it is
  // compiled after the OOM check instead.
  if (options.unroll_iterations > 1 && !options.skip_unroll_on_oom) {
    pieces.emplace_back(compile_unrolled);
  }
  if (pool != nullptr) {
    pool->parallel_for(pieces.size(), [&](size_t i) { pieces[i](); });
  } else {
    for (const auto& piece : pieces) piece();
  }

  bool chained_rank_won = true;
  if (rank_policy) {
    bool rerun_winner = false;
    if (plain.makespan_ms < single.makespan_ms) {
      single = std::move(plain);
      chained_rank_won = false;
      rerun_winner = true;
    }
    bool fifo_won = false;
    if (fifo.makespan_ms < single.makespan_ms) {
      single = std::move(fifo);
      sim_options.policy = sched::OrderPolicy::kFifo;  // carry into the unroll
      fifo_won = true;
      rerun_winner = true;
    }
    if (rerun_winner && sim_options.track_memory) {
      single = fifo_won ? run_core(compact, zeros, fifo_options, caller_ws)
                        : run_core(compact, plain_ranks, sim_options, caller_ws);
    }
    apply_oom_check(single, costs.cluster(), options.usable_memory_fraction);
  }

  PlanEvaluation eval;
  eval.cold_iteration_ms = single.makespan_ms;
  eval.computation_ms = single.computation_time_ms;
  eval.communication_ms = single.communication_time_ms;
  eval.oom = single.oom;
  eval.peak_memory_bytes = single.peak_memory_bytes;
  eval.oom_devices = single.oom_devices;
  if (options.collect_utilization) collect_utilization(compiled.graph, single, eval);

  if (options.unroll_iterations == 1 ||
      (options.skip_unroll_on_oom && eval.oom)) {
    eval.per_iteration_ms = single.makespan_ms;
    return eval;
  }

  // Steady state: difference out the pipeline fill.
  if (!unrolled_compiled) compile_unrolled();
  const compile::DistGraph& steady_graph = unrolled_compiled->graph;
  SimOptions steady_options = sim_options;
  steady_options.track_memory = false;
  std::vector<double> steady_priorities;
  if (steady_options.policy == sched::OrderPolicy::kRankPriority) {
    const auto steady_topo = steady_graph.topological_order();
    steady_priorities = chained_rank_won
                            ? sched::rank_priorities(steady_graph, steady_topo)
                            : sched::compute_ranks(steady_graph, steady_topo, {});
  } else {
    steady_priorities.assign(static_cast<size_t>(steady_graph.node_count()), 0.0);
  }
  validate_for_simulation(steady_graph);
  caller_ws.graph.build(steady_graph);
  const double t_k =
      run_core(caller_ws.graph, steady_priorities, steady_options, caller_ws).makespan_ms;
  eval.per_iteration_ms =
      (t_k - single.makespan_ms) / static_cast<double>(options.unroll_iterations - 1);
  // Guard against degenerate overlap estimates (per-iteration time can never
  // exceed the cold makespan nor be non-positive).
  if (eval.per_iteration_ms <= 0.0 || eval.per_iteration_ms > single.makespan_ms) {
    eval.per_iteration_ms = single.makespan_ms;
  }
  return eval;
}

}  // namespace heterog::sim
