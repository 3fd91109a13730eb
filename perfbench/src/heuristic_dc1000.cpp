// heuristic_dc1000: each op is one heuristic-only get_runner for vgg19 at
// batch 2 x devices on a generated dc1000 cluster (the 1000-GPU planning
// gate). Drives profiler, compile, sched and sim at scale, plus memory; nn is
// absent and every candidate is unique, so nn or cache changes should move
// nothing here.
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "graph/training.h"
#include "models/models.h"
#include "planner.h"
#include "profiler/profiler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace heterog;

// The pool: generator seeds 1..4 x profiler seeds 1..16. Planning time
// differs by up to half between generated clusters, so every run plans the
// same four clusters; the run seed picks each op's profiler seed, which
// changes the profiled costs and with them the grouping and the plan.
constexpr int kClusters = 4;
constexpr int kProfilerSeeds = 16;
constexpr int kSetups = 5;
constexpr double kSecondsPerOp = 5.0;

struct Op {
  int generator_seed = 1;
  int profiler_seed = 1;
  std::string key;
};

Op make_op(int generator_seed, int profiler_seed) {
  return Op{generator_seed, profiler_seed,
            "heuristic_dc1000/gen" + std::to_string(generator_seed) + "/prof" +
                std::to_string(profiler_seed)};
}

cluster::ClusterSpec dc1000(int generator_seed) {
  cluster::TopoGenOptions options = *cluster::topo_preset("dc1000");
  options.seed = static_cast<uint64_t>(generator_seed);
  return cluster::generate_cluster(options);
}

ModelFn vgg19_for(const cluster::ClusterSpec& cluster) {
  const double batch = 2.0 * cluster.device_count();
  return [batch] { return models::build_forward(models::ModelKind::kVgg19, 0, batch); };
}

}  // namespace

void run_heuristic_dc1000(Context& ctx) {
  const Options& o = ctx.options;
  Result& r = ctx.result;

  std::vector<Op> ops;
  if (o.record) {
    for (int g = 1; g <= kClusters; ++g) {
      for (int p = 1; p <= kProfilerSeeds; ++p) ops.push_back(make_op(g, p));
    }
  } else {
    InputRng rng(o.seed);
    const int count = std::max(1, static_cast<int>(o.seconds / kSecondsPerOp + 0.5));
    for (int i = 0; i < count; ++i) {
      ops.push_back(make_op(1 + i % kClusters, 1 + rng.below(kProfilerSeeds)));
    }
    rng.shuffle(ops);
  }
  for (const Op& op : ops) r.ops.push_back(op.key);
  r.config["train_threads"] = std::to_string(o.threads);

  const auto op_config = [&](const Op& op) {
    HeteroGConfig config;
    config.search_with_rl = false;
    config.train.episodes = 0;
    config.train.threads = o.threads;
    config.profiler_seed = static_cast<uint64_t>(op.profiler_seed);
    return config;
  };

  // Set-up, repeated: generate the first op's cluster, build the training
  // graph and profile it — the inputs a planner needs before its first plan.
  // Single-threaded, so each repetition is pinned to one CPU in turn.
  for (int rep = 0; rep < (o.record ? 0 : kSetups); ++rep) {
    rotate_cpus(rep, 1);
    const double wall = probed_span(ctx, "setup", -1, -1, [&] {
      const cluster::ClusterSpec cluster = dc1000(ops.front().generator_seed);
      const graph::GraphDef training = graph::build_training_graph(vgg19_for(cluster)());
      const profiler::HardwareModel hardware(cluster);
      profiler::Profiler prof(hardware, op_config(ops.front()).profiler_seed);
      (void)prof.profile(training);
    });
    r.setup_s.push_back(wall / 1000.0);
  }

  end_setup();
  rotate_cpus(0, o.threads);
  std::vector<double> plan_iter_ms;
  std::vector<double> speedups;
  std::vector<double> goodputs;
  const auto loop_t0 = Clock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    const int index = static_cast<int>(i);
    const std::string& key = ops[i].key;
    ++r.attempted;

    const HeteroGConfig config = op_config(ops[i]);
    const int span = ctx.span_begin("op", index);
    cluster::ClusterSpec cluster;
    ctx.layers.sample("cluster.generate_ms",
                      timed_span(ctx, "generate_cluster", index, span,
                                 [&] { cluster = dc1000(ops[i].generator_seed); }));
    std::unique_ptr<DistRunner> runner;
    try {
      const double wall = probed_span(ctx, "get_runner", index, span, [&] {
        runner = std::make_unique<DistRunner>(get_runner(vgg19_for(cluster), cluster, config));
      });
      r.op_wall_ms.push_back(wall);
      r.timed_phase_ms += wall;
    } catch (const std::exception& e) {
      ctx.span_end(span);
      r.fail(key + ": " + e.what());
      continue;
    }
    ctx.span_end(span);
    if (!ctx.check(key, plan_output(*runner))) continue;

    if (ctx.traced()) {
      replay_planner(ctx, index, vgg19_for(cluster), cluster, config, runner.get(),
                     ReplayScope{false, true, true});
      continue;
    }
    if (o.record) continue;
    plan_iter_ms.push_back(runner->per_iteration_ms());
    goodputs.push_back(fault_free_goodput(*runner));
    const double dp = best_dp_ms(cluster, runner->training_graph(), runner->grouping());
    if (dp > 0.0) speedups.push_back(dp / runner->per_iteration_ms());
  }
  r.loop_ms = ms_since(loop_t0);

  if (!ctx.traced()) {
    add_timing_metrics(ctx);
    r.metric("plan_iter_ms_geomean", geomean(plan_iter_ms), "ms");
    r.metric("speedup_vs_dp", geomean(speedups), "x");
    r.metric("goodput_steps_per_sim_s", geomean(goodputs), "1/s");
  }
}

}  // namespace perfbench
