// chaos_pod64: each op is one fault-aware DistRunner::run(steps, plan, ckpt)
// on generated pod64 under a seeded topology-aware chaos schedule, with
// online health monitoring and checkpoints to a fresh directory. The only
// workload that drives faults, health, the fault-aware simulator, re-planning
// and ckpt.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "cluster/topology.h"
#include "faults/chaos.h"
#include "models/models.h"
#include "planner.h"
#include "sim/fault_sim.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace heterog;
namespace fs = std::filesystem;

constexpr int kChaosSeedPool = 256;  // chaos seeds 1..256 form the pool
constexpr int kSteps = 40;
constexpr int kCheckpointEvery = 10;
constexpr int kSetups = 5;
constexpr double kOpsPerSecond = 2.5;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The chaos run's checked output: the exact per-step times, the run's
/// recovery outcome and the final journal's bytes.
std::string run_output(const RunStats& stats, const std::string& journal) {
  std::string out;
  for (const double ms : stats.step_ms) out += exact(ms) + "\n";
  out += "total_ms " + exact(stats.total_ms) + "\nretries " +
         std::to_string(stats.transient_retries) + "\nrecoveries " +
         std::to_string(stats.recoveries.size()) + "\ncompleted " +
         (stats.completed ? "1" : "0") + "\n";
  return out + journal;
}

faults::FaultPlan chaos_plan(const cluster::ClusterSpec& cluster, int seed) {
  faults::ChaosOptions chaos;
  chaos.seed = static_cast<uint64_t>(seed);
  chaos.steps = kSteps;
  chaos.device_count = cluster.device_count();
  return faults::make_chaos_plan(cluster, chaos);
}

/// The run's chaos seeds: a fixed core (seeds 1..core) that every run
/// repeats, plus seed-drawn schedules from the rest of the pool, in seeded
/// order. Chaos schedules differ wildly in cost (0 to 3 re-plans; 15 to
/// 850 ms per op), so a fully drawn list made the op-wall median of a run
/// depend on the draw more than on the code; the drawn share keeps the
/// simulated metrics seed-dependent without dominating them.
std::vector<int> run_seeds(uint64_t run_seed, int ops) {
  const int core = ops * 9 / 10;
  std::vector<int> seeds;
  for (int s = 1; s <= core; ++s) seeds.push_back(s);
  InputRng rng(run_seed);
  for (const int s : sample_distinct(rng, core + 1, kChaosSeedPool - core, ops - core)) {
    seeds.push_back(s);
  }
  rng.shuffle(seeds);
  return seeds;
}

}  // namespace

void run_chaos_pod64(Context& ctx) {
  const Options& o = ctx.options;
  Result& r = ctx.result;

  std::vector<int> seeds;
  if (o.record) {
    for (int s = 1; s <= kChaosSeedPool; ++s) seeds.push_back(s);
  } else {
    const int ops = std::max(1, static_cast<int>(o.seconds * kOpsPerSecond + 0.5));
    seeds = run_seeds(o.seed, ops);
  }
  for (const int s : seeds) r.ops.push_back("chaos_pod64/chaos" + std::to_string(s));

  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.episodes = 0;
  config.health.enabled = true;
  config.fault_handling.deterministic_wall_times = true;
  const ModelFn model = [] {
    return models::build_forward(models::ModelKind::kVgg19, 0, 2.0 * 64);
  };
  const std::string ckpt_root = o.work_dir + "/ckpt";
  r.config["steps"] = std::to_string(kSteps);
  r.config["checkpoint_every"] = std::to_string(kCheckpointEvery);
  r.config["train_threads"] = std::to_string(config.train.threads);
  fs::create_directories(ckpt_root);
  r.config["checkpoint_fs"] = json_string(filesystem_type(ckpt_root));

  // Set-up, repeated: generate pod64 and make the initial deployment.
  cluster::ClusterSpec cluster;
  std::unique_ptr<DistRunner> runner;
  for (int rep = 0; rep < kSetups; ++rep) {
    rotate_cpus(rep, 1);
    const double wall = probed_span(ctx, "setup", -1, -1, [&] {
      cluster = cluster::generate_cluster(*cluster::topo_preset("pod64"));
      runner = std::make_unique<DistRunner>(get_runner(model, cluster, config));
    });
    r.setup_s.push_back(wall / 1000.0);
  }
  if (!ctx.check("chaos_pod64/deployment", plan_output(*runner))) return;
  if (ctx.traced()) {
    ctx.layers.sample("cluster.generate_ms", timed_span(ctx, "generate_cluster", -1, -1, [&] {
                        (void)cluster::generate_cluster(*cluster::topo_preset("pod64"));
                      }));
    ctx.layers.sample("models.build_ms", timed_span(ctx, "models::build", -1, -1,
                                                    [&] { (void)model(); }));
  }

  end_setup();
  std::vector<double> plan_iter_ms;
  std::vector<double> goodputs;
  const auto loop_t0 = Clock::now();
  for (size_t i = 0; i < seeds.size(); ++i) {
    const int index = static_cast<int>(i);
    const std::string& key = r.ops[i];
    ++r.attempted;

    const faults::FaultPlan plan = chaos_plan(cluster, seeds[i]);
    ckpt::CheckpointOptions ckpt;
    ckpt.dir = ckpt_root + "/op" + std::to_string(i);
    ckpt.every = kCheckpointEvery;
    int saves = 0;
    if (ctx.traced()) ckpt.after_checkpoint = [&saves](int, const std::string&) { ++saves; };

    rotate_cpus(index, 1);
    const int span = ctx.span_begin("op", index);
    RunStats stats;
    try {
      const double wall = probed_span(ctx, "DistRunner::run", index, span,
                                      [&] { stats = runner->run(kSteps, plan, ckpt); });
      r.op_wall_ms.push_back(wall);
      r.timed_phase_ms += wall;
    } catch (const std::exception& e) {
      ctx.span_end(span);
      r.fail(key + ": " + e.what());
      continue;
    }
    ctx.span_end(span);
    const std::string journal = read_file(ckpt.journal_path());
    const bool ok = ctx.check(key, run_output(stats, journal));

    if (ok && ctx.traced()) {
      Layers& layers = ctx.layers;
      const int replay = ctx.span_begin("replay", index);
      const double resim_ms = timed_span(ctx, "sim::simulate_with_faults", index, replay, [&] {
        (void)sim::simulate_with_faults(runner->dist_graph(), runner->cluster(), plan, kSteps);
      });
      const ckpt::RunJournal loaded = ckpt::load_journal(ckpt.journal_path());
      const double save_ms = timed_span(ctx, "ckpt::save_journal", index, replay, [&] {
        (void)ckpt::save_journal(ckpt.dir + "/replay.heterog", loaded);
      });
      ctx.span_end(replay);
      const double run_ms = r.op_wall_ms.back();
      layers.sample("sim.fault_resim_ms", resim_ms);
      layers.sample("ckpt.save_ms", save_ms);
      layers.sample("core.run_ms", run_ms);
      layers.sample("core.self_ms", std::max(0.0, run_ms - resim_ms - saves * save_ms));
      layers.count("ckpt.saves.count", saves);
      layers.count("core.replans.count", static_cast<double>(stats.recoveries.size()));
      int steps_lost = 0;
      for (const auto& recovery : stats.recoveries) steps_lost += recovery.steps_lost;
      layers.count("core.steps_lost.count", steps_lost);
      layers.count("health.retries.count", stats.transient_retries);
      layers.count("health.detection_overhead_ms", stats.detection_overhead_ms);
    }
    fs::remove_all(ckpt.dir);
    if (!ok || ctx.traced() || o.record) continue;

    // The deployed plan at the end of the run: the last re-plan's, if any.
    plan_iter_ms.push_back(stats.recoveries.empty()
                               ? runner->per_iteration_ms()
                               : stats.recoveries.back().post_fault_iteration_ms);
    goodputs.push_back(static_cast<double>(stats.step_ms.size()) / (stats.total_ms / 1000.0));
  }
  r.loop_ms = ms_since(loop_t0);

  if (!ctx.traced() && !o.record) {
    add_timing_metrics(ctx);
    r.metric("plan_iter_ms_geomean", geomean(plan_iter_ms), "ms");
    const double dp =
        best_dp_ms(cluster, runner->training_graph(), runner->grouping());
    r.metric("speedup_vs_dp", dp > 0.0 ? dp / runner->per_iteration_ms() : 0.0, "x");
    r.metric("goodput_steps_per_sim_s", geomean(goodputs), "1/s");
  }
}

}  // namespace perfbench
