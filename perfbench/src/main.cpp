// Benchmark binary: runs one workload once and prints one JSON object — the
// run's ops, failures, metrics and configuration — as its last line.
// perfbench/run.py builds this binary, runs it and reduces the object to
// the benchmark's result line.
//
//   perfbench --workload search_rl --seed 3 --seconds 20 --trace 0
//             --work-dir .bench_work/x --reference perfbench/reference.txt
//   perfbench --workload chaos_pod64 --record 1 ...   # print reference lines
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "common/log.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds N "
               "--trace 0|1 --work-dir DIR [--out-dir DIR] [--reference FILE] "
               "[--record 0|1]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string result_json(const Context& ctx) {
  const Result& r = ctx.result;
  std::string out = "{\"workload\":" + json_string(ctx.options.workload) +
                    ",\"seed\":" + std::to_string(ctx.options.seed) +
                    ",\"trace\":" + (ctx.options.trace ? "1" : "0") +
                    ",\"correct\":" + (r.failed == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    out += std::string(first ? "" : ",") + json_string(name) +
           ":{\"value\":" + format_number(metric.value) + ",\"unit\":" +
           json_string(metric.unit) + "}";
    first = false;
  }
  out += "},\"failures\":" + json_string_list(r.failures) + ",\"config\":{";
  first = true;
  for (const auto& [name, value] : r.config) {
    out += std::string(first ? "" : ",") + json_string(name) + ":" + value;
    first = false;
  }
  out += "},\"ops\":" + json_string_list(r.ops);
  std::vector<double> probe_compute_ms;
  std::vector<double> probe_memory_ms;
  for (const Probe& p : r.probes) {
    probe_compute_ms.push_back(p.compute_ms);
    probe_memory_ms.push_back(p.memory_ms);
  }
  const std::pair<const char*, const std::vector<double>*> lists[] = {
      {"op_wall_ms", &r.op_wall_ms},
      {"setup_s", &r.setup_s},
      {"probe_compute_ms", &probe_compute_ms},
      {"probe_memory_ms", &probe_memory_ms}};
  for (const auto& [name, values] : lists) {
    out += std::string(",") + json_string(name) + ":[";
    for (size_t i = 0; i < values->size(); ++i) {
      if (i > 0) out += ",";
      out += format_number((*values)[i]);
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return usage(("unexpected argument " + flag).c_str());
    args[flag.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("flag without a value");

  Context ctx;
  Options& o = ctx.options;
  try {
    o.workload = args.at("workload");
    o.seed = std::stoull(args.at("seed"));
    o.seconds = std::stoi(args.at("seconds"));
    o.trace = args.at("trace") == "1";
    o.work_dir = args.at("work-dir");
  } catch (const std::exception&) {
    return usage("missing or malformed required flag");
  }
  o.out_dir = args.count("out-dir") ? args["out-dir"] : o.work_dir;
  o.reference_path = args.count("reference") ? args["reference"] : "";
  o.record = args.count("record") && args["record"] == "1";
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  o.threads = std::min(nproc, 4);
  if (o.seconds < 1) return usage("--seconds must be >= 1");

  const std::map<std::string, std::function<void(Context&)>> workloads = {
      {"search_rl", run_search_rl},
      {"heuristic_dc1000", run_heuristic_dc1000},
      {"daemon_mix", run_daemon_mix},
      {"chaos_pod64", run_chaos_pod64},
  };
  const auto workload = workloads.find(o.workload);
  if (workload == workloads.end()) return usage(("unknown workload " + o.workload).c_str());

  heterog::set_log_level(heterog::LogLevel::kWarn);
  std::filesystem::create_directories(o.work_dir);
  std::filesystem::create_directories(o.out_dir);
  if (!o.record) ctx.reference.load(o.reference_path);
  if (o.trace) ctx.trace = std::make_unique<Trace>();

  Result& r = ctx.result;
  r.config["seed"] = std::to_string(o.seed);
  r.config["seconds"] = std::to_string(o.seconds);
  r.config["threads"] = std::to_string(o.threads);
  r.config["nproc"] = std::to_string(nproc);
  r.config["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  r.config["compiler"] = json_string(__VERSION__);
  r.config["work_dir_fs"] = json_string(filesystem_type(o.work_dir));

  try {
    workload->second(ctx);
  } catch (const std::exception& e) {
    r.fail(std::string("workload aborted: ") + e.what());
  }
  if (r.attempted == 0) r.fail("no op was attempted");

  if (o.record) {
    for (const std::string& line : r.recorded) std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return r.failed == 0 ? 0 : 1;
  }
  if (ctx.traced()) {
    for (const auto& [name, value] : ctx.layers.reduce()) {
      const bool count = name.size() > 6 && name.compare(name.size() - 6, 6, ".count") == 0;
      const bool ratio = name.size() > 6 && name.compare(name.size() - 6, 6, ".ratio") == 0;
      r.metric(name, value, count ? "count" : ratio ? "ratio" : "ms");
    }
    const double op_ms = r.timed_phase_ms;
    r.metric("obs.trace_overhead.ratio", op_ms > 0.0 ? r.loop_ms / op_ms : 0.0, "ratio");
    const std::string trace_path = o.out_dir + "/trace_" + o.workload + "_seed" +
                                   std::to_string(o.seed) + ".jsonl";
    if (!ctx.trace->write(trace_path)) r.fail("cannot write " + trace_path);
    r.config["trace_file"] = json_string(trace_path);
  } else {
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::printf("%s\n", result_json(ctx).c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}
