// daemon_mix: an in-process server::PlanServer on a Unix socket, driven
// closed-loop by PlanClient threads with a seeded request list — warm
// repeats (store reads), cold unique requests (store writes + fsync), short
// RL searches, deadline-degraded requests and a small share of hostile
// frames. Drives server and store; warm requests still pay profile, encode
// and the deployment compile/evaluate.
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/record_io.h"
#include "graph/training.h"
#include "models/models.h"
#include "planner.h"
#include "profiler/profiler.h"
#include "server/plan_client.h"
#include "server/plan_server.h"
#include "store/plan_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace heterog;
namespace fs = std::filesystem;

struct ModelSpec {
  const char* name;
  double batch_8gpu;
  double batch_12gpu;
};
const ModelSpec kModels[] = {
    {"mobilenet_v2", 192, 288},
    {"inception_v3", 192, 288},
    {"transformer", 720, 1080},
    {"vgg19", 192, 288},
};
const char* const kClusters[] = {"8gpu", "12gpu"};
const int kModelCount = static_cast<int>(std::size(kModels));
const int kClusterCount = static_cast<int>(std::size(kClusters));

// Request pools; a run draws from them, record mode covers them all.
constexpr int kWarmSeeds = 3;        // profiler seeds 1..3: 24 warm requests
constexpr int kColdSeedBase = 101;   // profiler seeds 101..116: 128 cold requests
constexpr int kColdSeeds = 16;
constexpr int kRlModels[] = {0, 2};  // mobilenet_v2 and transformer on 8gpu
constexpr int kRlSeeds = 4;          // x 4 seeds, 10 episodes
constexpr int kRlEpisodes = 10;
constexpr int kDegradedEpisodes = 40;     // modelled 40 x 5 ms = 200 ms ...
constexpr double kDegradedDeadlineMs = 50.0;  // ... over a 50 ms deadline

// Per run, at the nominal 20 seconds (scaled linearly with --seconds). The
// shares are chosen, not measured (see README.md): warm and degraded
// requests are five sixths of the valid ones, so p50 is the warm path; cold
// and RL requests are the other sixth, so p90 falls among the cold ones.
constexpr int kWarmRequests = 504;
constexpr int kColdRequests = 96;
constexpr int kRlRequests = 24;
constexpr int kDegradedRequests = 96;
constexpr int kHostileRequests = 30;
constexpr int kSetups = 5;
constexpr size_t kTimedSlices = 8;

enum class Class { kWarm, kCold, kRl, kDegraded, kMalformed, kOversized, kUnknownModel };

const char* class_name(Class c) {
  switch (c) {
    case Class::kWarm: return "warm";
    case Class::kCold: return "cold";
    case Class::kRl: return "rl";
    case Class::kDegraded: return "degraded";
    case Class::kMalformed: return "malformed";
    case Class::kOversized: return "oversized";
    case Class::kUnknownModel: return "unknown_model";
  }
  return "?";
}

bool is_valid(Class c) {
  return c == Class::kWarm || c == Class::kCold || c == Class::kRl || c == Class::kDegraded;
}

struct Request {
  Class cls = Class::kWarm;
  server::PlanRequest request;
  std::string raw;  // hostile frames: bytes sent verbatim
  std::string key;
};

std::string format_batch(double batch) { return std::to_string(static_cast<int>(batch)); }

Request plan_request(Class cls, int model, int cluster, int seed) {
  Request r;
  r.cls = cls;
  const ModelSpec& m = kModels[model];
  r.request.model = m.name;
  r.request.cluster = kClusters[cluster];
  r.request.batch = cluster == 0 ? m.batch_8gpu : m.batch_12gpu;
  r.request.seed = static_cast<uint64_t>(seed);
  if (cls == Class::kRl) r.request.episodes = kRlEpisodes;
  if (cls == Class::kDegraded) {
    r.request.episodes = kDegradedEpisodes;
    r.request.deadline_ms = kDegradedDeadlineMs;
  }
  r.key = std::string("daemon_mix/") + class_name(cls) + "/" + m.name + "@" +
          kClusters[cluster] + "/b" + format_batch(r.request.batch) + "/s" +
          std::to_string(seed);
  return r;
}

Request hostile_request(Class cls) {
  Request r;
  r.cls = cls;
  r.key = std::string("daemon_mix/") + class_name(cls);
  if (cls == Class::kUnknownModel) {
    r.request.model = "no_such_model";
    r.request.batch = 64;
    return r;
  }
  if (cls == Class::kMalformed) {
    server::PlanRequest valid;
    valid.model = "vgg19";
    valid.batch = 192;
    r.raw = frame_record(server::encode_request(valid));
    r.raw[r.raw.size() - 2] ^= 0x01;  // payload byte flip: CRC mismatch
  } else {
    r.raw = "rec 99999999 00000000\n";  // declared length over the cap
  }
  return r;
}

/// One exchange's outcome, filled by a client thread.
struct Outcome {
  bool transport_ok = false;
  std::string transport_error;
  server::PlanReply reply;
  double wall_ms = 0.0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Issues `requests` closed-loop from `clients` threads (each takes the next
/// request once its previous reply arrived). Returns the phase wall in ms.
double drive(const std::string& socket, const std::vector<Request>& requests, int clients,
             std::vector<Outcome>* outcomes) {
  outcomes->assign(requests.size(), Outcome{});
  std::atomic<size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      server::ClientOptions options;
      options.unix_path = socket;
      server::PlanClient client(options);
      for (size_t i = next++; i < requests.size(); i = next++) {
        const Request& req = requests[i];
        Outcome& out = (*outcomes)[i];
        out.start = Clock::now();
        out.transport_ok =
            req.raw.empty()
                ? client.exchange(req.request, &out.reply, &out.transport_error)
                : client.raw_exchange(req.raw, &out.reply, &out.transport_error);
        out.end = Clock::now();
        out.wall_ms = std::chrono::duration<double, std::milli>(out.end - out.start).count();
      }
    });
  }
  for (auto& t : threads) t.join();
  return ms_since(t0);
}

/// Checks one outcome against its request's expected reply; returns whether
/// it matched (a mismatch is recorded as a failed op).
bool check_outcome(Context& ctx, const Request& req, const Outcome& out) {
  if (!out.transport_ok) {
    ctx.result.fail(req.key + ": transport error: " + out.transport_error);
    return false;
  }
  using Status = server::PlanReply::Status;
  const server::PlanReply& reply = out.reply;
  bool expected = true;
  switch (req.cls) {
    case Class::kWarm:
    case Class::kCold:
    case Class::kRl:
      expected = reply.status == Status::kOk && !reply.degraded;
      break;
    case Class::kDegraded:
      expected = reply.status == Status::kOk && reply.degraded;
      break;
    case Class::kMalformed:
      expected = reply.status == Status::kRejected &&
                 reply.reject_reason == server::RejectReason::kMalformedFrame;
      break;
    case Class::kOversized:
      expected = reply.status == Status::kRejected &&
                 reply.reject_reason == server::RejectReason::kOversizedFrame;
      break;
    case Class::kUnknownModel:
      expected = reply.status == Status::kError;
      break;
  }
  if (!expected) {
    ctx.result.fail(req.key + ": unexpected reply type (status " +
                    std::to_string(static_cast<int>(reply.status)) + ")");
    return false;
  }
  return ctx.check(req.key, server::encode_reply(reply));
}

/// A server on its own thread, drained and checked on stop().
class Daemon {
 public:
  Daemon(const std::string& socket, const std::string& store_dir, int threads) {
    server::ServerOptions options;
    options.unix_path = socket;
    options.threads = threads;
    options.store_dir = store_dir;
    server_ = std::make_unique<server::PlanServer>(options);
    thread_ = std::thread([this] { server_->run(); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Graceful drain; returns the final stats.
  server::ServerStats stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    return server_->stats();
  }
  server::PlanServer& server() { return *server_; }

 private:
  std::unique_ptr<server::PlanServer> server_;
  std::thread thread_;
};

/// Daemon hygiene: nothing in flight, and every accepted connection ended as
/// exactly one ok reply, error reply, rejection or disconnect — and as many
/// of each as were sent.
void check_hygiene(Context& ctx, const std::string& phase, const server::ServerStats& s,
                   const std::vector<Request>& sent) {
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;
  uint64_t degraded = 0;
  for (const Request& r : sent) {
    if (is_valid(r.cls)) ++ok;
    if (r.cls == Class::kDegraded) ++degraded;
    if (r.cls == Class::kUnknownModel) ++errors;
    if (r.cls == Class::kMalformed || r.cls == Class::kOversized) ++rejected;
  }
  const bool balanced = s.accepted == s.replies_ok + s.replies_error + s.rejected + s.disconnects;
  if (s.in_flight != 0 || !balanced || s.replies_ok != ok || s.replies_error != errors ||
      s.rejected != rejected || s.degraded != degraded || s.disconnects != 0) {
    ctx.result.fail("daemon hygiene (" + phase + "): accepted=" + std::to_string(s.accepted) +
                    " ok=" + std::to_string(s.replies_ok) +
                    " error=" + std::to_string(s.replies_error) +
                    " rejected=" + std::to_string(s.rejected) +
                    " disconnects=" + std::to_string(s.disconnects) +
                    " degraded=" + std::to_string(s.degraded) +
                    " in_flight=" + std::to_string(s.in_flight));
  }
}

/// Best uniform-DP time for a request's (model, cluster, batch, seed).
double request_best_dp_ms(const server::PlanRequest& req) {
  models::ModelKind kind;
  int layers = 0;
  models::parse_model_name(req.model, &kind, &layers);
  const cluster::ClusterSpec cluster = *cluster::cluster_from_name(req.cluster);
  const graph::GraphDef training =
      graph::build_training_graph(models::build_forward(kind, layers, req.batch));
  const profiler::HardwareModel hardware(cluster);
  profiler::Profiler prof(hardware, req.seed);
  const auto costs = prof.profile(training);
  const agent::EncodedGraph encoded =
      agent::encode_graph(training, *costs, agent::AgentConfig{}.max_groups);
  return best_dp_ms(cluster, training, encoded.grouping);
}

int scaled(int nominal, int seconds) {
  return std::max(1, static_cast<int>(nominal * seconds / 20.0 + 0.5));
}

}  // namespace

void run_daemon_mix(Context& ctx) {
  const Options& o = ctx.options;
  Result& r = ctx.result;
  const int workers = std::max(1, o.threads / 2);
  const int clients = std::max(1, o.threads - workers);
  const std::string socket = o.work_dir + "/plan.sock";
  const std::string store_dir = o.work_dir + "/store";
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  r.config["server_threads"] = std::to_string(workers);
  r.config["client_threads"] = std::to_string(clients);
  r.config["store_fs"] = json_string(filesystem_type(store_dir));
  r.config["loop"] = json_string("closed");

  std::vector<Request> warm_set;
  std::vector<Request> rl_set;
  std::vector<Request> timed;
  if (o.record) {
    for (int m = 0; m < kModelCount; ++m) {
      for (int c = 0; c < kClusterCount; ++c) {
        for (int s = 1; s <= kWarmSeeds; ++s) {
          timed.push_back(plan_request(Class::kWarm, m, c, s));
          timed.push_back(plan_request(Class::kDegraded, m, c, s));
        }
        for (int s = 0; s < kColdSeeds; ++s) {
          timed.push_back(plan_request(Class::kCold, m, c, kColdSeedBase + s));
        }
      }
    }
    for (const int m : kRlModels) {
      for (int s = 1; s <= kRlSeeds; ++s) timed.push_back(plan_request(Class::kRl, m, 0, s));
    }
    for (Class c : {Class::kMalformed, Class::kOversized, Class::kUnknownModel}) {
      timed.push_back(hostile_request(c));
    }
  } else {
    // Stratified: every run sends the same warm and degraded requests (all
    // warm seeds of every (model, cluster) combination) and covers each
    // combination and both RL models equally often; the seed picks the cold
    // profiler seeds and RL seeds within each stratum, and the order.
    InputRng rng(o.seed);
    const int cold_per_combo =
        std::max(1, scaled(kColdRequests, o.seconds) / (kModelCount * kClusterCount));
    std::vector<Request> degraded_set;
    for (int m = 0; m < kModelCount; ++m) {
      for (int c = 0; c < kClusterCount; ++c) {
        for (int s = 1; s <= kWarmSeeds; ++s) {
          warm_set.push_back(plan_request(Class::kWarm, m, c, s));
          degraded_set.push_back(plan_request(Class::kDegraded, m, c, s));
        }
        for (const int s : sample_distinct(rng, kColdSeedBase, kColdSeeds, cold_per_combo)) {
          timed.push_back(plan_request(Class::kCold, m, c, s));
        }
      }
    }
    for (const int m : kRlModels) {
      rl_set.push_back(plan_request(Class::kRl, m, 0, 1 + rng.below(kRlSeeds)));
    }
    for (int i = 0; i < scaled(kWarmRequests, o.seconds); ++i) {
      timed.push_back(warm_set[static_cast<size_t>(i) % warm_set.size()]);
    }
    for (int i = 0; i < scaled(kRlRequests, o.seconds); ++i) {
      timed.push_back(rl_set[static_cast<size_t>(i) % rl_set.size()]);
    }
    for (int i = 0; i < scaled(kDegradedRequests, o.seconds); ++i) {
      timed.push_back(degraded_set[static_cast<size_t>(i) % degraded_set.size()]);
    }
    const Class hostile[] = {Class::kMalformed, Class::kOversized, Class::kUnknownModel};
    for (int i = 0; i < scaled(kHostileRequests, o.seconds); ++i) {
      timed.push_back(hostile_request(hostile[i % 3]));
    }
    rng.shuffle(timed);
  }
  for (const Request& req : timed) r.ops.push_back(req.key);

  // Pre-seed the store: a first daemon lifetime answers the warm and RL sets.
  std::vector<Outcome> outcomes;
  if (!o.record) {
    std::vector<Request> seed_requests = warm_set;
    seed_requests.insert(seed_requests.end(), rl_set.begin(), rl_set.end());
    Daemon daemon(socket, store_dir, workers);
    drive(socket, seed_requests, clients, &outcomes);
    for (size_t i = 0; i < seed_requests.size(); ++i) {
      check_outcome(ctx, seed_requests[i], outcomes[i]);
    }
    check_hygiene(ctx, "pre-seed", daemon.stop(), seed_requests);
  }

  // Set-up, repeated: start a daemon that reopens the pre-seeded store and
  // answers the warm set once. The last one serves the timed phase.
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < (o.record ? 1 : kSetups); ++rep) {
    if (daemon) check_hygiene(ctx, "setup", daemon->stop(), warm_set);
    daemon.reset();
    const double wall = probed_span(ctx, "setup", -1, -1, [&] {
      daemon = std::make_unique<Daemon>(socket, store_dir, workers);
      drive(socket, warm_set, clients, &outcomes);
    });
    r.setup_s.push_back(wall / 1000.0);
    for (size_t i = 0; i < warm_set.size(); ++i) check_outcome(ctx, warm_set[i], outcomes[i]);
  }

  // Timed phase, in slices with a speed probe before, between and after them.
  end_setup();
  const int phase = ctx.span_begin("timed_phase", -1);
  const auto loop_t0 = Clock::now();
  outcomes.assign(timed.size(), Outcome{});
  ctx.probe();
  for (size_t slice = 0; slice < kTimedSlices; ++slice) {
    const size_t begin = timed.size() * slice / kTimedSlices;
    const size_t end = timed.size() * (slice + 1) / kTimedSlices;
    const std::vector<Request> part(timed.begin() + static_cast<long>(begin),
                                    timed.begin() + static_cast<long>(end));
    std::vector<Outcome> part_outcomes;
    r.timed_phase_ms += drive(socket, part, clients, &part_outcomes);
    ctx.probe();
    std::move(part_outcomes.begin(), part_outcomes.end(),
              outcomes.begin() + static_cast<long>(begin));
  }
  ctx.span_end(phase);
  std::vector<Request> served = warm_set;
  served.insert(served.end(), timed.begin(), timed.end());
  const server::ServerStats stats = daemon->stop();
  check_hygiene(ctx, "timed", stats, served);
  const store::PlanStoreStats store_stats = daemon->server().plan_store()->stats();

  std::map<std::string, std::vector<double>> class_ms;
  std::vector<double> plan_iter_ms;
  std::vector<double> goodputs;
  std::vector<double> speedups;
  std::map<std::string, double> dp_by_request;
  for (size_t i = 0; i < timed.size(); ++i) {
    const Request& req = timed[i];
    const Outcome& out = outcomes[i];
    ++r.attempted;
    ctx.span_add("PlanClient::exchange", static_cast<int>(i), phase, out.start, out.end);
    if (!check_outcome(ctx, req, out) || !is_valid(req.cls)) continue;
    r.op_wall_ms.push_back(out.wall_ms);
    class_ms[class_name(req.cls)].push_back(out.wall_ms);
    if (ctx.traced() || o.record) continue;
    plan_iter_ms.push_back(out.reply.per_iteration_ms);
    goodputs.push_back(1000.0 / out.reply.per_iteration_ms);
    auto it = dp_by_request.find(req.key);
    if (it == dp_by_request.end()) {
      it = dp_by_request.emplace(req.key, request_best_dp_ms(req.request)).first;
    }
    if (it->second > 0.0) speedups.push_back(it->second / out.reply.per_iteration_ms);
  }

  if (ctx.traced()) {
    Layers& layers = ctx.layers;
    for (const auto& [cls, walls] : class_ms) {
      for (const double ms : walls) layers.sample("server.request_ms." + cls, ms);
    }
    layers.count("server.rejects.count", static_cast<double>(stats.rejected));
    layers.count("server.degraded.count", static_cast<double>(stats.degraded));
    layers.ratio_add("store.hit.ratio", static_cast<double>(store_stats.hits),
                     static_cast<double>(store_stats.hits + store_stats.misses));
    layers.count("store.puts.count", static_cast<double>(store_stats.puts));
    layers.count("store.fsyncs.count", static_cast<double>(store_stats.appends_flushed));
    daemon.reset();
    for (int rep = 0; rep < 3; ++rep) {
      layers.sample("store.open_ms", timed_span(ctx, "PlanStore::open", -1, -1, [&] {
                      store::PlanStoreOptions options;
                      options.dir = store_dir;
                      options.read_only = true;
                      store::PlanStore reopened(options);
                    }));
    }
    // The per-request planner prologue of the warm path, replayed.
    for (size_t i = 0; i < warm_set.size(); ++i) {
      const server::PlanRequest& req = warm_set[i].request;
      models::ModelKind kind;
      int model_layers = 0;
      models::parse_model_name(req.model, &kind, &model_layers);
      cluster::ClusterSpec cluster;
      layers.sample("cluster.generate_ms",
                    timed_span(ctx, "cluster_from_name", -1, -1,
                               [&] { cluster = *cluster::cluster_from_name(req.cluster); }));
      HeteroGConfig config;
      config.profiler_seed = req.seed;
      replay_planner(ctx, static_cast<int>(i),
                     [&] { return models::build_forward(kind, model_layers, req.batch); },
                     cluster, config, nullptr, ReplayScope{});
    }
  }
  r.loop_ms = ms_since(loop_t0);

  if (!ctx.traced() && !o.record) {
    add_timing_metrics(ctx);
    r.metric("plan_iter_ms_geomean", geomean(plan_iter_ms), "ms");
    r.metric("speedup_vs_dp", geomean(speedups), "x");
    r.metric("goodput_steps_per_sim_s", geomean(goodputs), "1/s");
  }
  daemon.reset();
  fs::remove_all(store_dir);
}

}  // namespace perfbench
