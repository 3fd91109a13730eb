// Shared plumbing of the benchmark binary: seeded input generation, the
// reference table every op is checked against, in-memory trace spans, and
// the per-run result (ops, metrics, configuration) printed as JSON.
//
// Nothing here calls into the planner; the workload files do that.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "speed.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Most load threads the process may run: planner workers plus, for
  /// daemon_mix, client threads. min(4, nproc).
  int threads = 1;
  /// Scratch directory (stores, checkpoints, sockets); relative to the
  /// checkout so the socket path stays short.
  std::string work_dir;
  /// Where traced runs write their spans.
  std::string out_dir;
  /// Reference table (one "key hash" line per pool input).
  std::string reference_path;
  /// Record mode: run every input of the workload's pool once and print its
  /// reference line instead of checking it.
  bool record = false;
};

/// Deterministic generator for benchmark inputs (splitmix64). Kept apart
/// from the program's own RNG so input generation never depends on it.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  int below(int n);
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<size_t>(below(static_cast<int>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

/// `n` distinct values from [first, first + pool), in draw order.
std::vector<int> sample_distinct(InputRng& rng, int first, int pool, int n);

/// FNV-1a over bytes; the reference fingerprint of an op's output.
uint64_t fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(uint64_t value);
/// Exact text of a double ("%a"), for hashing simulated values bit for bit.
std::string exact(double value);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

/// key -> expected output hash, loaded from the reference file.
class Reference {
 public:
  /// Missing file = empty table (every check then fails, naming the key).
  void load(const std::string& path);
  /// Expected hash of `key`, or empty when the key is not in the table.
  std::string expected(const std::string& key) const;

 private:
  std::map<std::string, std::string> table_;
};

/// In-memory spans of a traced run, written out once at the end.
class Trace {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    int op = -1;  // op index the span belongs to (-1 = set-up)
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  Trace() : origin_(Clock::now()) {}
  int begin(std::string name, int op, int parent);
  /// Records an already-finished span (e.g. timed on another thread).
  void add(std::string name, int op, int parent, Clock::time_point start,
           Clock::time_point end);
  /// Ends span `id`; returns its duration in ms.
  double end(int id);
  /// JSON lines, one span each. False if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer samples of a traced run, reduced by metric name: `.count`
/// metrics are summed, `_max` metrics take the maximum, `.ratio` metrics are
/// summed numerators over summed denominators, everything else is the median
/// of its samples.
class Layers {
 public:
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }
  void count(const std::string& name, double delta) { counts_[name] += delta; }
  void ratio_add(const std::string& name, double num, double den) {
    ratios_[name].first += num;
    ratios_[name].second += den;
  }
  /// name -> reduced value.
  std::map<std::string, double> reduce() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
  std::map<std::string, std::pair<double, double>> ratios_;
};

/// Everything one run reports.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;     // one line per failed op
  std::vector<double> op_wall_ms;        // timed (valid) ops only
  double timed_phase_ms = 0.0;           // wall of the timed phase
  double loop_ms = 0.0;  // wall of the op phase incl. checks and trace replays
  std::vector<double> setup_s;           // one sample per set-up repetition
  std::vector<Probe> probes;  // every speed probe of the run (speed.h)
  std::map<std::string, Metric> metrics;
  /// Configuration capture: JSON values keyed by name.
  std::map<std::string, std::string> config;
  std::vector<std::string> ops;          // the op list, in the order run
  std::vector<std::string> recorded;     // record mode: "key hash" lines

  void fail(const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// The state a workload runs with.
struct Context {
  Options options;
  Reference reference;
  Result result;
  Layers layers;
  std::unique_ptr<Trace> trace;  // null on untraced runs

  bool traced() const { return trace != nullptr; }

  /// Compares an op's output fingerprint with the reference table (or
  /// records it in record mode). A mismatch is a failed op; returns whether
  /// the output matched.
  bool check(const std::string& key, const std::string& output);

  /// Starts a span (no-op on untraced runs; returns -1).
  int span_begin(const std::string& name, int op, int parent = -1);
  /// Ends a span; returns its duration in ms (0 on untraced runs).
  double span_end(int id);
  /// Takes a speed probe (speed.h) on the calling thread's CPUs. Untraced
  /// runs only: per-layer metrics are not corrected, and probes would count
  /// as tracing overhead.
  void probe() {
    if (!trace) result.probes.push_back(speed_probe());
  }

  /// Records a finished span (no-op on untraced runs).
  void span_add(const std::string& name, int op, int parent, Clock::time_point start,
                Clock::time_point end) {
    if (trace) trace->add(name, op, parent, start, end);
  }
};

/// Times `body`; on traced runs also records it as a span.
template <typename F>
double timed_span(Context& ctx, const std::string& name, int op, int parent, F&& body) {
  const int id = ctx.span_begin(name, op, parent);
  const auto t0 = Clock::now();
  body();
  const double wall = ms_since(t0);
  ctx.span_end(id);
  return wall;
}

/// timed_span between two speed probes (Context::probe).
template <typename F>
double probed_span(Context& ctx, const std::string& name, int op, int parent, F&& body) {
  ctx.probe();
  const double wall = timed_span(ctx, name, op, parent, std::forward<F>(body));
  ctx.probe();
  return wall;
}

/// Pins the calling thread (and threads it starts later) to `width`
/// consecutive CPUs starting at CPU `op * width`, modulo the CPU count, so a
/// run's ops visit every CPU equally often. On a shared virtual machine the
/// CPUs can run up to a third apart in speed, drifting over minutes; without
/// pinning, a single-threaded run's speed depended on the CPU the scheduler
/// happened to keep it on.
void rotate_cpus(int op, int width);

/// Called between set-up and the timed ops: returns the heap memory set-up
/// freed to the system. Set-up repeats work (and the daemon runs several
/// lifetimes) whose freed memory glibc otherwise keeps in per-thread arenas;
/// which arena later allocations land in varied from run to run, so peak
/// memory did too, by up to a quarter.
void end_setup();

/// Standard end-to-end metrics derived from the op walls and set-up samples,
/// host-speed corrected by the run's median probe (speed.h): setup_s,
/// op_wall_ms_p50, op_wall_ms_p90, throughput_per_s.
void add_timing_metrics(Context& ctx);

/// Filesystem type name of `path` (statfs), for the configuration capture.
std::string filesystem_type(const std::string& path);

/// JSON helpers for the configuration capture; numbers with all digits.
std::string format_number(double value);
std::string json_string(std::string_view text);
std::string json_string_list(const std::vector<std::string>& items);

}  // namespace perfbench
