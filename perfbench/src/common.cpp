#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t InputRng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int InputRng::below(int n) {
  return static_cast<int>(next() % static_cast<uint64_t>(n));
}

std::vector<int> sample_distinct(InputRng& rng, int first, int pool, int n) {
  std::vector<int> values(static_cast<size_t>(pool));
  for (int i = 0; i < pool; ++i) values[static_cast<size_t>(i)] = first + i;
  rng.shuffle(values);
  values.resize(static_cast<size_t>(std::min(n, pool)));
  return values;
}

uint64_t fnv1a(std::string_view bytes, uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Reference::load(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    table_[line.substr(0, space)] = line.substr(space + 1);
  }
}

std::string Reference::expected(const std::string& key) const {
  const auto it = table_.find(key);
  return it == table_.end() ? std::string() : it->second;
}

int Trace::begin(std::string name, int op, int parent) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.op = op;
  span.name = std::move(name);
  span.start_ms = ms_since(origin_);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::add(std::string name, int op, int parent, Clock::time_point start,
                Clock::time_point end) {
  const int id = begin(std::move(name), op, parent);
  Span& span = spans_[static_cast<size_t>(id)];
  span.start_ms = std::chrono::duration<double, std::milli>(start - origin_).count();
  span.end_ms = std::chrono::duration<double, std::milli>(end - origin_).count();
}

double Trace::end(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ms = ms_since(origin_);
  return span.end_ms - span.start_ms;
}

bool Trace::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":" << json_string(s.name) << ",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, double> Layers::reduce() const {
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples_) {
    const bool is_max = name.size() > 4 && name.compare(name.size() - 4, 4, "_max") == 0;
    out[name] = is_max ? *std::max_element(values.begin(), values.end()) : median(values);
  }
  for (const auto& [name, value] : counts_) out[name] = value;
  for (const auto& [name, frac] : ratios_) {
    out[name] = frac.second > 0.0 ? frac.first / frac.second : 0.0;
  }
  return out;
}

void Result::fail(const std::string& why) {
  ++failed;
  failures.push_back(why);
}

bool Context::check(const std::string& key, const std::string& output) {
  const std::string got = hex64(fnv1a(output));
  if (options.record) {
    result.recorded.push_back(key + " " + got);
    return true;
  }
  const std::string want = reference.expected(key);
  if (want == got) return true;
  result.fail(key + ": output " + got + " != reference " +
              (want.empty() ? std::string("(missing)") : want));
  return false;
}

int Context::span_begin(const std::string& name, int op, int parent) {
  return trace ? trace->begin(name, op, parent) : -1;
}

double Context::span_end(int id) { return trace && id >= 0 ? trace->end(id) : 0.0; }

void rotate_cpus(int op, int width) {
  // The process's CPUs, read once before the first pin narrows them.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int i = 0; i < width; ++i) {
    CPU_SET(cpus[static_cast<size_t>(op * width + i) % cpus.size()], &mask);
  }
  sched_setaffinity(0, sizeof mask, &mask);
}

void end_setup() { malloc_trim(0); }

void add_timing_metrics(Context& ctx) {
  Result& r = ctx.result;
  std::vector<double> probe_ms;
  for (const Probe& p : r.probes) probe_ms.push_back(p.total_ms());
  const double probe = median(probe_ms);
  const double speed = probe > 0.0 ? kProbeReferenceMs / probe : 1.0;
  const double seconds = r.timed_phase_ms / 1000.0;
  const double throughput =
      seconds > 0.0 ? static_cast<double>(r.op_wall_ms.size()) / seconds : 0.0;
  r.metric("setup_s", median(r.setup_s) * speed, "s");
  r.metric("op_wall_ms_p50", median(r.op_wall_ms) * speed, "ms");
  r.metric("op_wall_ms_p90", percentile(r.op_wall_ms, 0.9) * speed, "ms");
  r.metric("throughput_per_s", throughput / speed, "1/s");
  // The uncorrected values, for comparison.
  r.config["speed_factor"] = format_number(speed);
  r.config["raw_setup_s"] = format_number(median(r.setup_s));
  r.config["raw_op_wall_ms_p50"] = format_number(median(r.op_wall_ms));
  r.config["raw_op_wall_ms_p90"] = format_number(percentile(r.op_wall_ms, 0.9));
  r.config["raw_throughput_per_s"] = format_number(throughput);
  r.config["timed_ops"] = std::to_string(r.op_wall_ms.size());
  r.config["setup_repetitions"] = std::to_string(r.setup_s.size());
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    case 0x01021997: return "9p";
    case 0x786F4256: return "virtiofs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
  return buf;
}

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(items[i]);
  }
  return out + "]";
}

}  // namespace perfbench
