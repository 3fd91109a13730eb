#include "speed.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

uint64_t splitmix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The compute probe: list-schedules a fixed random DAG onto four devices through a
/// heap of ready times, then folds the finish times through a hash map. Heap
/// moves, branches, floating point, small allocations and hashed lookups —
/// the shape of the planner's inner loops, without any of its code.
uint64_t probe_kernel() {
  constexpr int kNodes = 6000;
  constexpr int kDevices = 4;
  uint64_t state = 0x5eed;
  std::vector<std::vector<int>> successors(kNodes);
  std::vector<int> indegree(kNodes, 0);
  std::vector<double> cost(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    cost[static_cast<size_t>(i)] = 1.0 + static_cast<double>(splitmix(state) % 1000) / 7.0;
    for (int k = 0; k < 3; ++k) {
      const int j = i + 1 + static_cast<int>(splitmix(state) % 96);
      if (j < kNodes) {
        successors[static_cast<size_t>(i)].push_back(j);
        ++indegree[static_cast<size_t>(j)];
      }
    }
  }
  using Ready = std::pair<double, int>;  // (ready time, node), earliest first
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  std::vector<double> ready_at(kNodes, 0.0);
  for (int i = 0; i < kNodes; ++i) {
    if (indegree[static_cast<size_t>(i)] == 0) ready.emplace(0.0, i);
  }
  double device_free[kDevices] = {};
  std::unordered_map<uint64_t, double> finish_by_bucket;
  while (!ready.empty()) {
    const auto [at, node] = ready.top();
    ready.pop();
    double* device = std::min_element(device_free, device_free + kDevices);
    const double finish = std::max(*device, at) + cost[static_cast<size_t>(node)];
    *device = finish;
    finish_by_bucket[static_cast<uint64_t>(node) * 0x9E3779B97F4A7C15ull % 4093] += finish;
    for (const int next : successors[static_cast<size_t>(node)]) {
      ready_at[static_cast<size_t>(next)] = std::max(ready_at[static_cast<size_t>(next)], finish);
      if (--indegree[static_cast<size_t>(next)] == 0) {
        ready.emplace(ready_at[static_cast<size_t>(next)], next);
      }
    }
  }
  uint64_t checksum = 0;
  for (const auto& [bucket, total] : finish_by_bucket) {
    checksum += bucket * static_cast<uint64_t>(total);
  }
  return checksum;
}

/// A random cyclic permutation over 16 MiB, built once: chasing it is
/// bound by cache and memory latency (eight times a core's L2 here, a small
/// share of the shared L3), which a busy neighbour on the host slows down.
const std::vector<uint32_t>& chase_ring() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> next(4u << 20);
    for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    uint64_t state = 0xc4a5e;
    for (size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(next[i], next[static_cast<size_t>(splitmix(state) % i)]);
    }
    return next;
  }();
  return ring;
}

uint64_t chase_kernel() {
  const std::vector<uint32_t>& ring = chase_ring();
  uint32_t at = 0;
  for (int step = 0; step < 40000; ++step) at = ring[at];
  return at;
}

/// Keeps the probe's results live so the compiler cannot drop the work.
std::atomic<uint64_t> probe_sink{0};

/// Median of five timed runs of `kernel` on the calling thread, in ms.
template <typename Kernel>
double median_of_five(Kernel kernel) {
  double times[5];
  for (double& t : times) {
    const auto t0 = std::chrono::steady_clock::now();
    probe_sink += kernel();
    t = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  }
  std::sort(times, times + 5);
  return times[2];
}

Probe probe_here() {
  return Probe{median_of_five(probe_kernel), median_of_five(chase_kernel)};
}

}  // namespace

Probe speed_probe() {
  (void)chase_ring();  // built outside the timed part
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return probe_here();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  if (cpus.size() <= 1) return probe_here();
  std::vector<Probe> probes(cpus.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      probes[i] = probe_here();
    });
  }
  for (auto& t : threads) t.join();
  Probe mean;
  for (const Probe& p : probes) {
    mean.compute_ms += p.compute_ms / static_cast<double>(probes.size());
    mean.memory_ms += p.memory_ms / static_cast<double>(probes.size());
  }
  return mean;
}

}  // namespace perfbench
