// The Profiler and the regression CostModel (paper Sec. 3.3).
//
// "We run the given DNN model on each device with different representative
//  batch sizes ... so that we can build a linear regression model to predict
//  computation time of a specific operation at other batch sizes ... We
//  transfer data with different sizes between each pair of devices, record
//  the transfer time and build a linear regression model for transfer time
//  prediction over each link."
//
// Measurements are taken from the synthetic HardwareModel with deterministic
// multiplicative noise (seeded Rng) standing in for real kernel-time jitter.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "graph/graph.h"
#include "profiler/cost_provider.h"
#include "profiler/hardware_model.h"

namespace heterog::profiler {

struct ProfilerOptions {
  /// Batch fractions (of the graph's global batch) at which ops are timed.
  std::vector<double> batch_fractions{1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0};
  /// Repetitions per measurement point (measurements are averaged).
  int repetitions = 3;
  /// Multiplicative measurement noise stddev (e.g. 0.03 = 3%).
  double noise_stddev = 0.02;
  /// Transfer probe sizes in bytes (each >= 0).
  std::vector<int64_t> transfer_probe_bytes{64 * 1024, 1 * 1024 * 1024,
                                            16 * 1024 * 1024, 128 * 1024 * 1024};
};

/// Regression-fitted cost model over a profiled graph + cluster.
///
/// Per-op, per-device fits over batch size serve replicas of profiled ops;
/// per-kind, per-device fits over flop count serve ops the Graph Compiler
/// synthesises (Split/Concat/aggregation); per-link fits over bytes serve
/// transfers.
class CostModel final : public CostProvider {
 public:
  double op_time_ms(const graph::OpDef& op, double batch,
                    cluster::DeviceId dev) const override;
  double transfer_time_ms(int64_t bytes, cluster::DeviceId from,
                          cluster::DeviceId to) const override;
  const cluster::ClusterSpec& cluster() const override { return *cluster_; }

  /// The fit for a specific profiled op on a device (tests / inspection).
  const LinearFit& op_fit(graph::OpId id, cluster::DeviceId dev) const;
  const LinearFit& link_fit(cluster::DeviceId from, cluster::DeviceId to) const;

 private:
  friend class Profiler;

  const cluster::ClusterSpec* cluster_ = nullptr;
  int profiled_op_count_ = 0;
  int device_count_ = 0;
  // [op * device_count + device] -> time(batch) fit. Flat storage: at 1000
  // devices the per-row vector indirection costs a cache miss per lookup in
  // the compile hot path.
  std::vector<LinearFit> op_fits_;
  // [kind * device_count + device] -> time(flops) fit, fallback for
  // synthesised ops; empty for kinds the profiled graph does not contain.
  std::vector<std::optional<LinearFit>> kind_fits_;
  // [from * device_count + to] -> time(bytes) fit, flat for the same reason.
  std::vector<LinearFit> link_fits_;
};

/// Profiles a training graph against the (synthetic) hardware and fits the
/// CostModel. Deterministic given the seed.
class Profiler {
 public:
  Profiler(const HardwareModel& hardware, uint64_t seed,
           ProfilerOptions options = ProfilerOptions());

  /// Measures every op at the configured batch fractions on every device,
  /// probes every link, and returns the fitted cost model.
  std::shared_ptr<const CostModel> profile(const graph::GraphDef& graph);

 private:
  const HardwareModel* hardware_;
  Rng rng_;
  ProfilerOptions options_;
};

}  // namespace heterog::profiler
