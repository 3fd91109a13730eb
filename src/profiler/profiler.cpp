#include "profiler/profiler.h"

#include <algorithm>

#include "common/check.h"

namespace heterog::profiler {

double CostModel::op_time_ms(const graph::OpDef& op, double batch,
                             cluster::DeviceId dev) const {
  check(dev >= 0 && dev < device_count_, "op_time_ms: bad device");
  if (op.id >= 0 && op.id < profiled_op_count_) {
    const double t =
        op_fits_[static_cast<size_t>(op.id) * static_cast<size_t>(device_count_) +
                 static_cast<size_t>(dev)]
            .predict(batch);
    return std::max(t, 0.0);
  }
  // Synthesised op: fall back to the per-kind flops fit.
  const std::optional<LinearFit>& kind_fit =
      kind_fits_[static_cast<size_t>(op.kind) * static_cast<size_t>(device_count_) +
                 static_cast<size_t>(dev)];
  const double flops = std::max(op.flops(batch), 0.0);
  if (kind_fit) return std::max(kind_fit->predict(flops), 0.0);
  // Kind never observed during profiling: use a conservative generic rate
  // derived from the device's base compute throughput.
  const auto& d = cluster_->device(dev);
  return 0.004 + flops / (d.gflops_per_ms * 1e9 * 0.25);
}

double CostModel::transfer_time_ms(int64_t bytes, cluster::DeviceId from,
                                   cluster::DeviceId to) const {
  if (from == to) return 0.0;
  const double t = link_fit(from, to).predict(static_cast<double>(bytes));
  return std::max(t, 0.0);
}

const LinearFit& CostModel::op_fit(graph::OpId id, cluster::DeviceId dev) const {
  check(id >= 0 && id < profiled_op_count_, "op_fit: unprofiled op");
  check(dev >= 0 && dev < device_count_, "op_fit: bad device");
  return op_fits_[static_cast<size_t>(id) * static_cast<size_t>(device_count_) +
                  static_cast<size_t>(dev)];
}

const LinearFit& CostModel::link_fit(cluster::DeviceId from, cluster::DeviceId to) const {
  check(from != to, "link_fit: same device");
  check(from >= 0 && from < device_count_, "link_fit: bad from");
  check(to >= 0 && to < device_count_, "link_fit: bad to");
  return link_fits_[static_cast<size_t>(from) * static_cast<size_t>(device_count_) +
                    static_cast<size_t>(to)];
}

Profiler::Profiler(const HardwareModel& hardware, uint64_t seed, ProfilerOptions options)
    : hardware_(&hardware), rng_(seed), options_(std::move(options)) {
  check(options_.batch_fractions.size() >= 2,
        "Profiler: need >= 2 batch fractions for a regression fit");
  check(options_.repetitions >= 1, "Profiler: repetitions must be >= 1");
  for (const int64_t bytes : options_.transfer_probe_bytes) {
    check(bytes >= 0, "Profiler: transfer probe sizes must be >= 0");
  }
}

std::shared_ptr<const CostModel> Profiler::profile(const graph::GraphDef& graph) {
  const auto& cluster = hardware_->cluster();
  const int n = cluster.device_count();
  const auto sn = static_cast<size_t>(n);
  const int reps = options_.repetitions;
  auto model = std::make_shared<CostModel>();
  model->cluster_ = &cluster;
  model->profiled_op_count_ = graph.op_count();
  model->device_count_ = n;
  model->op_fits_.assign(static_cast<size_t>(graph.op_count()) * sn, LinearFit{});

  // One noisy measurement: `reps` draws around the ground truth, averaged.
  // The draw order (op, device, fraction, repetition, then link, probe,
  // repetition) is the RNG stream every fit depends on.
  const auto measure = [&](double truth) {
    double total = 0.0;
    for (int r = 0; r < reps; ++r) {
      const double noise = 1.0 + rng_.normal(0.0, options_.noise_stddev);
      total += truth * std::max(noise, 0.5);
    }
    return total / reps;
  };

  // [kind * n + device] -> (flops, times) samples for the synthesised-op
  // fallback fits, in op order.
  struct KindSamples {
    std::vector<double> flops, times;
  };
  std::vector<KindSamples> kind_samples(static_cast<size_t>(graph::kOpKindCount) * sn);

  const size_t fractions = options_.batch_fractions.size();
  std::vector<double> batches(fractions), op_flops(fractions), times(fractions);
  for (const auto& op : graph.ops()) {
    for (size_t f = 0; f < fractions; ++f) {
      batches[f] = graph.global_batch() * options_.batch_fractions[f];
      op_flops[f] = std::max(op.flops(batches[f]), 0.0);
    }
    for (const auto& dev : cluster.devices()) {
      KindSamples& bucket =
          kind_samples[static_cast<size_t>(op.kind) * sn + static_cast<size_t>(dev.id)];
      for (size_t f = 0; f < fractions; ++f) {
        times[f] = measure(hardware_->op_time_ms(op, batches[f], dev.id));
        bucket.flops.push_back(op_flops[f]);
        bucket.times.push_back(times[f]);
      }
      model->op_fits_[static_cast<size_t>(op.id) * sn + static_cast<size_t>(dev.id)] =
          fit_linear(batches, times);
    }
  }

  model->kind_fits_.resize(kind_samples.size());
  for (size_t i = 0; i < kind_samples.size(); ++i) {
    if (kind_samples[i].flops.size() >= 2) {
      model->kind_fits_[i] = fit_linear(kind_samples[i].flops, kind_samples[i].times);
    }
  }

  // Link probes.
  model->link_fits_.assign(sn * sn, LinearFit{});
  const size_t probes = options_.transfer_probe_bytes.size();
  std::vector<double> probe_bytes(probes), probe_times(probes);
  for (size_t p = 0; p < probes; ++p) {
    probe_bytes[p] = static_cast<double>(options_.transfer_probe_bytes[p]);
  }
  for (const auto& a : cluster.devices()) {
    for (const auto& b : cluster.devices()) {
      if (a.id == b.id) continue;
      const HardwareModel::Link link = hardware_->link(a.id, b.id);
      for (size_t p = 0; p < probes; ++p) {
        probe_times[p] = measure(link.transfer_time_ms(options_.transfer_probe_bytes[p]));
      }
      model->link_fits_[static_cast<size_t>(a.id) * sn + static_cast<size_t>(b.id)] =
          fit_linear(probe_bytes, probe_times);
    }
  }

  return model;
}

}  // namespace heterog::profiler
