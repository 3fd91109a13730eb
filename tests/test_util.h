// Shared helpers for HeteroG tests.
#pragma once

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "compile/compiler.h"
#include "graph/training.h"
#include "profiler/cost_provider.h"
#include "profiler/hardware_model.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"

namespace heterog::testing {

/// A two-conv + FC toy training graph with parameters on every layer.
inline graph::GraphDef make_toy_training_graph(double batch = 32.0) {
  graph::GraphDef fwd("toy", batch);
  auto make = [&](const char* name, graph::OpKind kind, double gflops, int64_t out_bytes,
                  int64_t params) {
    graph::OpDef op;
    op.name = name;
    op.kind = kind;
    op.flops_per_sample = gflops * 1e9;
    op.out_bytes_per_sample = out_bytes;
    op.param_bytes = params;
    return fwd.add_op(op);
  };
  const auto in = make("input", graph::OpKind::kIdentity, 0.0, 600 * 1024, 0);
  const auto c1 = make("conv1", graph::OpKind::kConv2D, 2.0, 4 << 20, 2 << 20);
  const auto c2 = make("conv2", graph::OpKind::kConv2D, 3.0, 2 << 20, 4 << 20);
  const auto fc = make("fc", graph::OpKind::kMatMul, 0.5, 64 * 1024, 16 << 20);
  const auto loss = make("loss", graph::OpKind::kLoss, 0.001, 4, 0);
  fwd.add_edge(in, c1);
  fwd.add_edge(c1, c2);
  fwd.add_edge(c2, fc);
  fwd.add_edge(fc, loss);
  return graph::build_training_graph(fwd);
}

/// A chain of 12 convolutions whose activations (96 MB/sample at batch 16)
/// overflow one GPU: all on one device the plan is OOM, spread out it fits.
inline graph::GraphDef make_oversized_chain_training_graph() {
  graph::GraphDef fwd("mid", 16.0);
  graph::OpId prev = graph::kInvalidOp;
  for (int i = 0; i < 12; ++i) {
    graph::OpDef op;
    op.name = "layer" + std::to_string(i);
    op.kind = graph::OpKind::kConv2D;
    op.flops_per_sample = 1e9;
    op.out_bytes_per_sample = 96LL << 20;  // 96 MB/sample -> 1.5 GB per layer
    op.param_bytes = 8 << 20;
    const auto id = fwd.add_op(op);
    if (prev != graph::kInvalidOp) fwd.add_edge(prev, id);
    prev = id;
  }
  return graph::build_training_graph(fwd);
}

/// Bundles cluster + ground-truth costs + compiler for tests.
struct TestRig {
  cluster::ClusterSpec cluster;
  std::unique_ptr<profiler::HardwareModel> hardware;
  std::unique_ptr<profiler::GroundTruthCosts> costs;
  std::unique_ptr<compile::GraphCompiler> compiler;

  explicit TestRig(cluster::ClusterSpec c) : cluster(std::move(c)) {
    hardware = std::make_unique<profiler::HardwareModel>(cluster);
    costs = std::make_unique<profiler::GroundTruthCosts>(*hardware);
    compiler = std::make_unique<compile::GraphCompiler>(*costs);
  }

  compile::CompileResult compile_uniform(const graph::GraphDef& g,
                                         strategy::Action action,
                                         int max_groups = 1000) const {
    const auto grouping = strategy::Grouping::build(g, *costs, max_groups);
    const auto map = strategy::StrategyMap::uniform(grouping.group_count(), action);
    return compiler->compile(g, grouping, map);
  }
};

}  // namespace heterog::testing
