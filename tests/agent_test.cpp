#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "agent/features.h"
#include "agent/policy.h"
#include "cluster/topology.h"
#include "models/models.h"
#include "profiler/profiler.h"
#include "test_util.h"

namespace heterog::agent {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  heterog::testing::TestRig rig_{cluster::make_paper_testbed_8gpu()};
  graph::GraphDef graph_ = heterog::testing::make_toy_training_graph();
};

TEST_F(AgentTest, FeatureMatrixShapeAndRange) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  EXPECT_EQ(encoded.features.rows(), graph_.op_count());
  EXPECT_EQ(encoded.features.cols(), feature_dim(8));
  for (int r = 0; r < encoded.features.rows(); ++r) {
    for (int c = 0; c < encoded.features.cols(); ++c) {
      EXPECT_GE(encoded.features.at(r, c), -1.0 - 1e-9);
      EXPECT_LE(encoded.features.at(r, c), 1.0 + 1e-9);
    }
  }
}

// The feature matrix as encode_graph built it before the per-size
// transfer-mean memo: every op runs the full D^2 pair loop.
nn::Matrix unmemoised_features(const graph::GraphDef& graph,
                               const profiler::CostProvider& costs) {
  const auto& cluster = costs.cluster();
  const int n = graph.op_count();
  const int dim = feature_dim(cluster.device_count());
  nn::Matrix features(n, dim);
  for (graph::OpId id = 0; id < n; ++id) {
    const auto& op = graph.op(id);
    int col = 0;
    for (const auto& dev : cluster.devices()) {
      features.at(id, col++) =
          std::log1p(costs.op_time_ms(op, graph.global_batch(), dev.id));
    }
    const int64_t out_bytes = op.out_bytes(graph.global_batch());
    double transfer_total = 0.0;
    int pairs = 0;
    for (const auto& a : cluster.devices()) {
      for (const auto& b : cluster.devices()) {
        if (a.id == b.id) continue;
        transfer_total += costs.transfer_time_ms(out_bytes, a.id, b.id);
        ++pairs;
      }
    }
    features.at(id, col++) = std::log1p(transfer_total / std::max(pairs, 1));
    features.at(id, col++) = std::log1p(static_cast<double>(out_bytes));
    features.at(id, col++) = std::log1p(static_cast<double>(op.param_bytes));
    features.at(id, col++) = op.batch_divisible ? 1.0 : 0.0;
    features.at(id, col++) = graph::is_compute_intensive(op.kind) ? 1.0 : 0.0;
    features.at(id, col++) = op.role == graph::OpRole::kForward ? 1.0 : 0.0;
    features.at(id, col++) = op.role == graph::OpRole::kBackward ? 1.0 : 0.0;
    features.at(id, col++) = op.role == graph::OpRole::kApply ? 1.0 : 0.0;
  }
  for (int c = 0; c < dim; ++c) {
    double max_abs = 0.0;
    for (int r = 0; r < n; ++r) max_abs = std::max(max_abs, std::abs(features.at(r, c)));
    if (max_abs > 1.0) {
      for (int r = 0; r < n; ++r) features.at(r, c) /= max_abs;
    }
  }
  return features;
}

TEST(FeatureEncoding, MemoisedTransferMeanIsBitIdentical) {
  const auto pod64 = cluster::generate_cluster(*cluster::topo_preset("pod64"));
  const profiler::HardwareModel hardware(pod64);
  for (const auto kind : {models::ModelKind::kVgg19, models::ModelKind::kInceptionV3}) {
    const auto graph = models::build_training(kind, 0, 2.0 * pod64.device_count());
    profiler::Profiler profiler(hardware, 3);
    const auto costs = profiler.profile(graph);
    const EncodedGraph encoded = encode_graph(graph, *costs, 48);
    const nn::Matrix reference = unmemoised_features(graph, *costs);
    ASSERT_EQ(encoded.features.rows(), reference.rows());
    ASSERT_EQ(encoded.features.cols(), reference.cols());
    EXPECT_EQ(std::memcmp(encoded.features.data(), reference.data(),
                          sizeof(double) * static_cast<size_t>(reference.rows()) *
                              static_cast<size_t>(reference.cols())),
              0)
        << graph.name();
  }
}

TEST_F(AgentTest, EdgeListHasBothDirectionsAndSelfLoops) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  EXPECT_EQ(encoded.edge_src.size(),
            static_cast<size_t>(graph_.edge_count()) * 2 +
                static_cast<size_t>(graph_.op_count()));
  int self_loops = 0;
  for (size_t e = 0; e < encoded.edge_src.size(); ++e) {
    if (encoded.edge_src[e] == encoded.edge_dst[e]) ++self_loops;
  }
  EXPECT_EQ(self_loops, graph_.op_count());
}

TEST_F(AgentTest, RoleOneHotColumnsAreExclusive) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  const int base = feature_dim(8) - 3;
  for (int r = 0; r < encoded.features.rows(); ++r) {
    const double total = encoded.features.at(r, base) + encoded.features.at(r, base + 1) +
                         encoded.features.at(r, base + 2);
    EXPECT_DOUBLE_EQ(total, 1.0);
  }
}

TEST_F(AgentTest, PolicyForwardProducesGroupLogits) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  AgentConfig config;
  config.max_groups = 16;
  PolicyNetwork policy(8, config);
  nn::Tape tape;
  const auto out = policy.forward(tape, encoded);
  EXPECT_EQ(out.logits.rows(), encoded.group_count());
  EXPECT_EQ(out.logits.cols(), 12);  // M + 4
}

TEST_F(AgentTest, PolicyRejectsMismatchedClusterSize) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  AgentConfig config;
  PolicyNetwork policy(12, config);  // built for 12 GPUs
  nn::Tape tape;
  EXPECT_THROW(policy.forward(tape, encoded), CheckError);
}

TEST_F(AgentTest, SamplingRespectsLogits) {
  AgentConfig config;
  PolicyNetwork policy(2, config);  // action space size 6
  nn::Matrix logits(3, 6);
  logits.at(0, 4) = 50.0;  // overwhelming mass on action 4 for group 0
  logits.at(1, 0) = 50.0;
  logits.at(2, 5) = 50.0;
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto actions = policy.sample_actions(logits, rng, 1.0);
    EXPECT_EQ(actions[0], 4);
    EXPECT_EQ(actions[1], 0);
    EXPECT_EQ(actions[2], 5);
  }
  const auto greedy = policy.greedy_actions(logits);
  EXPECT_EQ(greedy, (std::vector<int>{4, 0, 5}));
}

TEST_F(AgentTest, SampledActionsAlwaysValid) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  AgentConfig config;
  PolicyNetwork policy(8, config);
  nn::Tape tape;
  const auto out = policy.forward(tape, encoded);
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const auto actions = policy.sample_actions(out.logits.value(), rng, 1.5);
    for (int a : actions) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, policy.action_count());
    }
  }
}

TEST_F(AgentTest, SnapshotRestoreRoundTrip) {
  AgentConfig config;
  PolicyNetwork policy(4, config);
  const auto snapshot = policy.snapshot_params();
  // Perturb every parameter, then restore.
  for (const auto& p : policy.params().all()) {
    nn::Var handle = p;
    handle.mutable_value().scale_in_place(3.0);
  }
  policy.restore_params(snapshot);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const auto& p = policy.params().all()[i];
    for (int64_t k = 0; k < p.value().size(); ++k) {
      EXPECT_DOUBLE_EQ(p.value().data()[k], snapshot[i].data()[k]);
    }
  }
}

TEST_F(AgentTest, ForwardDeterministicGivenParams) {
  const EncodedGraph encoded = encode_graph(graph_, *rig_.costs, 16);
  AgentConfig config;
  config.seed = 77;
  PolicyNetwork p1(8, config);
  PolicyNetwork p2(8, config);
  nn::Tape t1, t2;
  const auto o1 = p1.forward(t1, encoded);
  const auto o2 = p2.forward(t2, encoded);
  for (int64_t i = 0; i < o1.logits.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(o1.logits.value().data()[i], o2.logits.value().data()[i]);
  }
}

TEST_F(AgentTest, RealModelEncodesWithinGroupLimit) {
  const auto g = models::build_training(models::ModelKind::kResNet200, 0, 64);
  const EncodedGraph encoded = encode_graph(g, *rig_.costs, 48);
  EXPECT_LE(encoded.group_count(), 48);
  EXPECT_EQ(encoded.features.rows(), g.op_count());
}

}  // namespace
}  // namespace heterog::agent
