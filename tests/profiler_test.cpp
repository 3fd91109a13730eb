#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/topology.h"
#include "common/hash.h"
#include "graph/graph.h"
#include "models/models.h"
#include "profiler/hardware_model.h"
#include "profiler/profiler.h"

namespace heterog::profiler {
namespace {

using cluster::ClusterSpec;
using cluster::GpuModel;
using graph::OpDef;
using graph::OpKind;

OpDef make_op(OpKind kind, double gflops_per_sample, int64_t out_bytes = 1 << 20) {
  OpDef op;
  op.name = "op";
  op.kind = kind;
  op.flops_per_sample = gflops_per_sample * 1e9;
  op.out_bytes_per_sample = out_bytes;
  return op;
}

class HardwareModelTest : public ::testing::Test {
 protected:
  ClusterSpec cluster_ = cluster::make_paper_testbed_8gpu();
  HardwareModel hw_{cluster_};
};

TEST_F(HardwareModelTest, V100FasterThan1080Ti) {
  const OpDef conv = make_op(OpKind::kConv2D, 5.0);
  const double v100 = hw_.op_time_ms(conv, 32.0, 0);
  const double gtx = hw_.op_time_ms(conv, 32.0, 2);
  EXPECT_LT(v100, gtx);
}

// Fig. 3(b): speed-up varies by op type, roughly between 1.1 and 1.9 for
// large kernels.
TEST_F(HardwareModelTest, SpeedupVariesByOpTypeWithinPaperRange) {
  const OpKind kinds[] = {OpKind::kConv2D, OpKind::kMatMul, OpKind::kConv1D,
                          OpKind::kConv2DBpFilter, OpKind::kConv2DBpInput};
  double min_speedup = 10.0, max_speedup = 0.0;
  for (OpKind kind : kinds) {
    const OpDef op = make_op(kind, 50.0);  // large kernel: saturated
    const double speedup = hw_.op_time_ms(op, 64.0, 2) / hw_.op_time_ms(op, 64.0, 0);
    EXPECT_GT(speedup, 1.05) << op_kind_name(kind);
    EXPECT_LT(speedup, 2.0) << op_kind_name(kind);
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
  }
  // The spread across op types is substantial (paper: 1.1 .. 1.9).
  EXPECT_GT(max_speedup - min_speedup, 0.3);
}

TEST_F(HardwareModelTest, SmallKernelsShrinkTheSpeedup) {
  const OpDef big = make_op(OpKind::kMatMul, 50.0);
  const OpDef small = make_op(OpKind::kMatMul, 0.005);
  const double speedup_big = hw_.op_time_ms(big, 64.0, 2) / hw_.op_time_ms(big, 64.0, 0);
  const double speedup_small =
      hw_.op_time_ms(small, 64.0, 2) / hw_.op_time_ms(small, 64.0, 0);
  EXPECT_LT(speedup_small, speedup_big);
}

TEST_F(HardwareModelTest, TimeMonotonicInBatch) {
  const OpDef op = make_op(OpKind::kConv2D, 2.0);
  double prev = 0.0;
  for (double batch : {1.0, 8.0, 32.0, 128.0}) {
    const double t = hw_.op_time_ms(op, batch, 0);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(HardwareModelTest, ZeroFlopCostsKernelLaunchOnly) {
  const OpDef op = make_op(OpKind::kIdentity, 0.0);
  EXPECT_NEAR(hw_.op_time_ms(op, 32.0, 0), 0.004, 1e-9);
}

TEST_F(HardwareModelTest, TransferTimeLinearInBytes) {
  const double t1 = hw_.transfer_time_ms(1 << 20, 0, 2);
  const double t2 = hw_.transfer_time_ms(2 << 20, 0, 2);
  const double lat = cluster_.link_latency_ms(0, 2);
  EXPECT_NEAR(t2 - lat, 2.0 * (t1 - lat), 1e-9);
}

TEST_F(HardwareModelTest, IntraHostTransferFaster) {
  EXPECT_LT(hw_.transfer_time_ms(10 << 20, 0, 1), hw_.transfer_time_ms(10 << 20, 0, 2));
}

class ProfilerFitTest : public ::testing::Test {
 protected:
  ClusterSpec cluster_ = cluster::make_paper_testbed_8gpu();
  HardwareModel hw_{cluster_};
};

TEST_F(ProfilerFitTest, FitPredictsUnseenBatchWithinNoise) {
  graph::GraphDef g("g", 64.0);
  g.add_op(make_op(OpKind::kConv2D, 4.0));
  Profiler profiler(hw_, /*seed=*/1);
  const auto model = profiler.profile(g);

  // Predict at a batch size that was not a profiling point (3/8 of batch).
  const double truth = hw_.op_time_ms(g.op(0), 24.0, 0);
  const double predicted = model->op_time_ms(g.op(0), 24.0, 0);
  EXPECT_NEAR(predicted, truth, 0.15 * truth);
}

TEST_F(ProfilerFitTest, LinkFitRecoversLatencyAndBandwidth) {
  graph::GraphDef g("g", 64.0);
  g.add_op(make_op(OpKind::kConv2D, 4.0));
  Profiler profiler(hw_, 2);
  const auto model = profiler.profile(g);
  const int64_t bytes = 64LL << 20;
  const double truth = hw_.transfer_time_ms(bytes, 0, 2);
  EXPECT_NEAR(model->transfer_time_ms(bytes, 0, 2), truth, 0.1 * truth);
}

TEST_F(ProfilerFitTest, SynthesisedOpsFallBackToKindFit) {
  graph::GraphDef g("g", 64.0);
  g.add_op(make_op(OpKind::kConv2D, 4.0));
  Profiler profiler(hw_, 3);
  const auto model = profiler.profile(g);

  OpDef synth = make_op(OpKind::kConv2D, 4.0);
  synth.id = graph::kInvalidOp;  // not a profiled op
  const double truth = hw_.op_time_ms(synth, 32.0, 0);
  EXPECT_NEAR(model->op_time_ms(synth, 32.0, 0), truth, 0.3 * truth);
}

TEST_F(ProfilerFitTest, DeterministicForSameSeed) {
  graph::GraphDef g("g", 64.0);
  g.add_op(make_op(OpKind::kMatMul, 2.0));
  Profiler p1(hw_, 7), p2(hw_, 7);
  const auto m1 = p1.profile(g);
  const auto m2 = p2.profile(g);
  EXPECT_DOUBLE_EQ(m1->op_time_ms(g.op(0), 16.0, 3), m2->op_time_ms(g.op(0), 16.0, 3));
}

TEST_F(ProfilerFitTest, SameDeviceTransferIsFree) {
  graph::GraphDef g("g", 64.0);
  g.add_op(make_op(OpKind::kMatMul, 2.0));
  Profiler p(hw_, 9);
  const auto m = p.profile(g);
  EXPECT_DOUBLE_EQ(m->transfer_time_ms(1 << 20, 3, 3), 0.0);
}

TEST_F(ProfilerFitTest, AverageOpTimeBetweenExtremes) {
  graph::GraphDef g("g", 64.0);
  g.add_op(make_op(OpKind::kConv2D, 4.0));
  Profiler p(hw_, 4);
  const auto m = p.profile(g);
  const double avg = m->average_op_time_ms(g.op(0), 32.0);
  const double fast = m->op_time_ms(g.op(0), 32.0, 0);
  const double slow = m->op_time_ms(g.op(0), 32.0, 2);
  EXPECT_GE(avg, fast);
  EXPECT_LE(avg, slow);
}

// Bit-identity wall for the profiler: a digest of every per-op and per-link
// fit, plus the per-kind fallback as seen through op_time_ms of one
// synthesised op per kind and device. Any change to the RNG draw order, the
// ground-truth formulas or the fit arithmetic moves the digest, and with it
// every plan built on the cost model.
uint64_t profile_digest(const ClusterSpec& cluster, const graph::GraphDef& graph,
                        uint64_t seed) {
  const HardwareModel hw(cluster);
  Profiler profiler(hw, seed);
  const auto model = profiler.profile(graph);
  Hash64 h;
  const auto mix_fit = [&](const LinearFit& fit) {
    h.mix_double(fit.slope).mix_double(fit.intercept).mix_double(fit.r_squared);
  };
  const int devices = cluster.device_count();
  for (graph::OpId id = 0; id < graph.op_count(); ++id) {
    for (int d = 0; d < devices; ++d) mix_fit(model->op_fit(id, d));
  }
  for (int a = 0; a < devices; ++a) {
    for (int b = 0; b < devices; ++b) {
      if (a != b) mix_fit(model->link_fit(a, b));
    }
  }
  for (int k = 0; k < graph::kOpKindCount; ++k) {
    OpDef synth = make_op(static_cast<OpKind>(k), 0.75);
    synth.id = graph::kInvalidOp;  // not a profiled op: the kind fallback
    for (int d = 0; d < devices; ++d) {
      h.mix_double(model->op_time_ms(synth, graph.global_batch() / 3.0, d));
    }
  }
  return h.digest();
}

TEST(ProfilerDigest, FitsAreBitIdenticalOnPod64AndPaperTestbed) {
  const ClusterSpec pod64 = cluster::generate_cluster(*cluster::topo_preset("pod64"));
  const auto vgg = models::build_training(models::ModelKind::kVgg19, 0, 128.0);
  const uint64_t pod64_digest = profile_digest(pod64, vgg, 5);
  EXPECT_EQ(pod64_digest, 0xb861a471783faec7ULL) << std::hex << pod64_digest;

  const ClusterSpec testbed = cluster::make_paper_testbed_8gpu();
  const auto inception = models::build_training(models::ModelKind::kInceptionV3, 0, 96.0);
  const uint64_t testbed_digest = profile_digest(testbed, inception, 1);
  EXPECT_EQ(testbed_digest, 0xe4cbdfc16a8aac31ULL) << std::hex << testbed_digest;
}

}  // namespace
}  // namespace heterog::profiler
