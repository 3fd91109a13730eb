// Determinism pin for the policy update: 20 REINFORCE-shaped updates
// (forward, loss with an entropy term, backward, Adam) on the encoded
// graphs the RL search trains on, then a hash of every parameter bit.
//
// The expected digests were recorded before the nn kernels were rewritten
// for speed; any reassociation, FMA contraction or changed zero-skip in a
// kernel moves at least one parameter bit and fails this test.
#include <gtest/gtest.h>

#include <iterator>
#include <thread>
#include <vector>

#include "agent/features.h"
#include "agent/policy.h"
#include "common/hash.h"
#include "models/models.h"
#include "test_util.h"

namespace heterog::agent {
namespace {

struct PinCase {
  const char* name;
  models::ModelKind kind;
  int layers;
  bool twelve_gpus;
  double batch;
  uint64_t expected;
};

uint64_t parameter_digest(const nn::ParameterSet& params) {
  Hash64 h;
  for (const nn::Var& p : params.all()) {
    const nn::Matrix& m = p.value();
    h.mix_signed(m.rows()).mix_signed(m.cols());
    for (int64_t i = 0; i < m.size(); ++i) h.mix_double(m.data()[i]);
  }
  return h.digest();
}

/// One update shaped like rl::Trainer::reinforce_step: two sampled action
/// vectors with pseudo-advantages, an entropy bonus, backward, Adam.
void policy_update(PolicyNetwork& policy, nn::AdamOptimizer& adam,
                   const EncodedGraph& encoded, Rng& rng, nn::Tape& tape) {
  const auto forward = policy.forward(tape, encoded);
  const nn::Var log_probs = tape.log_softmax_rows(forward.logits);
  const nn::Var probs = tape.softmax_rows(forward.logits);
  const nn::Var entropy =
      tape.scale(tape.sum_all(tape.hadamard(probs, log_probs)),
                 -1.0 / static_cast<double>(encoded.group_count()));
  std::vector<std::vector<int>> sampled;
  nn::Var policy_loss;
  for (int s = 0; s < 2; ++s) {
    sampled.push_back(policy.sample_actions(forward.logits.value(), rng, 1.0));
    const double advantage = rng.uniform(-1.0, 1.0);
    const nn::Var picked = tape.pick_per_row(log_probs, sampled.back());
    const nn::Var mean_logp = tape.scale(
        tape.sum_all(picked), 1.0 / static_cast<double>(sampled.back().size()));
    const nn::Var sample_loss = tape.scale(mean_logp, -advantage / 2.0);
    policy_loss =
        policy_loss.defined() ? tape.add(policy_loss, sample_loss) : sample_loss;
  }
  const nn::Var loss = tape.subtract(policy_loss, tape.scale(entropy, 0.03));
  tape.backward(loss);
  adam.step();
}

const PinCase kPins[] = {
    {"mobilenet_v2_8gpu", models::ModelKind::kMobileNetV2, 0, false, 192,
     0x680e9967477a4d80ULL},
    {"transformer_8gpu", models::ModelKind::kTransformer, 6, false, 720,
     0x2bce869282c66d98ULL},
    {"inception_v3_12gpu", models::ModelKind::kInceptionV3, 0, true, 288,
     0x823671e303d5c1f7ULL},
};

/// Runs the 20 updates from a fresh network; with a workspace, every tape
/// draws on it the way rl::Trainer's updates do.
uint64_t pin_digest(const PinCase& pc, nn::Workspace* workspace) {
  heterog::testing::TestRig rig(pc.twelve_gpus ? cluster::make_paper_testbed_12gpu()
                                               : cluster::make_paper_testbed_8gpu());
  const graph::GraphDef graph = graph::build_training_graph(
      models::build_forward(pc.kind, pc.layers, pc.batch));
  AgentConfig config;
  const EncodedGraph encoded = encode_graph(graph, *rig.costs, config.max_groups);
  PolicyNetwork policy(rig.cluster.device_count(), config);
  nn::AdamOptimizer adam(policy.params());
  Rng rng(7);
  for (int update = 0; update < 20; ++update) {
    if (workspace != nullptr) {
      nn::Tape tape(*workspace);
      policy_update(policy, adam, encoded, rng, tape);
    } else {
      nn::Tape tape;
      policy_update(policy, adam, encoded, rng, tape);
    }
  }
  return parameter_digest(policy.params());
}

void PrintTo(const PinCase& pc, std::ostream* os) { *os << pc.name; }

class NnPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(NnPin, TwentyUpdatesAreBitIdentical) {
  const PinCase& pc = GetParam();
  const uint64_t digest = pin_digest(pc, nullptr);
  EXPECT_EQ(digest, pc.expected) << pc.name << " digest 0x" << std::hex << digest;
}

TEST_P(NnPin, RecycledWorkspaceIsBitIdentical) {
  const PinCase& pc = GetParam();
  nn::Workspace workspace;
  EXPECT_EQ(pin_digest(pc, &workspace), pc.expected) << pc.name;
}

INSTANTIATE_TEST_SUITE_P(PaperGraphs, NnPin, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

// Concurrent searches (the daemon's workers) each update their own network
// on their own workspace while sharing the kernels' per-thread scratch
// code; run under TSan in CI.
TEST(NnPinConcurrency, ConcurrentUpdatesMatchThePins) {
  std::vector<uint64_t> digests(std::size(kPins));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < std::size(kPins); ++i) {
    threads.emplace_back([&digests, i] {
      nn::Workspace workspace;
      digests[i] = pin_digest(kPins[i], &workspace);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < std::size(kPins); ++i) {
    EXPECT_EQ(digests[i], kPins[i].expected) << kPins[i].name;
  }
}

}  // namespace
}  // namespace heterog::agent
