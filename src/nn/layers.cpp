#include "nn/layers.h"

#include <cmath>

namespace heterog::nn {

Var ParameterSet::add(Matrix init) {
  Tape scratch;  // leaves are not recorded; any tape works
  Var v = scratch.leaf(std::move(init), /*requires_grad=*/true);
  params_.push_back(v);
  return v;
}

int64_t ParameterSet::scalar_count() const {
  int64_t total = 0;
  for (const Var& p : params_) total += p.value().size();
  return total;
}

void ParameterSet::zero_grads() {
  for (const Var& p : params_) {
    Matrix& g = p.data()->ensure_grad();
    g.fill(0.0);
  }
}

AdamOptimizer::AdamOptimizer(ParameterSet& params, Options options)
    : params_(&params), options_(options) {
  for (const Var& p : params_->all()) {
    m_.push_back(Matrix::zeros(p.rows(), p.cols()));
    v_.push_back(Matrix::zeros(p.rows(), p.cols()));
  }
}

void AdamOptimizer::step() {
  check(m_.size() == params_->all().size(),
        "AdamOptimizer: parameters added after construction");
  ++step_count_;

  // Global-norm clipping.
  double scale_factor = 1.0;
  if (options_.clip_global_norm > 0.0) {
    double sq = 0.0;
    for (const Var& p : params_->all()) {
      const Matrix& g = p.data()->ensure_grad();
      const double* gd = g.data();
      for (int64_t i = 0; i < g.size(); ++i) sq += gd[i] * gd[i];
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.clip_global_norm) {
      scale_factor = options_.clip_global_norm / norm;
    }
  }

  const double beta1 = options_.beta1, beta2 = options_.beta2;
  const double learning_rate = options_.learning_rate, epsilon = options_.epsilon;
  const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(step_count_));

  for (size_t i = 0; i < params_->all().size(); ++i) {
    VarData& p = *params_->all()[i].data();
    Matrix& grad = p.ensure_grad();
    double* value = p.value.data();
    const double* g_in = grad.data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    for (int64_t k = 0; k < p.value.size(); ++k) {
      const double g = g_in[k] * scale_factor;
      m[k] = beta1 * m[k] + (1.0 - beta1) * g;
      v[k] = beta2 * v[k] + (1.0 - beta2) * g * g;
      const double m_hat = m[k] / bias1;
      const double v_hat = v[k] / bias2;
      value[k] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
    }
    grad.fill(0.0);
  }
}

Linear::Linear(ParameterSet& params, int in_dim, int out_dim, Rng& rng, bool bias) {
  weight_ = params.add(Matrix::glorot(in_dim, out_dim, rng));
  if (bias) bias_ = params.add(Matrix::zeros(1, out_dim));
}

Var Linear::forward(Tape& tape, const Var& x) const {
  Var out = tape.matmul(x, weight_);
  if (bias_.defined()) out = tape.add_row_broadcast(out, bias_);
  return out;
}

LayerNormLayer::LayerNormLayer(ParameterSet& params, int dim) {
  gain_ = params.add(Matrix(1, dim, 1.0));
  bias_ = params.add(Matrix::zeros(1, dim));
}

Var LayerNormLayer::forward(Tape& tape, const Var& x) const {
  return tape.layer_norm_rows(x, gain_, bias_);
}

MultiHeadSelfAttention::MultiHeadSelfAttention(ParameterSet& params, int model_dim,
                                               int heads, Rng& rng)
    : heads_(heads),
      head_dim_(model_dim / heads),
      wq_(params, model_dim, model_dim, rng, false),
      wk_(params, model_dim, model_dim, rng, false),
      wv_(params, model_dim, model_dim, rng, false),
      wo_(params, model_dim, model_dim, rng) {
  check(model_dim % heads == 0, "MultiHeadSelfAttention: dim not divisible by heads");
}

Var MultiHeadSelfAttention::forward(Tape& tape, const Var& x) const {
  const Var q = wq_.forward(tape, x);
  const Var k = wk_.forward(tape, x);
  const Var v = wv_.forward(tape, x);
  const double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(head_dim_));

  std::vector<Var> contexts;
  contexts.reserve(static_cast<size_t>(heads_));
  for (int h = 0; h < heads_; ++h) {
    const int start = h * head_dim_;
    const Var qh = tape.slice_cols(q, start, head_dim_);
    const Var kh = tape.slice_cols(k, start, head_dim_);
    const Var vh = tape.slice_cols(v, start, head_dim_);
    const Var scores =
        tape.scale(tape.matmul(qh, tape.transpose(kh)), inv_sqrt_dk);
    const Var probs = tape.softmax_rows(scores);
    contexts.push_back(tape.matmul(probs, vh));
  }
  return wo_.forward(tape, tape.concat_cols(contexts));
}

TransformerBlock::TransformerBlock(ParameterSet& params, int model_dim, int heads,
                                   int ffn_dim, Rng& rng)
    : attention_(params, model_dim, heads, rng),
      ln1_(params, model_dim),
      ln2_(params, model_dim),
      ffn1_(params, model_dim, ffn_dim, rng),
      ffn2_(params, ffn_dim, model_dim, rng) {}

Var TransformerBlock::forward(Tape& tape, const Var& x) const {
  const Var attended = ln1_.forward(tape, tape.add(x, attention_.forward(tape, x)));
  const Var ffn = ffn2_.forward(tape, tape.relu(ffn1_.forward(tape, attended)));
  return ln2_.forward(tape, tape.add(attended, ffn));
}

GatLayer::GatLayer(ParameterSet& params, int in_dim, int out_dim_per_head, int heads,
                   Rng& rng, bool average_heads)
    : heads_(heads), head_dim_(out_dim_per_head), average_heads_(average_heads) {
  for (int h = 0; h < heads; ++h) {
    Rng head_rng = rng.fork(static_cast<uint64_t>(h) + 1);
    w_.push_back(params.add(Matrix::glorot(in_dim, out_dim_per_head, head_rng)));
    a_src_.push_back(params.add(Matrix::glorot(out_dim_per_head, 1, head_rng)));
    a_dst_.push_back(params.add(Matrix::glorot(out_dim_per_head, 1, head_rng)));
  }
}

Var GatLayer::forward(Tape& tape, const Var& x, const std::vector<int>& edge_src,
                      const std::vector<int>& edge_dst, int node_count) const {
  check(edge_src.size() == edge_dst.size(), "GatLayer: edge list mismatch");
  std::vector<Var> head_outputs;
  head_outputs.reserve(static_cast<size_t>(heads_));
  for (int h = 0; h < heads_; ++h) {
    const Var hidden = tape.matmul(x, w_[static_cast<size_t>(h)]);  // [O x F]
    const Var src_feat = tape.gather_rows(hidden, edge_src);        // [E x F]
    const Var dst_feat = tape.gather_rows(hidden, edge_dst);
    const Var score_src = tape.matmul(src_feat, a_src_[static_cast<size_t>(h)]);
    const Var score_dst = tape.matmul(dst_feat, a_dst_[static_cast<size_t>(h)]);
    const Var scores = tape.leaky_relu(tape.add(score_src, score_dst));  // [E x 1]
    const Var alpha = tape.segment_softmax(scores, edge_dst, node_count);
    const Var messages = tape.mul_col_broadcast(src_feat, alpha);
    head_outputs.push_back(tape.segment_sum_rows(messages, edge_dst, node_count));
  }

  Var combined;
  if (average_heads_) {
    combined = head_outputs.front();
    for (size_t h = 1; h < head_outputs.size(); ++h) {
      combined = tape.add(combined, head_outputs[h]);
    }
    combined = tape.scale(combined, 1.0 / static_cast<double>(heads_));
  } else {
    combined = tape.concat_cols(head_outputs);
  }
  return tape.elu(combined);
}

}  // namespace heterog::nn
