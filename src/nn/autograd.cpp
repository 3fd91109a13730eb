#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace heterog::nn {

Matrix Workspace::take(int rows, int cols) {
  const int64_t count = static_cast<int64_t>(rows) * cols;
  auto it = free_.find(count);
  if (count == 0 || it == free_.end() || it->second.empty()) {
    return Matrix::uninitialized(rows, cols);
  }
  Matrix m = std::move(it->second.back());
  it->second.pop_back();
  m.reshape(rows, cols);
  return m;
}

void Workspace::give(Matrix m) {
  if (m.size() == 0) return;
  free_[m.size()].push_back(std::move(m));
}

size_t Workspace::held() const {
  size_t total = 0;
  for (const auto& [count, buffers] : free_) total += buffers.size();
  return total;
}

namespace {

bool has_grad(const VarData& v) {
  return v.grad.rows() == v.value.rows() && v.grad.cols() == v.value.cols();
}

/// v's grad, zero-filled on first use: for backward passes that scatter
/// into it or touch only part of it.
Matrix& zeroed_grad(Workspace& ws, VarData& v) {
  if (!has_grad(v)) {
    v.grad = ws.take(v.value.rows(), v.value.cols());
    v.grad.fill(0.0);
  }
  return v.grad;
}

/// Element-wise accumulation into v's grad for backward passes that write
/// every element exactly once. A grad not yet allocated is taken unfilled
/// and each element becomes 0.0 + t: the operation a zero-filled grad would
/// see, without the fill. A skipped term is added as -0.0, which leaves
/// every double unchanged (and gives +0.0 on a fresh grad, as the fill did).
class GradSink {
 public:
  GradSink(Workspace& ws, VarData& v) : fresh_(!has_grad(v)) {
    if (fresh_) v.grad = ws.take(v.value.rows(), v.value.cols());
    g_ = v.grad.data();
  }
  void add(int64_t i, double t) const { g_[i] = (fresh_ ? 0.0 : g_[i]) + t; }

 private:
  bool fresh_;
  double* g_ = nullptr;
};

/// out[i] = value(i) over a rows x cols output from the workspace.
template <typename Value>
Matrix elementwise(Workspace& ws, int rows, int cols, Value&& value) {
  Matrix out = ws.take(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = value(i);
  return out;
}

/// grad(v) += term(i) for every element i through a GradSink; nothing when
/// v needs no grad.
template <typename Term>
void accumulate(Workspace& ws, VarData& v, Term&& term) {
  if (!v.requires_grad) return;
  const GradSink sink(ws, v);
  for (int64_t i = 0; i < v.value.size(); ++i) sink.add(i, term(i));
}

/// grad(v) += P, where kernel(out) writes the product P into `out`. A fresh
/// grad receives P directly: a product's sums start at +0.0 and so are never
/// -0.0, which makes 0.0 + p == p bit for bit.
template <typename Kernel>
void accumulate_product(Workspace& ws, VarData& v, Kernel&& kernel) {
  if (!v.requires_grad) return;
  if (!has_grad(v)) {
    v.grad = ws.take(v.value.rows(), v.value.cols());
    kernel(v.grad);
    return;
  }
  Matrix product = ws.take(v.value.rows(), v.value.cols());
  kernel(product);
  v.grad.add_in_place(product);
  ws.give(std::move(product));
}

}  // namespace

double Var::scalar() const {
  check(rows() == 1 && cols() == 1, "Var::scalar: not 1x1");
  return value().at(0, 0);
}

Tape::~Tape() {
  if (&workspace_ == &own_workspace_) return;  // freed with the tape anyway
  // Newest first: clearing a node's inputs drops its references to older
  // nodes, so their use counts fall to the tape's own by the time they are
  // visited. A node still referenced elsewhere keeps its buffers.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    VarData& node = **it;
    if (it->use_count() != 1) continue;
    workspace_.give(std::move(node.value));
    workspace_.give(std::move(node.grad));
    workspace_.give(std::move(node.saved));
    node.inputs.clear();
  }
}

Var Tape::leaf(Matrix value, bool requires_grad) {
  auto data = std::make_shared<VarData>();
  data->value = std::move(value);
  data->requires_grad = requires_grad;
  return Var(std::move(data));
}

Var Tape::record(Matrix value, std::vector<std::shared_ptr<VarData>> inputs,
                 std::function<void(Workspace&, VarData&)> backward) {
  auto data = std::make_shared<VarData>();
  data->value = std::move(value);
  for (const auto& input : inputs) {
    check(input != nullptr, "record: undefined input");
    data->requires_grad = data->requires_grad || input->requires_grad;
  }
  if (data->requires_grad) {
    data->inputs = std::move(inputs);
    data->backward = std::move(backward);
    order_.push_back(data);
  }
  return Var(std::move(data));
}

Var Tape::matmul(const Var& a, const Var& b) {
  Matrix out = workspace_.take(a.rows(), b.cols());
  nn::matmul_into(a.value(), b.value(), out);
  return record(std::move(out), {a.data(), b.data()}, [](Workspace& ws, VarData& node) {
    VarData& x = *node.inputs[0];
    VarData& y = *node.inputs[1];
    accumulate_product(ws, x, [&](Matrix& out) { matmul_nt_into(node.grad, y.value, out); });
    accumulate_product(ws, y, [&](Matrix& out) { matmul_tn_into(x.value, node.grad, out); });
  });
}

Var Tape::add(const Var& a, const Var& b) {
  check(a.value().same_shape(b.value()), "add: shape mismatch");
  const double* x = a.value().data();
  const double* y = b.value().data();
  Matrix out = elementwise(workspace_, a.rows(), a.cols(), [&](int64_t i) { return x[i] + y[i]; });
  return record(std::move(out), {a.data(), b.data()}, [](Workspace& ws, VarData& node) {
    const double* g = node.grad.data();
    for (const auto& in : node.inputs) accumulate(ws, *in, [&](int64_t i) { return g[i]; });
  });
}

Var Tape::subtract(const Var& a, const Var& b) {
  check(a.value().same_shape(b.value()), "subtract: shape mismatch");
  const double* x = a.value().data();
  const double* y = b.value().data();
  Matrix out =
      elementwise(workspace_, a.rows(), a.cols(), [&](int64_t i) { return x[i] + -1.0 * y[i]; });
  return record(std::move(out), {a.data(), b.data()}, [](Workspace& ws, VarData& node) {
    const double* g = node.grad.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) { return g[i]; });
    accumulate(ws, *node.inputs[1], [&](int64_t i) { return -1.0 * g[i]; });
  });
}

Var Tape::add_row_broadcast(const Var& a, const Var& row) {
  check(row.rows() == 1 && row.cols() == a.cols(), "add_row_broadcast: bad row shape");
  const int n = a.rows(), d = a.cols();
  Matrix out = workspace_.take(n, d);
  const double* bias = row.value().data();
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double* o = out.row(r);
    for (int c = 0; c < d; ++c) o[c] = x[c] + bias[c];
  }
  return record(std::move(out), {a.data(), row.data()}, [](Workspace& ws, VarData& node) {
    const Matrix& g = node.grad;
    accumulate(ws, *node.inputs[0], [&](int64_t i) { return g.data()[i]; });
    if (node.inputs[1]->requires_grad) {
      double* rg = zeroed_grad(ws, *node.inputs[1]).data();
      for (int r = 0; r < g.rows(); ++r) {
        const double* gr = g.row(r);
        for (int c = 0; c < g.cols(); ++c) rg[c] += gr[c];
      }
    }
  });
}

Var Tape::hadamard(const Var& a, const Var& b) {
  check(a.value().same_shape(b.value()), "hadamard: shape mismatch");
  const double* x = a.value().data();
  const double* y = b.value().data();
  Matrix out = elementwise(workspace_, a.rows(), a.cols(), [&](int64_t i) { return x[i] * y[i]; });
  return record(std::move(out), {a.data(), b.data()}, [](Workspace& ws, VarData& node) {
    const double* g = node.grad.data();
    const double* x = node.inputs[0]->value.data();
    const double* y = node.inputs[1]->value.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) { return g[i] * y[i]; });
    accumulate(ws, *node.inputs[1], [&](int64_t i) { return g[i] * x[i]; });
  });
}

Var Tape::scale(const Var& a, double factor) {
  const double* x = a.value().data();
  Matrix out =
      elementwise(workspace_, a.rows(), a.cols(), [&](int64_t i) { return x[i] * factor; });
  return record(std::move(out), {a.data()}, [factor](Workspace& ws, VarData& node) {
    const double* g = node.grad.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) { return factor * g[i]; });
  });
}

Var Tape::mul_col_broadcast(const Var& a, const Var& col) {
  check(col.cols() == 1 && col.rows() == a.rows(), "mul_col_broadcast: bad col shape");
  const int n = a.rows(), d = a.cols();
  Matrix out = workspace_.take(n, d);
  const double* w = col.value().data();
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double* o = out.row(r);
    for (int c = 0; c < d; ++c) o[c] = x[c] * w[r];
  }
  return record(std::move(out), {a.data(), col.data()}, [](Workspace& ws, VarData& node) {
    const Matrix& g = node.grad;
    const VarData& x = *node.inputs[0];
    const VarData& w = *node.inputs[1];
    const int d = g.cols();
    if (x.requires_grad) {
      const GradSink sink(ws, *node.inputs[0]);
      for (int r = 0; r < g.rows(); ++r) {
        const double wr = w.value.data()[r];
        const double* gr = g.row(r);
        for (int c = 0; c < d; ++c) sink.add(static_cast<int64_t>(r) * d + c, gr[c] * wr);
      }
    }
    if (w.requires_grad) {
      const GradSink sink(ws, *node.inputs[1]);
      for (int r = 0; r < g.rows(); ++r) {
        const double* gr = g.row(r);
        const double* xr = x.value.row(r);
        double dot = 0.0;
        for (int c = 0; c < d; ++c) dot += gr[c] * xr[c];
        sink.add(r, dot);
      }
    }
  });
}

Var Tape::relu(const Var& a) {
  const double* x = a.value().data();
  Matrix out =
      elementwise(workspace_, a.rows(), a.cols(), [&](int64_t i) { return std::max(x[i], 0.0); });
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    const double* x = node.inputs[0]->value.data();
    const double* g = node.grad.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) { return x[i] > 0.0 ? g[i] : -0.0; });
  });
}

Var Tape::leaky_relu(const Var& a, double slope) {
  const double* x = a.value().data();
  Matrix out = elementwise(workspace_, a.rows(), a.cols(),
                           [&](int64_t i) { return x[i] < 0.0 ? x[i] * slope : x[i]; });
  return record(std::move(out), {a.data()}, [slope](Workspace& ws, VarData& node) {
    const double* x = node.inputs[0]->value.data();
    const double* g = node.grad.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) {
      const double factor = x[i] > 0.0 ? 1.0 : slope;
      return factor * g[i];
    });
  });
}

Var Tape::elu(const Var& a) {
  const double* x = a.value().data();
  Matrix out = elementwise(workspace_, a.rows(), a.cols(),
                           [&](int64_t i) { return x[i] < 0.0 ? std::exp(x[i]) - 1.0 : x[i]; });
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    const double* x = node.inputs[0]->value.data();
    const double* g = node.grad.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) {
      const double factor = x[i] > 0.0 ? 1.0 : std::exp(x[i]);
      return factor * g[i];
    });
  });
}

Var Tape::tanh_act(const Var& a) {
  const double* x = a.value().data();
  Matrix out =
      elementwise(workspace_, a.rows(), a.cols(), [&](int64_t i) { return std::tanh(x[i]); });
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    const double* y = node.value.data();
    const double* g = node.grad.data();
    accumulate(ws, *node.inputs[0], [&](int64_t i) { return (1.0 - y[i] * y[i]) * g[i]; });
  });
}

Var Tape::softmax_rows(const Var& a) {
  const int n = a.rows(), d = a.cols();
  Matrix out = workspace_.take(n, d);
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double* o = out.row(r);
    double row_max = -1e300;
    for (int c = 0; c < d; ++c) row_max = std::max(row_max, x[c]);
    double total = 0.0;
    for (int c = 0; c < d; ++c) {
      o[c] = std::exp(x[c] - row_max);
      total += o[c];
    }
    for (int c = 0; c < d; ++c) o[c] /= total;
  }
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    const Matrix& p = node.value;
    const int cols = p.cols();
    const GradSink sink(ws, in);
    for (int r = 0; r < p.rows(); ++r) {
      const double* pr = p.row(r);
      const double* gr = node.grad.row(r);
      double dot = 0.0;
      for (int c = 0; c < cols; ++c) dot += gr[c] * pr[c];
      for (int c = 0; c < cols; ++c) {
        sink.add(static_cast<int64_t>(r) * cols + c, pr[c] * (gr[c] - dot));
      }
    }
  });
}

Var Tape::log_softmax_rows(const Var& a) {
  const int n = a.rows(), d = a.cols();
  Matrix out = workspace_.take(n, d);
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double* o = out.row(r);
    double row_max = -1e300;
    for (int c = 0; c < d; ++c) row_max = std::max(row_max, x[c]);
    double total = 0.0;
    for (int c = 0; c < d; ++c) total += std::exp(x[c] - row_max);
    const double log_z = row_max + std::log(total);
    for (int c = 0; c < d; ++c) o[c] = x[c] - log_z;
  }
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    const int cols = node.value.cols();
    const GradSink sink(ws, in);
    for (int r = 0; r < node.value.rows(); ++r) {
      const double* yr = node.value.row(r);
      const double* gr = node.grad.row(r);
      double grad_sum = 0.0;
      for (int c = 0; c < cols; ++c) grad_sum += gr[c];
      for (int c = 0; c < cols; ++c) {
        sink.add(static_cast<int64_t>(r) * cols + c, gr[c] - std::exp(yr[c]) * grad_sum);
      }
    }
  });
}

namespace {

void layer_norm_backward(Workspace& ws, VarData& node) {
  const int n = node.value.rows(), d = node.value.cols();
  VarData& in = *node.inputs[0];
  VarData& gain_node = *node.inputs[1];
  VarData& bias_node = *node.inputs[2];
  if (gain_node.requires_grad) {
    double* gg = zeroed_grad(ws, gain_node).data();
    for (int r = 0; r < n; ++r) {
      const double* gr = node.grad.row(r);
      const double* xhat = node.saved.row(r);
      for (int c = 0; c < d; ++c) gg[c] += gr[c] * xhat[c];
    }
  }
  if (bias_node.requires_grad) {
    double* bg = zeroed_grad(ws, bias_node).data();
    for (int r = 0; r < n; ++r) {
      const double* gr = node.grad.row(r);
      for (int c = 0; c < d; ++c) bg[c] += gr[c];
    }
  }
  if (in.requires_grad) {
    const double* gain = gain_node.value.data();
    const GradSink sink(ws, in);
    for (int r = 0; r < n; ++r) {
      const double* gr = node.grad.row(r);
      const double* xhat = node.saved.row(r);
      // dxhat = dy * gain
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (int c = 0; c < d; ++c) {
        const double dxh = gr[c] * gain[c];
        sum_dxhat += dxh;
        sum_dxhat_xhat += dxh * xhat[c];
      }
      const double istd = xhat[d];
      for (int c = 0; c < d; ++c) {
        const double dxh = gr[c] * gain[c];
        sink.add(static_cast<int64_t>(r) * d + c,
                 istd * (dxh - sum_dxhat / d - xhat[c] * sum_dxhat_xhat / d));
      }
    }
  }
}

}  // namespace

Var Tape::layer_norm_rows(const Var& a, const Var& gain, const Var& bias,
                          double epsilon) {
  const int n = a.rows(), d = a.cols();
  check(gain.rows() == 1 && gain.cols() == d, "layer_norm: bad gain shape");
  check(bias.rows() == 1 && bias.cols() == d, "layer_norm: bad bias shape");

  // saved row r: the normalised activations, then the row's inverse stddev.
  Matrix saved = workspace_.take(n, d + 1);
  Matrix out = workspace_.take(n, d);
  const double* gv = gain.value().data();
  const double* bv = bias.value().data();
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    double* xhat = saved.row(r);
    double* o = out.row(r);
    double mean = 0.0;
    for (int c = 0; c < d; ++c) mean += x[c];
    mean /= d;
    double var = 0.0;
    for (int c = 0; c < d; ++c) {
      const double diff = x[c] - mean;
      var += diff * diff;
    }
    var /= d;
    const double istd = 1.0 / std::sqrt(var + epsilon);
    xhat[d] = istd;
    for (int c = 0; c < d; ++c) {
      const double norm = (x[c] - mean) * istd;
      xhat[c] = norm;
      o[c] = gv[c] * norm + bv[c];
    }
  }

  Var result = record(std::move(out), {a.data(), gain.data(), bias.data()},
                      layer_norm_backward);
  if (result.requires_grad()) {
    result.data()->saved = std::move(saved);
  } else {
    workspace_.give(std::move(saved));
  }
  return result;
}

Var Tape::transpose(const Var& a) {
  const int n = a.rows(), d = a.cols();
  Matrix out = workspace_.take(d, n);
  for (int r = 0; r < n; ++r) {
    const double* x = a.value().row(r);
    for (int c = 0; c < d; ++c) out.data()[static_cast<size_t>(c) * n + r] = x[c];
  }
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    const int rows = in.value.rows(), cols = in.value.cols();
    const GradSink sink(ws, in);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        sink.add(static_cast<int64_t>(r) * cols + c, node.grad.row(c)[r]);
      }
    }
  });
}

Var Tape::concat_cols(const std::vector<Var>& parts) {
  check(!parts.empty(), "concat_cols: empty");
  const int n = parts.front().rows();
  int total_cols = 0;
  std::vector<std::shared_ptr<VarData>> inputs;
  inputs.reserve(parts.size());
  for (const Var& p : parts) {
    check(p.rows() == n, "concat_cols: row mismatch");
    total_cols += p.cols();
    inputs.push_back(p.data());
  }
  Matrix out = workspace_.take(n, total_cols);
  int offset = 0;
  for (const Var& p : parts) {
    for (int r = 0; r < n; ++r) {
      std::copy_n(p.value().row(r), p.cols(), out.row(r) + offset);
    }
    offset += p.cols();
  }
  return record(std::move(out), std::move(inputs), [](Workspace& ws, VarData& node) {
    int off = 0;
    for (const auto& part : node.inputs) {
      const int cols = part->value.cols();
      if (part->requires_grad) {
        const GradSink sink(ws, *part);
        for (int r = 0; r < part->value.rows(); ++r) {
          const double* gr = node.grad.row(r) + off;
          for (int c = 0; c < cols; ++c) sink.add(static_cast<int64_t>(r) * cols + c, gr[c]);
        }
      }
      off += cols;
    }
  });
}

Var Tape::slice_cols(const Var& a, int start, int count) {
  check(start >= 0 && count > 0 && start + count <= a.cols(), "slice_cols: bad range");
  Matrix out = workspace_.take(a.rows(), count);
  for (int r = 0; r < a.rows(); ++r) std::copy_n(a.value().row(r) + start, count, out.row(r));
  return record(std::move(out), {a.data()}, [start](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    Matrix& g = zeroed_grad(ws, in);
    for (int r = 0; r < node.grad.rows(); ++r) {
      const double* gr = node.grad.row(r);
      double* dst = g.row(r) + start;
      for (int c = 0; c < node.grad.cols(); ++c) dst[c] += gr[c];
    }
  });
}

Var Tape::gather_rows(const Var& a, const std::vector<int>& indices) {
  const int d = a.cols();
  Matrix out = workspace_.take(static_cast<int>(indices.size()), d);
  for (size_t i = 0; i < indices.size(); ++i) {
    const int src = indices[i];
    check(src >= 0 && src < a.rows(), "gather_rows: index out of range");
    std::copy_n(a.value().row(src), d, out.row(static_cast<int>(i)));
  }
  const std::span<const int> index(indices);
  return record(std::move(out), {a.data()}, [index](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    Matrix& g = zeroed_grad(ws, in);
    const int cols = g.cols();
    for (size_t i = 0; i < index.size(); ++i) {
      const double* gr = node.grad.row(static_cast<int>(i));
      double* dst = g.row(index[i]);
      for (int c = 0; c < cols; ++c) dst[c] += gr[c];
    }
  });
}

Var Tape::segment_sum_rows(const Var& a, const std::vector<int>& segments,
                           int segment_count) {
  check(static_cast<int>(segments.size()) == a.rows(), "segment_sum_rows: size mismatch");
  const int d = a.cols();
  Matrix out = workspace_.take(segment_count, d);
  out.fill(0.0);
  for (size_t e = 0; e < segments.size(); ++e) {
    const int s = segments[e];
    check(s >= 0 && s < segment_count, "segment_sum_rows: bad segment");
    const double* x = a.value().row(static_cast<int>(e));
    double* o = out.row(s);
    for (int c = 0; c < d; ++c) o[c] += x[c];
  }
  const std::span<const int> seg(segments);
  return record(std::move(out), {a.data()}, [seg](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    const int cols = in.value.cols();
    const GradSink sink(ws, in);
    for (size_t e = 0; e < seg.size(); ++e) {
      const double* gr = node.grad.row(seg[e]);
      for (int c = 0; c < cols; ++c) sink.add(static_cast<int64_t>(e) * cols + c, gr[c]);
    }
  });
}

Var Tape::segment_mean_rows(const Var& a, const std::vector<int>& segments,
                            int segment_count) {
  std::vector<double> counts(static_cast<size_t>(segment_count), 0.0);
  for (int s : segments) {
    check(s >= 0 && s < segment_count, "segment_mean_rows: bad segment");
    counts[static_cast<size_t>(s)] += 1.0;
  }
  const Var sums = segment_sum_rows(a, segments, segment_count);
  // Scale each row by 1/count using mul_col_broadcast with a constant column.
  Matrix inv(segment_count, 1);
  for (int s = 0; s < segment_count; ++s) {
    inv.at(s, 0) = counts[static_cast<size_t>(s)] > 0.0
                       ? 1.0 / counts[static_cast<size_t>(s)]
                       : 0.0;
  }
  return mul_col_broadcast(sums, leaf(std::move(inv), false));
}

Var Tape::segment_softmax(const Var& a, const std::vector<int>& segments,
                          int segment_count) {
  check(static_cast<int>(segments.size()) == a.rows(), "segment_softmax: size mismatch");
  const int h = a.cols();
  // Max per (segment, column) for numerical stability.
  Matrix seg_max = workspace_.take(segment_count, h);
  seg_max.fill(-1e300);
  for (size_t e = 0; e < segments.size(); ++e) {
    const int s = segments[e];
    check(s >= 0 && s < segment_count, "segment_softmax: bad segment");
    const double* x = a.value().row(static_cast<int>(e));
    double* m = seg_max.row(s);
    for (int c = 0; c < h; ++c) m[c] = std::max(m[c], x[c]);
  }
  Matrix seg_sum = workspace_.take(segment_count, h);
  seg_sum.fill(0.0);
  Matrix out = workspace_.take(a.rows(), h);
  for (size_t e = 0; e < segments.size(); ++e) {
    const double* x = a.value().row(static_cast<int>(e));
    const double* m = seg_max.row(segments[e]);
    double* sum = seg_sum.row(segments[e]);
    double* o = out.row(static_cast<int>(e));
    for (int c = 0; c < h; ++c) {
      o[c] = std::exp(x[c] - m[c]);
      sum[c] += o[c];
    }
  }
  for (size_t e = 0; e < segments.size(); ++e) {
    const double* sum = seg_sum.row(segments[e]);
    double* o = out.row(static_cast<int>(e));
    for (int c = 0; c < h; ++c) o[c] /= sum[c];
  }
  workspace_.give(std::move(seg_max));
  workspace_.give(std::move(seg_sum));
  const std::span<const int> seg(segments);
  return record(std::move(out), {a.data()}, [seg, segment_count](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    const Matrix& p = node.value;
    const int cols = p.cols();
    // dot[s, c] = sum over e in s of grad * p
    Matrix dot = ws.take(segment_count, cols);
    dot.fill(0.0);
    for (size_t e = 0; e < seg.size(); ++e) {
      const double* gr = node.grad.row(static_cast<int>(e));
      const double* pr = p.row(static_cast<int>(e));
      double* dr = dot.row(seg[e]);
      for (int c = 0; c < cols; ++c) dr[c] += gr[c] * pr[c];
    }
    const GradSink sink(ws, in);
    for (size_t e = 0; e < seg.size(); ++e) {
      const double* gr = node.grad.row(static_cast<int>(e));
      const double* pr = p.row(static_cast<int>(e));
      const double* dr = dot.row(seg[e]);
      for (int c = 0; c < cols; ++c) {
        sink.add(static_cast<int64_t>(e) * cols + c, pr[c] * (gr[c] - dr[c]));
      }
    }
    ws.give(std::move(dot));
  });
}

Var Tape::sum_all(const Var& a) {
  Matrix out = workspace_.take(1, 1);
  out.data()[0] = a.value().sum();
  return record(std::move(out), {a.data()}, [](Workspace& ws, VarData& node) {
    const double d = node.grad.data()[0];
    accumulate(ws, *node.inputs[0], [d](int64_t) { return d; });
  });
}

Var Tape::mean_all(const Var& a) {
  const double inv = 1.0 / static_cast<double>(a.value().size());
  return scale(sum_all(a), inv);
}

Var Tape::pick_per_row(const Var& a, const std::vector<int>& columns) {
  check(static_cast<int>(columns.size()) == a.rows(), "pick_per_row: size mismatch");
  Matrix out = workspace_.take(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    const int c = columns[static_cast<size_t>(r)];
    check(c >= 0 && c < a.cols(), "pick_per_row: column out of range");
    out.data()[r] = a.value().row(r)[c];
  }
  const std::span<const int> picked(columns);
  return record(std::move(out), {a.data()}, [picked](Workspace& ws, VarData& node) {
    VarData& in = *node.inputs[0];
    if (!in.requires_grad) return;
    Matrix& g = zeroed_grad(ws, in);
    for (int r = 0; r < g.rows(); ++r) {
      g.row(r)[picked[static_cast<size_t>(r)]] += node.grad.data()[r];
    }
  });
}

void Tape::backward(const Var& loss) {
  check(loss.defined(), "backward: undefined loss");
  check(loss.rows() == 1 && loss.cols() == 1, "backward: loss must be 1x1");
  zeroed_grad(workspace_, *loss.data()).data()[0] = 1.0;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    VarData& node = **it;
    if (node.backward && has_grad(node)) node.backward(workspace_, node);
    // Every consumer of this node was recorded after it and has run, so its
    // grad is spent: recycle it for the older nodes' grads.
    workspace_.give(std::move(node.grad));
  }
}

}  // namespace heterog::nn
