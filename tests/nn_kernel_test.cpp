// Kernel oracle: the matrix kernels and every autograd op, checked bit for
// bit (memcmp) against the plain loops they replaced, which this file keeps
// as the reference. Shapes include 1-wide, 8-wide and 0-row matrices, and
// inputs hold exact 0.0 and -0.0 (plus infinities for the products, where
// the zero-skip decides whether 0 * inf poisons a sum). Each op is checked
// with fresh input grads and with grads that already hold values, the two
// paths the backward pass distinguishes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "nn/autograd.h"
#include "nn/layers.h"

namespace heterog::nn {
namespace {

// --- reference loops ------------------------------------------------------

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c.at(i, j) += aik * b.at(k, j);
    }
  }
  return c;
}

Matrix ref_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = a.at(k, i);
      if (aki == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c.at(i, j) += aki * b.at(k, j);
    }
  }
  return c;
}

Matrix ref_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double dot = 0.0;
      for (int k = 0; k < a.cols(); ++k) dot += a.at(i, k) * b.at(j, k);
      c.at(i, j) = dot;
    }
  }
  return c;
}

Matrix ref_transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) t.at(c, r) = a.at(r, c);
  }
  return t;
}

void ref_add_scaled_into(Matrix& g, const Matrix& t, double factor) {
  for (int r = 0; r < g.rows(); ++r) {
    for (int c = 0; c < g.cols(); ++c) g.at(r, c) += factor * t.at(r, c);
  }
}

/// A reference op: computes the output of `in`, then adds the gradient of
/// sum(out * G) into `grads` (one per input, already zero or preset).
using RefOp = std::function<Matrix(const std::vector<Matrix>& in, const Matrix& g,
                                   std::vector<Matrix>& grads)>;
using TapeOp = std::function<Var(Tape&, const std::vector<Var>&)>;

// --- harness --------------------------------------------------------------

/// Normal values with about a quarter exact +0.0 / -0.0.
Matrix random_matrix(int rows, int cols, Rng& rng, bool with_infinities = false) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const double u = rng.uniform();
    double v = rng.normal(0.0, 1.0);
    if (u < 0.125) v = 0.0;
    else if (u < 0.25) v = -0.0;
    else if (with_infinities && u < 0.3) v = u < 0.275 ? std::numeric_limits<double>::infinity()
                                                       : -std::numeric_limits<double>::infinity();
    m.data()[i] = v;
  }
  return m;
}

::testing::AssertionResult bits_equal(const Matrix& got, const Matrix& want) {
  if (!got.same_shape(want)) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs " << want.rows() << "x"
           << want.cols();
  }
  if (got.size() == 0) return ::testing::AssertionSuccess();
  if (std::memcmp(got.data(), want.data(), static_cast<size_t>(got.size()) * sizeof(double)) !=
      0) {
    for (int64_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(got.data() + i, want.data() + i, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "element " << i << ": " << got.data()[i] << " vs " << want.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs `tape_op` on leaves holding `inputs` (on a fresh tape and on a tape
/// over a workspace already holding recycled buffers), back-propagates
/// sum(out * w), and compares the output and every input grad with
/// `ref_op` bit for bit. With `preset`, the input grads start from random
/// values instead of being unallocated.
void expect_matches(const std::string& name, const std::vector<Matrix>& inputs,
                    const TapeOp& tape_op, const RefOp& ref_op, bool preset,
                    uint64_t seed) {
  SCOPED_TRACE(name + (preset ? " (preset grads)" : " (fresh grads)"));
  Rng rng(seed);
  std::vector<Matrix> start;
  for (const Matrix& in : inputs) start.push_back(random_matrix(in.rows(), in.cols(), rng));

  Workspace workspace;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "first tape" : "recycled buffers");
    Tape tape(workspace);
    std::vector<Var> vars;
    for (size_t k = 0; k < inputs.size(); ++k) {
      vars.push_back(tape.leaf(inputs[k], /*requires_grad=*/true));
      if (preset) vars.back().ensure_grad() = start[k];
    }
    const Var out = tape_op(tape, vars);
    Rng w_rng(seed + 1);
    const Matrix w = random_matrix(out.rows(), out.cols(), w_rng);
    tape.backward(tape.sum_all(tape.hadamard(out, tape.leaf(w, false))));

    // Upstream grad as the sweep delivers it: sum_all hands 1.0 to every
    // element, hadamard multiplies by w, both into fresh grads.
    Matrix g(w.rows(), w.cols());
    for (int64_t i = 0; i < g.size(); ++i) g.data()[i] = 0.0 + (0.0 + 1.0) * w.data()[i];
    std::vector<Matrix> grads;
    for (size_t k = 0; k < inputs.size(); ++k) {
      grads.push_back(preset ? start[k] : Matrix(inputs[k].rows(), inputs[k].cols()));
    }
    const Matrix want = ref_op(inputs, g, grads);
    EXPECT_TRUE(bits_equal(out.value(), want)) << "output";
    for (size_t k = 0; k < inputs.size(); ++k) {
      EXPECT_TRUE(bits_equal(vars[k].grad(), grads[k])) << "grad of input " << k;
    }
  }
}

/// Row counts every op is checked at: 0 rows, 1 row, and a few.
constexpr int kRows[] = {0, 1, 5, 13};
/// Column counts: 1-wide, 8-wide, and widths that leave register-block tails.
constexpr int kCols[] = {1, 8, 3, 11, 17};

void for_each_shape(const std::function<void(int, int, uint64_t)>& body) {
  uint64_t seed = 1;
  for (int n : kRows) {
    for (int d : kCols) body(n, d, seed++);
  }
}

void check_both(const std::string& name, const std::vector<Matrix>& inputs,
                const TapeOp& tape_op, const RefOp& ref_op, uint64_t seed) {
  expect_matches(name, inputs, tape_op, ref_op, /*preset=*/false, seed);
  expect_matches(name, inputs, tape_op, ref_op, /*preset=*/true, seed);
}

// --- kernels --------------------------------------------------------------

TEST(NnKernel, ProductsMatchReferenceLoopsBitForBit) {
  Rng rng(11);
  const int sizes[] = {0, 1, 2, 3, 7, 8, 9, 16, 19};
  for (int m : sizes) {
    for (int k : sizes) {
      for (int n : sizes) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n));
        const Matrix a = random_matrix(m, k, rng, /*with_infinities=*/true);
        const Matrix b = random_matrix(k, n, rng, true);
        const Matrix at = random_matrix(k, m, rng, true);
        const Matrix bt = random_matrix(n, k, rng, true);
        EXPECT_TRUE(bits_equal(matmul(a, b), ref_matmul(a, b)));
        EXPECT_TRUE(bits_equal(matmul_tn(at, b), ref_matmul_tn(at, b)));
        EXPECT_TRUE(bits_equal(matmul_nt(a, bt), ref_matmul_nt(a, bt)));
      }
    }
  }
}

TEST(NnKernel, IntoVariantsOverwriteStaleOutputs) {
  Rng rng(12);
  const Matrix a = random_matrix(5, 9, rng, true);
  const Matrix b = random_matrix(9, 11, rng, true);
  const Matrix bt = random_matrix(11, 9, rng, true);
  const Matrix a2 = random_matrix(9, 5, rng, true);
  Matrix c(5, 11, std::numeric_limits<double>::quiet_NaN());
  matmul_into(a, b, c);
  EXPECT_TRUE(bits_equal(c, ref_matmul(a, b)));
  c.fill(std::numeric_limits<double>::quiet_NaN());
  matmul_nt_into(a, bt, c);
  EXPECT_TRUE(bits_equal(c, ref_matmul_nt(a, bt)));
  c.fill(std::numeric_limits<double>::quiet_NaN());
  matmul_tn_into(a2, b, c);
  EXPECT_TRUE(bits_equal(c, ref_matmul_tn(a2, b)));
  Matrix wrong(4, 11);
  EXPECT_THROW(matmul_into(a, b, wrong), CheckError);
}

TEST(NnKernel, TransposeMatchesReference) {
  Rng rng(13);
  for_each_shape([&](int n, int d, uint64_t) {
    const Matrix a = random_matrix(n, d, rng);
    EXPECT_TRUE(bits_equal(a.transpose(), ref_transpose(a)));
  });
}

// --- autograd ops ---------------------------------------------------------

TEST(NnKernel, MatmulOpMatchesReference) {
  Rng rng(21);
  for (int n : kRows) {
    for (int k : {1, 8, 5}) {
      for (int m : kCols) {
        const std::vector<Matrix> in = {random_matrix(n, k, rng), random_matrix(k, m, rng)};
        check_both("matmul", in,
                   [](Tape& t, const std::vector<Var>& v) { return t.matmul(v[0], v[1]); },
                   [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                     gr[0].add_in_place(ref_matmul_nt(g, x[1]));
                     gr[1].add_in_place(ref_matmul_tn(x[0], g));
                     return ref_matmul(x[0], x[1]);
                   },
                   static_cast<uint64_t>(n * 100 + k * 10 + m));
      }
    }
  }
}

TEST(NnKernel, ElementwiseBinaryOpsMatchReference) {
  Rng rng(22);
  for_each_shape([&](int n, int d, uint64_t seed) {
    const std::vector<Matrix> in = {random_matrix(n, d, rng), random_matrix(n, d, rng)};
    check_both("add", in, [](Tape& t, const std::vector<Var>& v) { return t.add(v[0], v[1]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 out.add_in_place(x[1]);
                 gr[0].add_in_place(g);
                 gr[1].add_in_place(g);
                 return out;
               },
               seed);
    check_both("subtract", in,
               [](Tape& t, const std::vector<Var>& v) { return t.subtract(v[0], v[1]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 ref_add_scaled_into(out, x[1], -1.0);
                 gr[0].add_in_place(g);
                 ref_add_scaled_into(gr[1], g, -1.0);
                 return out;
               },
               seed);
    check_both("hadamard", in,
               [](Tape& t, const std::vector<Var>& v) { return t.hadamard(v[0], v[1]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 Matrix ga = g, gb = g;
                 for (int64_t i = 0; i < out.size(); ++i) {
                   out.data()[i] *= x[1].data()[i];
                   ga.data()[i] *= x[1].data()[i];
                   gb.data()[i] *= x[0].data()[i];
                 }
                 gr[0].add_in_place(ga);
                 gr[1].add_in_place(gb);
                 return out;
               },
               seed);
    check_both("hadamard(x, x)", {in[0]},
               [](Tape& t, const std::vector<Var>& v) { return t.hadamard(v[0], v[0]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 Matrix gx = g;
                 for (int64_t i = 0; i < out.size(); ++i) {
                   out.data()[i] *= x[0].data()[i];
                   gx.data()[i] *= x[0].data()[i];
                 }
                 gr[0].add_in_place(gx);
                 gr[0].add_in_place(gx);
                 return out;
               },
               seed);
  });
}

TEST(NnKernel, BroadcastOpsMatchReference) {
  Rng rng(23);
  for_each_shape([&](int n, int d, uint64_t seed) {
    check_both("add_row_broadcast", {random_matrix(n, d, rng), random_matrix(1, d, rng)},
               [](Tape& t, const std::vector<Var>& v) {
                 return t.add_row_broadcast(v[0], v[1]);
               },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 for (int r = 0; r < out.rows(); ++r) {
                   for (int c = 0; c < out.cols(); ++c) out.at(r, c) += x[1].at(0, c);
                 }
                 gr[0].add_in_place(g);
                 for (int r = 0; r < g.rows(); ++r) {
                   for (int c = 0; c < g.cols(); ++c) gr[1].at(0, c) += g.at(r, c);
                 }
                 return out;
               },
               seed);
    check_both("mul_col_broadcast", {random_matrix(n, d, rng), random_matrix(n, 1, rng)},
               [](Tape& t, const std::vector<Var>& v) {
                 return t.mul_col_broadcast(v[0], v[1]);
               },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 for (int r = 0; r < out.rows(); ++r) {
                   for (int c = 0; c < out.cols(); ++c) out.at(r, c) *= x[1].at(r, 0);
                 }
                 for (int r = 0; r < g.rows(); ++r) {
                   for (int c = 0; c < g.cols(); ++c) {
                     gr[0].at(r, c) += g.at(r, c) * x[1].at(r, 0);
                   }
                 }
                 for (int r = 0; r < g.rows(); ++r) {
                   double dot = 0.0;
                   for (int c = 0; c < g.cols(); ++c) dot += g.at(r, c) * x[0].at(r, c);
                   gr[1].at(r, 0) += dot;
                 }
                 return out;
               },
               seed);
    check_both("scale", {random_matrix(n, d, rng)},
               [](Tape& t, const std::vector<Var>& v) { return t.scale(v[0], -0.37); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 out.scale_in_place(-0.37);
                 ref_add_scaled_into(gr[0], g, -0.37);
                 return out;
               },
               seed);
  });
}

/// Reference for an element-wise activation: value(x) forward, and grad
/// += factor(x, y) * g per element, or nothing where skip(x) holds.
RefOp ref_activation(std::function<double(double)> value,
                     std::function<double(double, double)> factor,
                     std::function<bool(double)> skip = nullptr) {
  return [=](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
    Matrix out = x[0];
    for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = value(x[0].data()[i]);
    for (int64_t i = 0; i < out.size(); ++i) {
      const double xi = x[0].data()[i];
      if (skip && skip(xi)) continue;
      gr[0].data()[i] += factor(xi, out.data()[i]) * g.data()[i];
    }
    return out;
  };
}

TEST(NnKernel, ActivationsMatchReference) {
  Rng rng(24);
  for_each_shape([&](int n, int d, uint64_t seed) {
    const std::vector<Matrix> in = {random_matrix(n, d, rng)};
    check_both("relu", in, [](Tape& t, const std::vector<Var>& v) { return t.relu(v[0]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 for (int64_t i = 0; i < out.size(); ++i) {
                   out.data()[i] = std::max(out.data()[i], 0.0);
                 }
                 for (int64_t i = 0; i < out.size(); ++i) {
                   if (x[0].data()[i] > 0.0) gr[0].data()[i] += g.data()[i];
                 }
                 return out;
               },
               seed);
    check_both("leaky_relu", in,
               [](Tape& t, const std::vector<Var>& v) { return t.leaky_relu(v[0], 0.2); },
               ref_activation([](double x) { return x < 0.0 ? x * 0.2 : x; },
                              [](double x, double) { return x > 0.0 ? 1.0 : 0.2; }),
               seed);
    check_both("elu", in, [](Tape& t, const std::vector<Var>& v) { return t.elu(v[0]); },
               ref_activation([](double x) { return x < 0.0 ? std::exp(x) - 1.0 : x; },
                              [](double x, double) { return x > 0.0 ? 1.0 : std::exp(x); }),
               seed);
    check_both("tanh", in, [](Tape& t, const std::vector<Var>& v) { return t.tanh_act(v[0]); },
               ref_activation([](double x) { return std::tanh(x); },
                              [](double, double y) { return 1.0 - y * y; }),
               seed);
  });
}

TEST(NnKernel, RowSoftmaxesAndLayerNormMatchReference) {
  Rng rng(25);
  for_each_shape([&](int n, int d, uint64_t seed) {
    const std::vector<Matrix> in = {random_matrix(n, d, rng)};
    check_both("softmax_rows", in,
               [](Tape& t, const std::vector<Var>& v) { return t.softmax_rows(v[0]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 for (int r = 0; r < out.rows(); ++r) {
                   double row_max = -1e300;
                   for (int c = 0; c < out.cols(); ++c) row_max = std::max(row_max, out.at(r, c));
                   double total = 0.0;
                   for (int c = 0; c < out.cols(); ++c) {
                     out.at(r, c) = std::exp(out.at(r, c) - row_max);
                     total += out.at(r, c);
                   }
                   for (int c = 0; c < out.cols(); ++c) out.at(r, c) /= total;
                 }
                 for (int r = 0; r < out.rows(); ++r) {
                   double dot = 0.0;
                   for (int c = 0; c < out.cols(); ++c) dot += g.at(r, c) * out.at(r, c);
                   for (int c = 0; c < out.cols(); ++c) {
                     gr[0].at(r, c) += out.at(r, c) * (g.at(r, c) - dot);
                   }
                 }
                 return out;
               },
               seed);
    check_both("log_softmax_rows", in,
               [](Tape& t, const std::vector<Var>& v) { return t.log_softmax_rows(v[0]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out = x[0];
                 for (int r = 0; r < out.rows(); ++r) {
                   double row_max = -1e300;
                   for (int c = 0; c < out.cols(); ++c) row_max = std::max(row_max, out.at(r, c));
                   double total = 0.0;
                   for (int c = 0; c < out.cols(); ++c) total += std::exp(out.at(r, c) - row_max);
                   const double log_z = row_max + std::log(total);
                   for (int c = 0; c < out.cols(); ++c) out.at(r, c) -= log_z;
                 }
                 for (int r = 0; r < out.rows(); ++r) {
                   double grad_sum = 0.0;
                   for (int c = 0; c < out.cols(); ++c) grad_sum += g.at(r, c);
                   for (int c = 0; c < out.cols(); ++c) {
                     gr[0].at(r, c) += g.at(r, c) - std::exp(out.at(r, c)) * grad_sum;
                   }
                 }
                 return out;
               },
               seed);
    check_both("layer_norm_rows",
               {in[0], random_matrix(1, d, rng), random_matrix(1, d, rng)},
               [](Tape& t, const std::vector<Var>& v) {
                 return t.layer_norm_rows(v[0], v[1], v[2]);
               },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 const int rows = x[0].rows(), d2 = x[0].cols();
                 const double epsilon = 1e-5;
                 Matrix xhat(rows, d2), out(rows, d2);
                 std::vector<double> inv_std(static_cast<size_t>(rows));
                 for (int r = 0; r < rows; ++r) {
                   double mean = 0.0;
                   for (int c = 0; c < d2; ++c) mean += x[0].at(r, c);
                   mean /= d2;
                   double var = 0.0;
                   for (int c = 0; c < d2; ++c) {
                     const double diff = x[0].at(r, c) - mean;
                     var += diff * diff;
                   }
                   var /= d2;
                   const double istd = 1.0 / std::sqrt(var + epsilon);
                   inv_std[static_cast<size_t>(r)] = istd;
                   for (int c = 0; c < d2; ++c) {
                     const double norm = (x[0].at(r, c) - mean) * istd;
                     xhat.at(r, c) = norm;
                     out.at(r, c) = x[1].at(0, c) * norm + x[2].at(0, c);
                   }
                 }
                 for (int r = 0; r < rows; ++r) {
                   for (int c = 0; c < d2; ++c) gr[1].at(0, c) += g.at(r, c) * xhat.at(r, c);
                 }
                 for (int r = 0; r < rows; ++r) {
                   for (int c = 0; c < d2; ++c) gr[2].at(0, c) += g.at(r, c);
                 }
                 for (int r = 0; r < rows; ++r) {
                   double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
                   for (int c = 0; c < d2; ++c) {
                     const double dxh = g.at(r, c) * x[1].at(0, c);
                     sum_dxhat += dxh;
                     sum_dxhat_xhat += dxh * xhat.at(r, c);
                   }
                   const double istd = inv_std[static_cast<size_t>(r)];
                   for (int c = 0; c < d2; ++c) {
                     const double dxh = g.at(r, c) * x[1].at(0, c);
                     gr[0].at(r, c) += istd * (dxh - sum_dxhat / d2 -
                                               xhat.at(r, c) * sum_dxhat_xhat / d2);
                   }
                 }
                 return out;
               },
               seed);
  });
}

TEST(NnKernel, ShapeOpsMatchReference) {
  Rng rng(26);
  for_each_shape([&](int n, int d, uint64_t seed) {
    const std::vector<Matrix> in = {random_matrix(n, d, rng)};
    check_both("transpose", in,
               [](Tape& t, const std::vector<Var>& v) { return t.transpose(v[0]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 gr[0].add_in_place(ref_transpose(g));
                 return ref_transpose(x[0]);
               },
               seed);
    check_both("concat_cols", {in[0], random_matrix(n, 3, rng), in[0]},
               [](Tape& t, const std::vector<Var>& v) {
                 return t.concat_cols({v[0], v[1], v[2], v[0]});
               },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 const std::vector<int> parts = {0, 1, 2, 0};
                 int total = 0;
                 for (int p : parts) total += x[static_cast<size_t>(p)].cols();
                 Matrix out(x[0].rows(), total);
                 int offset = 0;
                 for (int p : parts) {
                   const Matrix& m = x[static_cast<size_t>(p)];
                   for (int r = 0; r < m.rows(); ++r) {
                     for (int c = 0; c < m.cols(); ++c) out.at(r, offset + c) = m.at(r, c);
                   }
                   offset += m.cols();
                 }
                 int off = 0;
                 for (int p : parts) {
                   Matrix& gp = gr[static_cast<size_t>(p)];
                   for (int r = 0; r < gp.rows(); ++r) {
                     for (int c = 0; c < gp.cols(); ++c) gp.at(r, c) += g.at(r, off + c);
                   }
                   off += gp.cols();
                 }
                 return out;
               },
               seed);
    if (d >= 2) {
      const int start = 1, count = d - 1;
      check_both("slice_cols", in,
                 [=](Tape& t, const std::vector<Var>& v) {
                   return t.slice_cols(v[0], start, count);
                 },
                 [=](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                   Matrix out(x[0].rows(), count);
                   for (int r = 0; r < x[0].rows(); ++r) {
                     for (int c = 0; c < count; ++c) out.at(r, c) = x[0].at(r, start + c);
                   }
                   for (int r = 0; r < g.rows(); ++r) {
                     for (int c = 0; c < g.cols(); ++c) gr[0].at(r, start + c) += g.at(r, c);
                   }
                   return out;
                 },
                 seed);
    }
  });
}

TEST(NnKernel, GraphAndReductionOpsMatchReference) {
  Rng rng(27);
  for_each_shape([&](int n, int d, uint64_t seed) {
    const std::vector<Matrix> in = {random_matrix(n, d, rng)};
    // Edge-style index lists over the n rows: repeats, gaps, any order.
    std::vector<int> indices, segments, columns;
    for (int e = 0; e < 2 * n; ++e) indices.push_back(rng.uniform_int(0, n - 1));
    const int segment_count = n + 2;  // some segments stay empty
    for (int e = 0; e < n; ++e) segments.push_back(rng.uniform_int(0, segment_count - 1));
    for (int r = 0; r < n; ++r) columns.push_back(rng.uniform_int(0, d - 1));

    check_both("gather_rows", in,
               [&](Tape& t, const std::vector<Var>& v) { return t.gather_rows(v[0], indices); },
               [&](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out(static_cast<int>(indices.size()), x[0].cols());
                 for (size_t i = 0; i < indices.size(); ++i) {
                   for (int c = 0; c < x[0].cols(); ++c) {
                     out.at(static_cast<int>(i), c) = x[0].at(indices[i], c);
                   }
                 }
                 for (size_t i = 0; i < indices.size(); ++i) {
                   for (int c = 0; c < gr[0].cols(); ++c) {
                     gr[0].at(indices[i], c) += g.at(static_cast<int>(i), c);
                   }
                 }
                 return out;
               },
               seed);
    check_both("segment_sum_rows", in,
               [&](Tape& t, const std::vector<Var>& v) {
                 return t.segment_sum_rows(v[0], segments, segment_count);
               },
               [&](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out(segment_count, x[0].cols());
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < x[0].cols(); ++c) {
                     out.at(segments[e], c) += x[0].at(static_cast<int>(e), c);
                   }
                 }
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < gr[0].cols(); ++c) {
                     gr[0].at(static_cast<int>(e), c) += g.at(segments[e], c);
                   }
                 }
                 return out;
               },
               seed);
    check_both("segment_softmax", in,
               [&](Tape& t, const std::vector<Var>& v) {
                 return t.segment_softmax(v[0], segments, segment_count);
               },
               [&](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 const int h = x[0].cols();
                 Matrix out = x[0];
                 Matrix seg_max(segment_count, h, -1e300);
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < h; ++c) {
                     seg_max.at(segments[e], c) =
                         std::max(seg_max.at(segments[e], c), out.at(static_cast<int>(e), c));
                   }
                 }
                 Matrix seg_sum(segment_count, h);
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < h; ++c) {
                     double& v = out.at(static_cast<int>(e), c);
                     v = std::exp(v - seg_max.at(segments[e], c));
                     seg_sum.at(segments[e], c) += v;
                   }
                 }
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < h; ++c) {
                     out.at(static_cast<int>(e), c) /= seg_sum.at(segments[e], c);
                   }
                 }
                 Matrix dot(segment_count, h);
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < h; ++c) {
                     dot.at(segments[e], c) +=
                         g.at(static_cast<int>(e), c) * out.at(static_cast<int>(e), c);
                   }
                 }
                 for (size_t e = 0; e < segments.size(); ++e) {
                   for (int c = 0; c < h; ++c) {
                     gr[0].at(static_cast<int>(e), c) +=
                         out.at(static_cast<int>(e), c) *
                         (g.at(static_cast<int>(e), c) - dot.at(segments[e], c));
                   }
                 }
                 return out;
               },
               seed);
    check_both("sum_all", in, [](Tape& t, const std::vector<Var>& v) { return t.sum_all(v[0]); },
               [](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out(1, 1);
                 out.at(0, 0) = x[0].sum();
                 for (int64_t i = 0; i < gr[0].size(); ++i) gr[0].data()[i] += g.at(0, 0);
                 return out;
               },
               seed);
    check_both("pick_per_row", in,
               [&](Tape& t, const std::vector<Var>& v) { return t.pick_per_row(v[0], columns); },
               [&](const std::vector<Matrix>& x, const Matrix& g, std::vector<Matrix>& gr) {
                 Matrix out(x[0].rows(), 1);
                 for (int r = 0; r < x[0].rows(); ++r) {
                   out.at(r, 0) = x[0].at(r, columns[static_cast<size_t>(r)]);
                 }
                 for (int r = 0; r < gr[0].rows(); ++r) {
                   gr[0].at(r, columns[static_cast<size_t>(r)]) += g.at(r, 0);
                 }
                 return out;
               },
               seed);
  });
}

TEST(NnKernel, AdamStepMatchesReference) {
  Rng rng(28);
  ParameterSet params;
  std::vector<Matrix> value, m, v;
  for (int d : kCols) {
    params.add(random_matrix(3, d, rng));
    value.push_back(params.all().back().value());
    m.push_back(Matrix(3, d));
    v.push_back(Matrix(3, d));
  }
  AdamOptimizer::Options opts;
  opts.clip_global_norm = 0.5;  // engages the clip on these gradients
  AdamOptimizer adam(params, opts);
  for (int step = 1; step <= 3; ++step) {
    std::vector<Matrix> grads;
    for (const Var& p : params.all()) {
      grads.push_back(random_matrix(p.rows(), p.cols(), rng));
      Var handle = p;
      handle.ensure_grad() = grads.back();
    }
    adam.step();

    double sq = 0.0;
    for (const Matrix& g : grads) {
      for (int64_t i = 0; i < g.size(); ++i) sq += g.data()[i] * g.data()[i];
    }
    const double norm = std::sqrt(sq);
    const double scale_factor = norm > opts.clip_global_norm ? opts.clip_global_norm / norm : 1.0;
    const double bias1 = 1.0 - std::pow(opts.beta1, static_cast<double>(step));
    const double bias2 = 1.0 - std::pow(opts.beta2, static_cast<double>(step));
    for (size_t p = 0; p < grads.size(); ++p) {
      for (int64_t k = 0; k < value[p].size(); ++k) {
        const double g = grads[p].data()[k] * scale_factor;
        m[p].data()[k] = opts.beta1 * m[p].data()[k] + (1.0 - opts.beta1) * g;
        v[p].data()[k] = opts.beta2 * v[p].data()[k] + (1.0 - opts.beta2) * g * g;
        const double m_hat = m[p].data()[k] / bias1;
        const double v_hat = v[p].data()[k] / bias2;
        value[p].data()[k] -= opts.learning_rate * m_hat / (std::sqrt(v_hat) + opts.epsilon);
      }
      EXPECT_TRUE(bits_equal(params.all()[p].value(), value[p])) << "step " << step;
      EXPECT_EQ(params.all()[p].grad().max_abs(), 0.0);
    }
  }
}

TEST(NnKernel, WorkspaceRecyclesTapeBuffers) {
  Rng rng(29);
  const Matrix x0 = random_matrix(6, 4, rng);
  const Matrix w0 = random_matrix(4, 3, rng);
  Workspace workspace;
  size_t held_after_first = 0;
  for (int round = 0; round < 3; ++round) {
    {
      Tape tape(workspace);
      const Var x = tape.leaf(x0, true);
      const Var w = tape.leaf(w0, true);
      tape.backward(tape.sum_all(tape.relu(tape.matmul(x, w))));
    }
    // The same update shape recycles the same buffers: nothing accumulates.
    if (round == 0) held_after_first = workspace.held();
    EXPECT_EQ(workspace.held(), held_after_first);
  }
  EXPECT_GT(held_after_first, 0u);

  // A node a caller still references keeps its value after the tape dies.
  Var kept;
  {
    Tape tape(workspace);
    const Var x = tape.leaf(x0, true);
    kept = tape.scale(x, 2.0);
    tape.backward(tape.sum_all(kept));
  }
  ASSERT_EQ(kept.rows(), 6);
  for (int64_t i = 0; i < x0.size(); ++i) EXPECT_EQ(kept.value().data()[i], x0.data()[i] * 2.0);
}

}  // namespace
}  // namespace heterog::nn
