#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace heterog::nn {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  check(rows >= 0 && cols >= 0, "Matrix: negative shape");
}

Matrix Matrix::uninitialized(int rows, int cols) {
  check(rows >= 0 && cols >= 0, "Matrix: negative shape");
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(static_cast<size_t>(rows) * cols);
  return m;
}

Matrix Matrix::glorot(int rows, int cols, Rng& rng) {
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / (rows + cols));
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-limit, limit);
  return m;
}

void Matrix::reshape(int rows, int cols) {
  check(rows >= 0 && cols >= 0 && static_cast<int64_t>(rows) * cols == size(),
        "Matrix::reshape: element count mismatch");
  rows_ = rows;
  cols_ = cols;
}

Matrix Matrix::transpose() const {
  Matrix t = uninitialized(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = row(r);
    for (int c = 0; c < cols_; ++c) t.data_[static_cast<size_t>(c) * rows_ + r] = src[c];
  }
  return t;
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::add_in_place(const Matrix& other) {
  check(same_shape(other), "add_in_place: shape mismatch");
  double* dst = data_.data();
  const double* src = other.data_.data();
  for (size_t i = 0; i < data_.size(); ++i) dst[i] += src[i];
}

void Matrix::scale_in_place(double factor) {
  for (double& v : data_) v *= factor;
}

double Matrix::sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

namespace {

/// Two doubles in one SSE2 register. Lane-wise + and * are the scalar IEEE
/// operations, so a sum kept in a lane rounds exactly like a scalar one.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// out[j] = sum over ascending k of a[k * a_step] * b[k * b_step + j] for
/// j < 2P, each sum started at +0.0; with kSkipZeros a term whose a value
/// == 0 is skipped. The 2P sums stay in registers across the k loop.
template <int P, bool kSkipZeros>
void dot_block(const double* a, size_t a_step, const double* b, size_t b_step, int inner,
               double* out) {
  Pair acc[P];
  for (int j = 0; j < P; ++j) acc[j] = Pair{0.0, 0.0};
  for (int k = 0; k < inner; ++k) {
    const double ak = a[static_cast<size_t>(k) * a_step];
    if (kSkipZeros && ak == 0.0) continue;
    const Pair a2 = {ak, ak};
    const double* bk = b + static_cast<size_t>(k) * b_step;
    for (int j = 0; j < P; ++j) acc[j] += a2 * load_pair(bk + 2 * j);
  }
  std::memcpy(out, acc, sizeof acc);
}

/// dot_block for a single output column.
template <bool kSkipZeros>
void dot_single(const double* a, size_t a_step, const double* b, size_t b_step, int inner,
                double* out) {
  double acc = 0.0;
  for (int k = 0; k < inner; ++k) {
    const double ak = a[static_cast<size_t>(k) * a_step];
    if (kSkipZeros && ak == 0.0) continue;
    acc += ak * b[static_cast<size_t>(k) * b_step];
  }
  *out = acc;
}

/// dot_single for four output rows at once (row r of a starts at
/// a + r * a_row): four independent sums overlap instead of one chain.
template <bool kSkipZeros>
void dot_single4(const double* a, size_t a_row, size_t a_step, const double* b, int inner,
                 double* out) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (int k = 0; k < inner; ++k) {
    const double bk = b[k];
    for (int r = 0; r < 4; ++r) {
      const double ark = a[r * a_row + static_cast<size_t>(k) * a_step];
      if (!kSkipZeros || ark != 0.0) acc[r] += ark * bk;
    }
  }
  std::memcpy(out, acc, sizeof acc);
}

/// One output row of n columns against a row-major [inner x n] right-hand
/// side, in register blocks of 8, 4, 2 and 1 columns.
template <bool kSkipZeros>
void dot_row(const double* a, size_t a_step, const double* b, int n, int inner,
             double* out) {
  int j = 0;
  for (; j + 8 <= n; j += 8) dot_block<4, kSkipZeros>(a, a_step, b + j, n, inner, out + j);
  if (j + 4 <= n) {
    dot_block<2, kSkipZeros>(a, a_step, b + j, n, inner, out + j);
    j += 4;
  }
  if (j + 2 <= n) {
    dot_block<1, kSkipZeros>(a, a_step, b + j, n, inner, out + j);
    j += 2;
  }
  if (j < n) dot_single<kSkipZeros>(a, a_step, b + j, n, inner, out + j);
}

/// c [m x n] = the rows of a (row i starts at a + i * a_row, its k-th
/// factor at stride a_k) times a row-major [inner x n] b. A single output
/// column takes rows four at a time so their sums overlap.
template <bool kSkipZeros>
void product(const double* a, size_t a_row, size_t a_k, const double* b, int m, int n,
             int inner, double* c) {
  int i = 0;
  if (n == 1) {
    for (; i + 4 <= m; i += 4) dot_single4<kSkipZeros>(a + i * a_row, a_row, a_k, b, inner, c + i);
  }
  for (; i < m; ++i) {
    dot_row<kSkipZeros>(a + i * a_row, a_k, b, n, inner, c + static_cast<size_t>(i) * n);
  }
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c = Matrix::uninitialized(a.rows(), b.cols());
  matmul_into(a, b, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c = Matrix::uninitialized(a.cols(), b.cols());
  matmul_tn_into(a, b, c);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c = Matrix::uninitialized(a.rows(), b.rows());
  matmul_nt_into(a, b, c);
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  check(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  check(c.rows() == a.rows() && c.cols() == b.cols() && &c != &a && &c != &b,
        "matmul: bad output");
  // Empty sums are +0.0; returning early also keeps offsets off empty storage.
  if (a.cols() == 0) {
    c.fill(0.0);
    return;
  }
  product<true>(a.data(), a.cols(), 1, b.data(), a.rows(), b.cols(), a.cols(), c.data());
}

void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c) {
  check(a.rows() == b.rows(), "matmul_tn: dimension mismatch");
  check(c.rows() == a.cols() && c.cols() == b.cols() && &c != &a && &c != &b,
        "matmul_tn: bad output");
  if (a.rows() == 0) {
    c.fill(0.0);
    return;
  }
  // Output row i walks column i of A.
  product<true>(a.data(), 1, a.cols(), b.data(), a.cols(), b.cols(), a.rows(), c.data());
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  check(a.cols() == b.cols(), "matmul_nt: dimension mismatch");
  check(c.rows() == a.rows() && c.cols() == b.rows() && &c != &a && &c != &b,
        "matmul_nt: bad output");
  const int inner = a.cols(), n = b.rows();
  if (inner == 0) {
    c.fill(0.0);
    return;
  }
  // A transposed copy of B makes the right-hand side row-major [inner x n].
  // The copy is per-thread scratch, so concurrent searches never share it.
  thread_local std::vector<double> bt;
  bt.resize(static_cast<size_t>(inner) * n);
  for (int j = 0; j < n; ++j) {
    const double* brow = b.row(j);
    for (int k = 0; k < inner; ++k) bt[static_cast<size_t>(k) * n + j] = brow[k];
  }
  product<false>(a.data(), inner, 1, bt.data(), a.rows(), n, inner, c.data());
}

}  // namespace heterog::nn
