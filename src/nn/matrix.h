// Dense row-major matrix used by the neural-network substrate.
//
// Ordering contract: every kernel here and in autograd.cpp computes each
// output element with the same floating-point operations, in the same order,
// as the plain textbook loop it replaced (a matrix product sums over k in
// ascending order starting from +0.0, with the documented zero-skip). The
// kernels only change loop order across *independent* outputs, hoist row
// pointers and skip fills of buffers they overwrite, so results are
// bit-identical to the reference loops in tests/nn_kernel_test.cpp. The build
// must not enable -ffast-math, -march or FMA contraction (x86-64's baseline
// ISA has no FMA to contract into); the policy-update pin in
// tests/nn_pin_test.cpp fails if any of them changes a bit.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace heterog::nn {

/// std::allocator whose value-less construct() leaves the element
/// uninitialised, so Matrix::uninitialized can skip the zero-fill of a
/// buffer a kernel is about to overwrite.
template <typename T>
struct NoFillAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoFillAllocator<U>;
  };
  NoFillAllocator() = default;
  template <typename U>
  NoFillAllocator(const NoFillAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0);
  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  /// A moved-from matrix is 0x0, never a shape over missing storage.
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    data_ = std::move(other.data_);
    return *this;
  }

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols, 0.0); }
  /// A rows x cols matrix with unspecified contents, for outputs that are
  /// fully overwritten before they are read.
  static Matrix uninitialized(int rows, int cols);
  /// Glorot-uniform initialisation.
  static Matrix glorot(int rows, int cols, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }

  /// Bounds-checked element access for callers; kernels use row pointers
  /// after one shape check at entry.
  double& at(int r, int c) {
    check(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Matrix::at: out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double at(int r, int c) const {
    check(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Matrix::at: out of range");
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const double* row(int r) const { return data_.data() + static_cast<size_t>(r) * cols_; }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Reinterprets the storage as rows x cols; the element count must match.
  void reshape(int rows, int cols);

  Matrix transpose() const;

  void fill(double value);
  void add_in_place(const Matrix& other);        // this += other
  void scale_in_place(double factor);

  double sum() const;
  double max_abs() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double, NoFillAllocator<double>> data_;
};

/// C = A * B. c[i][j] = sum over ascending k of a[i][k] * b[k][j], from +0.0,
/// skipping terms whose a[i][k] == 0.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B (avoids materialising the transpose). c[i][j] = sum over
/// ascending k of a[k][i] * b[k][j], from +0.0, skipping a[k][i] == 0.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T. c[i][j] = sum over ascending k of a[i][k] * b[j][k], from
/// +0.0, with no zero-skip.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// The same three products written into `c`, which must already have the
/// output shape; its prior contents are ignored.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c);
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace heterog::nn
