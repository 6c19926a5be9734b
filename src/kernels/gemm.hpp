// Register-tiled GEMM used by the GEMM-backed convolution paths and the
// model-parallel FC layer. Row-major; C = alpha * op(A) * op(B) + beta * C.
// Fans output tiles out over the intra-rank thread pool (support/parallel.hpp)
// — results are bit-identical for any thread budget; see gemm.cpp for the
// determinism contract.
//
// Two entry points share one blocked driver and one micro-kernel:
//
//  * sgemm — plain row-major matrices;
//  * gemm  — operands read in place through strided views. A convolution
//    describes its lowering (im2col columns, shifted dy windows, margin
//    buffers as C) as views, and the driver's packers gather the panels
//    straight from the activation buffers: no lowering buffer exists.
#pragma once

#include <cstdint>
#include <limits>

namespace distconv::kernels {

/// C (m×n) = alpha · A (m×k) · B (k×n) + beta · C. Row-major, leading
/// dimensions = row lengths.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// Mixed-radix index → element offset. Index idx = (o·mid + d)·inner + e
/// maps to o·s_outer + d·s_mid + e·s_inner. A plain matrix dimension is
/// linear(stride); a convolution enumerates output positions as (sample,
/// row, col) or kernel taps as (channel, a, b).
struct IndexMap {
  std::int64_t mid = 1, inner = 1;  ///< radices of the two low digits
  std::int64_t s_outer = 0, s_mid = 0, s_inner = 0;

  static IndexMap linear(std::int64_t stride) { return {1, 1, stride, 0, 0}; }
};

/// A matrix read (or, for C, written) in place: element (i, j) lives at
/// base[off + rows(i) + cols(j)]. `off` may be negative as long as every
/// element the GEMM touches is inside the buffer.
template <class T>
struct MatrixView {
  T* base = nullptr;
  std::int64_t off = 0;
  IndexMap rows, cols;
};

/// One product op(A) (m×k) · op(B) (k×n). Only C columns whose (mid, inner)
/// digits — under C's column map — fall in [mid0, mid1) × [inner0, inner1)
/// receive it; B is never read outside that window.
struct GemmTerm {
  MatrixView<const float> a, b;
  std::int64_t mid0 = 0, mid1 = std::numeric_limits<std::int64_t>::max();
  std::int64_t inner0 = 0, inner1 = std::numeric_limits<std::int64_t>::max();
};

/// How each C element's accumulation chain is grouped. The k range is cut
/// into periods of `k_period`, each period into segments of `k_seg` (0 =
/// no cut), and each segment into fixed 256-long blocks; every block's
/// register sum is added into C in ascending-k order. With `stage_terms`,
/// each term's block sums are first added up from 0 and the total is then
/// added into C, term after term (the chain of a GEMM into a zeroed buffer
/// followed by an add — col2im's).
struct GemmChain {
  std::int64_t k_period = 0, k_seg = 0;
  bool stage_terms = false;
};

/// C = beta · C + alpha · Σ_t op(A_t) · op(B_t), terms in order, each masked
/// to its column window. Elements of C are touched by exactly one task, so
/// C may alias nothing the terms read.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const GemmTerm* terms, int n_terms, float beta,
          const MatrixView<float>& c, const GemmChain& chain = {});

}  // namespace distconv::kernels
