// Bitwise pins for the implicit-GEMM convolution family (ConvAlgo::kIm2col).
//
// kIm2col gathers its lowering straight from the margin buffers into the
// tiled GEMM's panels. Its contract is the explicit algorithm it replaced:
// forward = im2col + sgemm + copy into y, backward filter = per-sample,
// per-strip sgemm of packed dy against the im2col lowering (beta = 1),
// backward data = sgemm into a dcol buffer and a col2im scatter in (c, a,
// b, jh, jw) order. The references below assemble exactly that from
// kernels::im2col and kernels::sgemm, and every output buffer — margins
// and rows outside the computed range included — must match bit for bit,
// for any thread budget and any interior/boundary range split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>
#include <vector>

#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "support/intmath.hpp"
#include "support/rng.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::kernels {
namespace {

// --- references: today's explicit lowering ---------------------------------

void ref_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                 Tensor<float>& y, Origin2 yo, const ConvParams& p,
                 const Range2& r) {
  const std::int64_t F = w.shape().n;
  const std::int64_t ckk = w.shape().c * p.kh * p.kw;
  const std::int64_t rows = r.area(), rw = r.w1 - r.w0;
  std::vector<float> col(static_cast<std::size_t>(ckk * rows));
  std::vector<float> out(static_cast<std::size_t>(F * rows));
  for (std::int64_t k = 0; k < y.shape().n; ++k) {
    im2col(x, xo, k, p, r, col.data());
    sgemm(false, false, F, rows, ckk, 1.0f, w.data(), ckk, col.data(), rows,
          0.0f, out.data(), rows);
    for (std::int64_t f = 0; f < F; ++f) {
      for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
        const float* src = out.data() + f * rows + (gh - r.h0) * rw;
        std::copy(src, src + rw, &y(k, f, gh - yo.h, r.w0 - yo.w));
      }
    }
  }
}

/// dy's channel planes over `r`, packed (F × r.area()).
std::vector<float> pack_planes(const Tensor<float>& t, Origin2 to,
                               std::int64_t k, const Range2& r) {
  const std::int64_t rw = r.w1 - r.w0;
  std::vector<float> out;
  for (std::int64_t f = 0; f < t.shape().c; ++f) {
    for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
      const float* src = &t(k, f, gh - to.h, r.w0 - to.w);
      out.insert(out.end(), src, src + rw);
    }
  }
  return out;
}

void ref_backward_filter(const Tensor<float>& x, Origin2 xo,
                         const Tensor<float>& dy, Origin2 dyo,
                         Tensor<float>& dw, const ConvParams& p,
                         const Range2& r, bool accumulate) {
  if (!accumulate) dw.zero();
  const std::int64_t F = dw.shape().n;
  const std::int64_t ckk = dw.shape().c * p.kh * p.kw;
  const std::int64_t rw = r.w1 - r.w0;
  const std::int64_t hb = lowering_strip_height(ckk, rw);
  for (std::int64_t k = 0; k < dy.shape().n; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      std::vector<float> col(static_cast<std::size_t>(ckk * rows));
      im2col(x, xo, k, p, rs, col.data());
      const std::vector<float> dyp = pack_planes(dy, dyo, k, rs);
      sgemm(false, true, F, ckk, rows, 1.0f, dyp.data(), rows, col.data(), rows,
            1.0f, dw.data(), ckk);
    }
  }
}

void ref_backward_data(const Tensor<float>& dy, Origin2 dyo,
                       const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                       const ConvParams& p, const Range2& r, std::int64_t out_h,
                       std::int64_t out_w) {
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  // The output window whose stencils touch r, clipped to the output extents.
  const Range2 win{
      std::max<std::int64_t>(0, ceil_div(r.h0 + p.ph - p.kh + 1, p.sh)),
      std::min<std::int64_t>(out_h, floor_div(r.h1 - 1 + p.ph, p.sh) + 1),
      std::max<std::int64_t>(0, ceil_div(r.w0 + p.pw - p.kw + 1, p.sw)),
      std::min<std::int64_t>(out_w, floor_div(r.w1 - 1 + p.pw, p.sw) + 1)};
  for (std::int64_t k = 0; k < dx.shape().n; ++k) {
    for (std::int64_t c = 0; c < C; ++c) {
      for (std::int64_t gi = r.h0; gi < r.h1; ++gi) {
        for (std::int64_t gj = r.w0; gj < r.w1; ++gj) {
          dx(k, c, gi - dxo.h, gj - dxo.w) = 0.0f;
        }
      }
    }
    if (win.empty()) continue;
    const std::int64_t rows = win.area(), ww = win.w1 - win.w0;
    const std::vector<float> dyp = pack_planes(dy, dyo, k, win);
    std::vector<float> dcol(static_cast<std::size_t>(ckk * rows));
    sgemm(true, false, ckk, rows, F, 1.0f, w.data(), ckk, dyp.data(), rows,
          0.0f, dcol.data(), rows);
    for (std::int64_t c = 0; c < C; ++c) {
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b) {
          const float* src = dcol.data() + ((c * p.kh + a) * p.kw + b) * rows;
          for (std::int64_t jh = win.h0; jh < win.h1; ++jh) {
            const std::int64_t gi = jh * p.sh - p.ph + a;
            if (gi < r.h0 || gi >= r.h1) continue;
            for (std::int64_t jw = win.w0; jw < win.w1; ++jw) {
              const std::int64_t gj = jw * p.sw - p.pw + b;
              if (gj < r.w0 || gj >= r.w1) continue;
              dx(k, c, gi - dxo.h, gj - dxo.w) +=
                  src[(jh - win.h0) * ww + jw - win.w0];
            }
          }
        }
      }
    }
  }
}

// --- cases -------------------------------------------------------------------

struct Case {
  std::int64_t n, c, f, h, w;
  int k, s, pad;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << "n" << c.n << "c" << c.c << "f" << c.f << "_" << c.h << "x"
            << c.w << "_k" << c.k << "s" << c.s << "p" << c.pad;
}

/// Global tensors laid into margin buffers the way a rank holds them: x with
/// zero margins at least as wide as the padding (plus slack), y/dy/dx with
/// margins of their own, every buffer pre-filled so untouched elements are
/// checked too.
struct Buffers {
  ConvParams p;
  std::int64_t oh = 0, ow = 0;
  Tensor<float> x, w, y, dy, dx, dw;
  Origin2 xo, yo, dyo, dxo;

  explicit Buffers(const Case& cs) {
    p = ConvParams{cs.k, cs.k, cs.s, cs.s, cs.pad, cs.pad};
    oh = p.out_h(cs.h);
    ow = p.out_w(cs.w);
    Rng rng(static_cast<std::uint64_t>(cs.c * 131 + cs.f * 7 + cs.k));
    const int e = 2;  // margin slack beyond the padding
    xo = Origin2{-cs.pad - e, -cs.pad - e - 1};
    x = Tensor<float>(Shape4{cs.n, cs.c, cs.h + 2 * (cs.pad + e) + 1,
                             cs.w + 2 * (cs.pad + e) + 3});
    for (std::int64_t k = 0; k < cs.n; ++k) {
      for (std::int64_t c = 0; c < cs.c; ++c) {
        for (std::int64_t h = 0; h < cs.h; ++h) {
          for (std::int64_t ww = 0; ww < cs.w; ++ww) {
            x(k, c, h - xo.h, ww - xo.w) = float(rng.uniform(-1, 1));
          }
        }
      }
    }
    w = Tensor<float>(Shape4{cs.f, cs.c, cs.k, cs.k});
    w.fill_uniform(rng);
    yo = Origin2{-1, -2};
    y = Tensor<float>(Shape4{cs.n, cs.f, oh + 3, ow + 5});
    y.fill_uniform(rng);
    // dy: values inside the output extents, zero margins.
    dyo = Origin2{-(cs.k + 1), -(cs.k + 2)};
    dy = Tensor<float>(Shape4{cs.n, cs.f, oh + 2 * (cs.k + 1), ow + 2 * (cs.k + 2)});
    for (std::int64_t k = 0; k < cs.n; ++k) {
      for (std::int64_t f = 0; f < cs.f; ++f) {
        for (std::int64_t h = 0; h < oh; ++h) {
          for (std::int64_t ww = 0; ww < ow; ++ww) {
            dy(k, f, h - dyo.h, ww - dyo.w) = float(rng.uniform(-1, 1));
          }
        }
      }
    }
    dxo = Origin2{-2, -3};
    dx = Tensor<float>(Shape4{cs.n, cs.c, cs.h + 4, cs.w + 6});
    dx.fill_uniform(rng);
    dw = Tensor<float>(w.shape());
    dw.fill_uniform(rng);
  }
};

/// An interior range and the ≤ 4 boundary strips around it (the halo-overlap
/// split the conv layers use).
std::vector<Range2> split(const Range2& all, std::int64_t inset_h,
                          std::int64_t inset_w) {
  const Range2 in{all.h0 + inset_h, all.h1 - inset_h, all.w0 + inset_w,
                  all.w1 - inset_w};
  if (in.empty()) return {all};
  std::vector<Range2> out{in};
  out.push_back({all.h0, in.h0, all.w0, all.w1});
  out.push_back({in.h1, all.h1, all.w0, all.w1});
  out.push_back({in.h0, in.h1, all.w0, in.w0});
  out.push_back({in.h0, in.h1, in.w1, all.w1});
  return out;
}

/// The range sets each pass runs: the full range, an offset sub-range, and
/// an interior range followed by its boundary strips.
std::vector<std::vector<Range2>> range_sets(std::int64_t h, std::int64_t w) {
  return {{Range2{0, h, 0, w}},
          {Range2{h / 3, h, w / 4, w}},
          split(Range2{0, h, 0, w}, std::min<std::int64_t>(2, h / 3),
                std::min<std::int64_t>(3, w / 3))};
}

bool same_bits(const Tensor<float>& a, const Tensor<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class ImplicitGemm : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, ImplicitGemm,
    ::testing::Values(
        Case{2, 3, 5, 13, 29, 1, 1, 0},    // 1×1, F and width off the tile
        Case{1, 4, 7, 11, 27, 1, 2, 0},    // 1×1 strided
        Case{2, 4, 8, 17, 31, 3, 1, 1},    // the mesh 3×3 shape class
        Case{1, 5, 9, 19, 26, 3, 2, 1},    // strided 3×3
        Case{1, 3, 10, 16, 30, 3, 2, 0},   // unpadded strided
        Case{1, 6, 11, 15, 33, 3, 1, 2},   // over-padded
        Case{2, 4, 8, 21, 37, 5, 2, 2},    // conv1_1 of the mesh model
        Case{1, 3, 13, 14, 25, 5, 1, 1},   // under-padded 5×5
        Case{1, 2, 6, 23, 29, 7, 2, 3},    // 7×7 stem class
        Case{1, 3, 5, 17, 19, 7, 1, 0},    // unpadded 7×7
        Case{2, 128, 9, 60, 9, 3, 1, 1},   // ckk = 1152: five k-blocks, and
                                           // two bwd-filter strips a sample
        Case{1, 6, 260, 8, 11, 3, 2, 1}),  // F = 260: staged bwd-data terms
    [](const ::testing::TestParamInfo<Case>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST_P(ImplicitGemm, ForwardMatchesExplicitLowering) {
  const Buffers b(GetParam());
  for (const auto& ranges : range_sets(b.oh, b.ow)) {
    Tensor<float> ref = b.y;
    for (const Range2& r : ranges) ref_forward(b.x, b.xo, b.w, ref, b.yo, b.p, r);
    for (int threads : {1, 3, 8}) {
      parallel::ThreadGuard guard(threads);
      Tensor<float> y = b.y;
      for (const Range2& r : ranges) {
        conv2d_forward(b.x, b.xo, b.w, y, b.yo, b.p, r, ConvAlgo::kIm2col);
      }
      EXPECT_TRUE(same_bits(y, ref)) << "threads=" << threads << " ranges="
                                     << ranges.size();
    }
  }
}

TEST_P(ImplicitGemm, BackwardFilterMatchesExplicitLowering) {
  const Buffers b(GetParam());
  for (const auto& ranges : range_sets(b.oh, b.ow)) {
    for (bool accumulate : {false, true}) {
      // Later ranges always accumulate onto the first one's result.
      Tensor<float> ref = b.dw;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        ref_backward_filter(b.x, b.xo, b.dy, b.dyo, ref, b.p, ranges[i],
                            accumulate || i > 0);
      }
      for (int threads : {1, 3, 8}) {
        parallel::ThreadGuard guard(threads);
        Tensor<float> dw = b.dw;
        for (std::size_t i = 0; i < ranges.size(); ++i) {
          conv2d_backward_filter(b.x, b.xo, b.dy, b.dyo, dw, b.p, ranges[i],
                                 accumulate || i > 0, ConvAlgo::kIm2col);
        }
        EXPECT_TRUE(same_bits(dw, ref))
            << "threads=" << threads << " accumulate=" << accumulate
            << " ranges=" << ranges.size();
      }
    }
  }
}

TEST_P(ImplicitGemm, BackwardDataMatchesExplicitLowering) {
  const Buffers b(GetParam());
  const Case cs = GetParam();
  for (const auto& ranges : range_sets(cs.h, cs.w)) {
    Tensor<float> ref = b.dx;
    for (const Range2& r : ranges) {
      ref_backward_data(b.dy, b.dyo, b.w, ref, b.dxo, b.p, r, b.oh, b.ow);
    }
    for (int threads : {1, 3, 8}) {
      parallel::ThreadGuard guard(threads);
      Tensor<float> dx = b.dx;
      for (const Range2& r : ranges) {
        conv2d_backward_data(b.dy, b.dyo, b.w, dx, b.dxo, b.p, r, b.oh, b.ow,
                             ConvAlgo::kIm2col);
      }
      EXPECT_TRUE(same_bits(dx, ref)) << "threads=" << threads << " ranges="
                                      << ranges.size();
    }
  }
}

// The plain-matrix entry point and the strided-view driver it wraps share
// one k-chain: a GEMM with k > 256 through transposed views, alpha folded
// into A and beta = 0.5 on C, equals the same product assembled as two
// k-block-aligned halves (the second accumulating with beta = 1).
TEST(ImplicitGemmDriver, SgemmChainSplitsAtKBlocks) {
  const std::int64_t m = 13, n = 50, k = 600;
  Rng rng(11);
  std::vector<float> a(m * k), bm(k * n), c(m * n);
  for (auto& v : a) v = float(rng.uniform(-1, 1));
  for (auto& v : bm) v = float(rng.uniform(-1, 1));
  for (auto& v : c) v = float(rng.uniform(-1, 1));
  std::vector<float> whole = c, halves = c;
  sgemm(true, false, m, n, k, 1.5f, a.data(), m, bm.data(), n, 0.5f,
        whole.data(), n);
  sgemm(true, false, m, n, 512, 1.5f, a.data(), m, bm.data(), n, 0.5f,
        halves.data(), n);
  sgemm(true, false, m, n, k - 512, 1.5f, a.data() + 512 * m, m,
        bm.data() + 512 * n, n, 1.0f, halves.data(), n);
  EXPECT_EQ(0, std::memcmp(whole.data(), halves.data(), whole.size() * 4));
}

}  // namespace
}  // namespace distconv::kernels
