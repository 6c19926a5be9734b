#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/conv.hpp"
#include "support/rng.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::kernels {
namespace {

// Build a margin buffer holding x with `ph`/`pw` zero rows/cols around it,
// i.e. exactly the global padding; origin = (-ph, -pw).
Tensor<float> make_padded_buffer(const Tensor<float>& x, int ph, int pw) {
  const auto& s = x.shape();
  Tensor<float> buf(Shape4{s.n, s.c, s.h + 2 * ph, s.w + 2 * pw});
  Box4 src, dst;
  for (int d = 0; d < 4; ++d) src.ext[d] = s[d];
  dst = src;
  dst.off[2] = ph;
  dst.off[3] = pw;
  copy_box(x, src, buf, dst);
  return buf;
}

struct ConvCase {
  std::int64_t n, c, h, w, f;
  int k, s;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1}, ConvCase{2, 3, 8, 8, 4, 3, 1},
                      ConvCase{1, 2, 9, 7, 3, 5, 1}, ConvCase{2, 2, 8, 8, 3, 3, 2},
                      ConvCase{1, 3, 11, 9, 2, 5, 2}, ConvCase{2, 4, 6, 6, 5, 1, 1},
                      ConvCase{1, 1, 12, 12, 1, 7, 2}, ConvCase{3, 2, 7, 7, 2, 1, 2}));

TEST_P(ConvSweep, RegionKernelMatchesPaddedOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(42);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y_ref(Shape4{cfg.n, cfg.f, p.out_h(cfg.h), p.out_w(cfg.w)});
  conv2d_forward_padded(x, w, y_ref, p);

  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> y(y_ref.shape());
  const Range2 full{0, y_ref.shape().h, 0, y_ref.shape().w};
  conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, full);
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y.data()[i], y_ref.data()[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(ConvSweep, Im2colMatchesDirect) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(7);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> yd(Shape4{cfg.n, cfg.f, p.out_h(cfg.h), p.out_w(cfg.w)});
  Tensor<float> yi(yd.shape());
  const Range2 full{0, yd.shape().h, 0, yd.shape().w};
  conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, yd, Origin2{0, 0}, p, full,
                 ConvAlgo::kDirect);
  conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, yi, Origin2{0, 0}, p, full,
                 ConvAlgo::kIm2col);
  for (std::int64_t i = 0; i < yd.size(); ++i) {
    ASSERT_NEAR(yd.data()[i], yi.data()[i], 1e-4f);
  }
}

TEST_P(ConvSweep, RegionSplitEqualsWholeRange) {
  // Interior/boundary decomposition (§IV-A): computing disjoint sub-ranges
  // must produce the same output as one full-range call.
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(11);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> whole(Shape4{cfg.n, cfg.f, oh, ow}), split(whole.shape());
  conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, whole, Origin2{0, 0}, p,
                 Range2{0, oh, 0, ow});
  // Split into 4 quadrant ranges.
  const std::int64_t mh = oh / 2, mw = ow / 2;
  for (const Range2& r : {Range2{0, mh, 0, mw}, Range2{0, mh, mw, ow},
                          Range2{mh, oh, 0, mw}, Range2{mh, oh, mw, ow}}) {
    conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, split, Origin2{0, 0}, p, r);
  }
  for (std::int64_t i = 0; i < whole.size(); ++i) {
    ASSERT_FLOAT_EQ(whole.data()[i], split.data()[i]);
  }
}

TEST_P(ConvSweep, BackwardDataMatchesPaddedOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(13);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> dx_ref(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  conv2d_backward_data_padded(dy, w, dx_ref, p);

  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                       Range2{0, cfg.h, 0, cfg.w}, oh, ow);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(ConvSweep, BackwardFilterMatchesPaddedOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Rng rng(17);
  x.fill_uniform(rng);
  dy.fill_uniform(rng);
  Tensor<float> dw_ref(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  conv2d_backward_filter_padded(x, dy, dw_ref, p);

  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> dw(dw_ref.shape());
  conv2d_backward_filter(xbuf, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw, p,
                         Range2{0, oh, 0, ow});
  for (std::int64_t i = 0; i < dw.size(); ++i) {
    ASSERT_NEAR(dw.data()[i], dw_ref.data()[i], 1e-3f) << "i=" << i;
  }
}

TEST_P(ConvSweep, GemmBackwardDataMatchesOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(83);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> dx_ref(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  conv2d_backward_data_padded(dy, w, dx_ref, p);

  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                       Range2{0, cfg.h, 0, cfg.w}, oh, ow, ConvAlgo::kIm2col);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(ConvSweep, GemmBackwardDataSplitRangesMatch) {
  // The halo-overlap path hands backward-data disjoint sub-ranges; the
  // col2im scatter must fill exactly its own range.
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(89);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> whole(Shape4{cfg.n, cfg.c, cfg.h, cfg.w}), split(whole.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, whole, Origin2{0, 0}, p,
                       Range2{0, cfg.h, 0, cfg.w}, oh, ow, ConvAlgo::kIm2col);
  const std::int64_t mh = cfg.h / 2, mw = cfg.w / 2;
  for (const Range2& r :
       {Range2{0, mh, 0, mw}, Range2{0, mh, mw, cfg.w},
        Range2{mh, cfg.h, 0, mw}, Range2{mh, cfg.h, mw, cfg.w}}) {
    conv2d_backward_data(dy, Origin2{0, 0}, w, split, Origin2{0, 0}, p, r, oh,
                         ow, ConvAlgo::kIm2col);
  }
  for (std::int64_t i = 0; i < whole.size(); ++i) {
    ASSERT_NEAR(whole.data()[i], split.data()[i], 1e-5f) << "i=" << i;
  }
}

TEST_P(ConvSweep, GemmBackwardFilterMatchesOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Rng rng(97);
  x.fill_uniform(rng);
  dy.fill_uniform(rng);
  Tensor<float> dw_ref(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  conv2d_backward_filter_padded(x, dy, dw_ref, p);

  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> dw(dw_ref.shape());
  conv2d_backward_filter(xbuf, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw, p,
                         Range2{0, oh, 0, ow}, /*accumulate=*/false,
                         ConvAlgo::kIm2col);
  for (std::int64_t i = 0; i < dw.size(); ++i) {
    ASSERT_NEAR(dw.data()[i], dw_ref.data()[i], 1e-3f) << "i=" << i;
  }
}

TEST_P(ConvSweep, ThreadCountDeterminism) {
  // Forward (both algorithms) and both GEMM-backed backward passes must be
  // bit-identical under DC_NUM_THREADS=1 vs 8: the tile grids, strip
  // heights, and reduction groupings are all fixed by shapes alone.
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Rng rng(101);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  dy.fill_uniform(rng);
  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  const Range2 yr{0, oh, 0, ow};
  const Range2 xr{0, cfg.h, 0, cfg.w};

  auto run_all = [&](Tensor<float>& y, Tensor<float>& dx, Tensor<float>& dw) {
    conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, yr,
                   ConvAlgo::kIm2col);
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p, xr, oh, ow,
                         ConvAlgo::kIm2col);
    conv2d_backward_filter(xbuf, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw,
                           p, yr, false, ConvAlgo::kIm2col);
  };
  Tensor<float> y1(Shape4{cfg.n, cfg.f, oh, ow}), y8(y1.shape());
  Tensor<float> dx1(x.shape()), dx8(x.shape());
  Tensor<float> dw1(w.shape()), dw8(w.shape());
  {
    parallel::ThreadGuard guard(1);
    run_all(y1, dx1, dw1);
  }
  {
    parallel::ThreadGuard guard(8);
    run_all(y8, dx8, dw8);
  }
  EXPECT_EQ(0, std::memcmp(y1.data(), y8.data(), y1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(dx1.data(), dx8.data(), dx1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(dw1.data(), dw8.data(), dw1.size() * sizeof(float)));
}

// Deep shapes (ckk · output rows far past the ~2 MiB lowering-strip budget)
// with kh > sh, so neighbouring input rows share output windows and several
// stride phases each sum several taps. Backward data must match the oracle,
// across a split input range, and for any thread count.
struct StripCase {
  std::int64_t c, h, w, f;
  int k, s;
};

class BackwardDataStripSweep : public ::testing::TestWithParam<StripCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackwardDataStripSweep,
    ::testing::Values(StripCase{96, 40, 88, 32, 3, 1},   // deep 3×3, ~7 strips
                      StripCase{64, 44, 80, 16, 5, 1},   // wider overlap (k=5)
                      StripCase{96, 61, 80, 24, 5, 2},   // strided, kh > sh
                      StripCase{128, 40, 72, 16, 7, 2}));  // reach ⌈(k−1)/s⌉=3

TEST_P(BackwardDataStripSweep, BoundaryRowReuseMatchesOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Tensor<float> dy(Shape4{2, cfg.f, oh, ow});
  Rng rng(314);
  w.fill_uniform(rng);
  dy.fill_uniform(rng);
  const Range2 xr{0, cfg.h, 0, cfg.w};

  Tensor<float> dx_ref(Shape4{2, cfg.c, cfg.h, cfg.w});
  conv2d_backward_data_padded(dy, w, dx_ref, p);
  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p, xr, oh, ow,
                       ConvAlgo::kIm2col);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i],
                1e-3f * std::max(1.0f, std::abs(dx_ref.data()[i])))
        << "i=" << i;
  }

  // Splitting the input range restarts the strip sequence mid-tensor; the
  // per-element accumulation chains must not move.
  Tensor<float> dx_split(dx_ref.shape());
  const std::int64_t cut = cfg.h / 3;
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx_split, Origin2{0, 0}, p,
                       Range2{0, cut, 0, cfg.w}, oh, ow, ConvAlgo::kIm2col);
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx_split, Origin2{0, 0}, p,
                       Range2{cut, cfg.h, 0, cfg.w}, oh, ow, ConvAlgo::kIm2col);
  EXPECT_EQ(0, std::memcmp(dx.data(), dx_split.data(),
                           dx.size() * sizeof(float)));

  // Thread-count determinism (strip heights and reuse depend on shapes
  // alone, never on the budget).
  Tensor<float> dx8(dx_ref.shape());
  {
    parallel::ThreadGuard guard(8);
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx8, Origin2{0, 0}, p, xr, oh,
                         ow, ConvAlgo::kIm2col);
  }
  EXPECT_EQ(0, std::memcmp(dx.data(), dx8.data(), dx.size() * sizeof(float)));
}

TEST(ConvAlgoHeuristic, AutoResolvesOnLayerConstantsOnly) {
  const ConvParams deep{3, 3, 1, 1, 1, 1};
  // 64·3·3 = 576 deep, 64 filters: GEMM territory.
  EXPECT_EQ(resolve_conv_algo(ConvAlgo::kAuto, deep, 64, 64), ConvAlgo::kIm2col);
  // 3·3·3 = 27 shallow first layer: direct.
  EXPECT_EQ(resolve_conv_algo(ConvAlgo::kAuto, deep, 3, 64), ConvAlgo::kDirect);
  // Few filters: packing traffic is never amortized.
  EXPECT_EQ(resolve_conv_algo(ConvAlgo::kAuto, deep, 64, 4), ConvAlgo::kDirect);
  // Explicit choices pass through untouched.
  EXPECT_EQ(resolve_conv_algo(ConvAlgo::kDirect, deep, 64, 64), ConvAlgo::kDirect);
  EXPECT_EQ(resolve_conv_algo(ConvAlgo::kIm2col, deep, 3, 4), ConvAlgo::kIm2col);
}

TEST(ConvNaN, BackwardPathsPropagateNaN) {
  // A NaN in dy must reach every dx/dw element its window touches, even
  // where weights or activations are zero (the seed's `g == 0` skip only
  // dropped zero *gradients*; the NaN case it could mask is 0·NaN from
  // zero weights, exercised here with w = 0 and x = 0).
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> dy(Shape4{1, 1, 5, 5});
  Tensor<float> w(Shape4{1, 1, 3, 3});  // all-zero weights
  Tensor<float> x(Shape4{1, 1, 5, 5});  // all-zero activations
  dy(0, 0, 2, 2) = std::numeric_limits<float>::quiet_NaN();
  for (const ConvAlgo algo : {ConvAlgo::kDirect, ConvAlgo::kIm2col}) {
    Tensor<float> dx(Shape4{1, 1, 5, 5});
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                         Range2{0, 5, 0, 5}, 5, 5, algo);
    EXPECT_TRUE(std::isnan(dx(0, 0, 2, 2)))
        << "algo " << int(algo) << ": 0-weight · NaN-gradient must be NaN";
    Tensor<float> xbuf = make_padded_buffer(x, 1, 1);
    Tensor<float> dw(w.shape());
    conv2d_backward_filter(xbuf, Origin2{-1, -1}, dy, Origin2{0, 0}, dw, p,
                           Range2{0, 5, 0, 5}, false, algo);
    EXPECT_TRUE(std::isnan(dw(0, 0, 1, 1)))
        << "algo " << int(algo) << ": NaN-gradient · 0-activation must be NaN";
  }
}

// Numerical gradient checks pin the analytic backward kernels to the forward
// definition itself.
TEST(ConvGradients, NumericalBackwardData) {
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 2, 5, 5}), w(Shape4{2, 2, 3, 3});
  Rng rng(23);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y(Shape4{1, 2, 5, 5});
  Tensor<float> dy(y.shape());
  dy.fill_uniform(rng);

  // Analytic dx.
  Tensor<float> dx(x.shape());
  conv2d_backward_data_padded(dy, w, dx, p);

  // L = Σ y ⊙ dy; numerical dL/dx via central differences.
  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 7L, 12L, 24L, 49L}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    conv2d_forward_padded(x, w, y, p);
    double lp = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lp += y.data()[j] * dy.data()[j];
    x.data()[i] = orig - eps;
    conv2d_forward_padded(x, w, y, p);
    double lm = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lm += y.data()[j] * dy.data()[j];
    x.data()[i] = orig;
    EXPECT_NEAR(dx.data()[i], (lp - lm) / (2 * eps), 5e-2) << "i=" << i;
  }
}

TEST(ConvGradients, NumericalBackwardFilter) {
  const ConvParams p{3, 3, 2, 2, 1, 1};
  Tensor<float> x(Shape4{2, 2, 6, 6}), w(Shape4{3, 2, 3, 3});
  Rng rng(29);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y(Shape4{2, 3, 3, 3});
  Tensor<float> dy(y.shape());
  dy.fill_uniform(rng);

  Tensor<float> dw(w.shape());
  conv2d_backward_filter_padded(x, dy, dw, p);

  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 5L, 17L, 30L, 53L}) {
    const float orig = w.data()[i];
    w.data()[i] = orig + eps;
    conv2d_forward_padded(x, w, y, p);
    double lp = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lp += y.data()[j] * dy.data()[j];
    w.data()[i] = orig - eps;
    conv2d_forward_padded(x, w, y, p);
    double lm = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lm += y.data()[j] * dy.data()[j];
    w.data()[i] = orig;
    EXPECT_NEAR(dw.data()[i], (lp - lm) / (2 * eps), 5e-2) << "i=" << i;
  }
}

TEST(Conv, KnownTinyCase) {
  // 1x1 input 3x3 of ones, single 3x3 ones filter, pad 1: center output = 9,
  // edge = 6, corner = 4.
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 1, 3, 3}), w(Shape4{1, 1, 3, 3});
  x.fill(1.0f);
  w.fill(1.0f);
  Tensor<float> y(Shape4{1, 1, 3, 3});
  conv2d_forward_padded(x, w, y, p);
  EXPECT_FLOAT_EQ(y(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 6.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 4.0f);
}

TEST(Conv, FilterAccumulateFlag) {
  const ConvParams p{1, 1, 1, 1, 0, 0};
  Tensor<float> x(Shape4{1, 1, 2, 2}), dy(Shape4{1, 1, 2, 2});
  x.fill(1.0f);
  dy.fill(1.0f);
  Tensor<float> dw(Shape4{1, 1, 1, 1});
  conv2d_backward_filter_padded(x, dy, dw, p, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(dw(0, 0, 0, 0), 4.0f);
  conv2d_backward_filter_padded(x, dy, dw, p, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(dw(0, 0, 0, 0), 8.0f);
}

TEST(Conv, EmptyRangeIsNoop) {
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 1, 5, 5}), w(Shape4{1, 1, 3, 3}), y(Shape4{1, 1, 3, 3});
  y.fill(7.0f);
  conv2d_forward(x, Origin2{0, 0}, w, y, Origin2{0, 0}, p, Range2{2, 2, 0, 3});
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 7.0f);  // untouched
}

TEST(Conv, MismatchedKernelShapeThrows) {
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 1, 5, 5}), w(Shape4{1, 1, 5, 5}), y(Shape4{1, 1, 5, 5});
  EXPECT_THROW(conv2d_forward_padded(x, w, y, p), Error);
}

TEST(Conv, RectangularKernelsSupported) {
  // The kernel layer supports kh != kw even though the layer API is square;
  // verify against the padded oracle.
  const ConvParams p{3, 5, 1, 1, 1, 2};
  Tensor<float> x(Shape4{2, 2, 7, 9});
  Tensor<float> w(Shape4{3, 2, 3, 5});
  Rng rng(61);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y_ref(Shape4{2, 3, p.out_h(7), p.out_w(9)});
  conv2d_forward_padded(x, w, y_ref, p);

  Tensor<float> xbuf(Shape4{2, 2, 7 + 2, 9 + 4});
  Box4 src, dst;
  src.ext[0] = 2; src.ext[1] = 2; src.ext[2] = 7; src.ext[3] = 9;
  dst = src; dst.off[2] = 1; dst.off[3] = 2;
  copy_box(x, src, xbuf, dst);
  Tensor<float> y(y_ref.shape());
  conv2d_forward(xbuf, Origin2{-1, -2}, w, y, Origin2{0, 0}, p,
                 Range2{0, y.shape().h, 0, y.shape().w});
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y.data()[i], y_ref.data()[i], 1e-4f);
  }
}

TEST(Conv, StrideThreeBackwardDataMatchesOracle) {
  const ConvParams p{5, 5, 3, 3, 2, 2};
  const std::int64_t H = 13, W = 13;
  Tensor<float> dy(Shape4{1, 2, p.out_h(H), p.out_w(W)});
  Tensor<float> w(Shape4{2, 3, 5, 5});
  Rng rng(67);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> dx_ref(Shape4{1, 3, H, W});
  conv2d_backward_data_padded(dy, w, dx_ref, p);
  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                       Range2{0, H, 0, W}, dy.shape().h, dy.shape().w);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i], 1e-4f) << i;
  }
}

TEST(Conv, AsymmetricStrideForward) {
  const ConvParams p{3, 3, 2, 1, 1, 1};  // stride 2 vertically, 1 horizontally
  Tensor<float> x(Shape4{1, 1, 8, 8});
  Tensor<float> w(Shape4{1, 1, 3, 3});
  Rng rng(71);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y(Shape4{1, 1, p.out_h(8), p.out_w(8)});
  EXPECT_EQ(y.shape().h, 4);
  EXPECT_EQ(y.shape().w, 8);
  conv2d_forward_padded(x, w, y, p);
  // Spot-check one interior value by hand.
  float acc = 0;
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) acc += x(0, 0, 2 * 2 - 1 + a, 3 - 1 + b) * w(0, 0, a, b);
  EXPECT_NEAR(y(0, 0, 2, 3), acc, 1e-5f);
}

}  // namespace
}  // namespace distconv::kernels
