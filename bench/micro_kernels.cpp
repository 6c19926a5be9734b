// google-benchmark microbenchmarks for the local compute kernels — the
// algorithm-selection study behind the paper's reliance on cuDNN autotuning
// (direct vs im2col+GEMM, forward vs backward passes), on shrunken versions
// of the Fig. 2/3 layer geometries.
//
// Items processed are FLOP counts (2·N·F·H̃·W̃·C·Kh·Kw per conv pass), so
// items_per_second reads directly as FLOP/s. The *_threads variants sweep
// the intra-rank pool budget to expose kernel strong-scaling.
#include <benchmark/benchmark.h>

#include "bench/kernel_shapes.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/pooling.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tensor/margins.hpp"

namespace {

using namespace distconv;
using namespace distconv::kernels;

// Layer geometries and FLOP counts shared with calibrate_kernels, so the
// calibration table always times exactly these shapes.
using bench::LayerArgs;
using bench::conv_flops;
using bench::kConv1;
using bench::kMesh11;
using bench::kMesh61;
using bench::kRes3b;
using bench::kRes3x3;
using bench::params_of;

/// Pin the pool budget from a benchmark Arg (0 keeps automatic sizing).
struct ThreadArg {
  explicit ThreadArg(benchmark::State& state) {
    parallel::set_num_threads(static_cast<int>(state.range(0)));
  }
  ~ThreadArg() { parallel::set_num_threads(0); }
};

void bench_forward(benchmark::State& state, const LayerArgs& a, ConvAlgo algo) {
  const ConvParams p = params_of(a);
  Tensor<float> x(Shape4{a.n, a.c, a.h + 2 * p.ph, a.w + 2 * p.pw});
  Tensor<float> w(Shape4{a.f, a.c, a.k, a.k});
  Tensor<float> y(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Rng rng(5);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  const Range2 full{0, y.shape().h, 0, y.shape().w};
  for (auto _ : state) {
    conv2d_forward(x, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, full, algo);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_forward_threads(benchmark::State& state, const LayerArgs& a,
                           ConvAlgo algo) {
  ThreadArg threads(state);
  bench_forward(state, a, algo);
}

void bench_backward_data(benchmark::State& state, const LayerArgs& a,
                         ConvAlgo algo) {
  const ConvParams p = params_of(a);
  Tensor<float> dy(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Tensor<float> w(Shape4{a.f, a.c, a.k, a.k});
  Tensor<float> dx(Shape4{a.n, a.c, a.h, a.w});
  Rng rng(6);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  for (auto _ : state) {
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                         Range2{0, a.h, 0, a.w}, dy.shape().h, dy.shape().w,
                         algo);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_backward_filter(benchmark::State& state, const LayerArgs& a,
                           ConvAlgo algo) {
  const ConvParams p = params_of(a);
  Tensor<float> x(Shape4{a.n, a.c, a.h + 2 * p.ph, a.w + 2 * p.pw});
  Tensor<float> dy(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Tensor<float> dw(Shape4{a.f, a.c, a.k, a.k});
  Rng rng(7);
  x.fill_uniform(rng);
  dy.fill_uniform(rng);
  const Range2 full{0, dy.shape().h, 0, dy.shape().w};
  for (auto _ : state) {
    conv2d_backward_filter(x, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw, p,
                           full, false, algo);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

// ---------------------------------------------------------------------------
// Rank shards of e2ebench's mesh-spatial workload: the mesh model on 4×256²
// samples split two ways over H, timed as rank 0 holds them. dy carries the
// transpose-stencil margins the model gives it where dx is live, so backward
// data reads its window from a margin buffer as in training. Kept out of
// kKernelShapes/kPlannerShapes: the calibration table and BENCH_train.json
// do not time these.
// ---------------------------------------------------------------------------

/// One conv layer of a rank shard: n samples, c → f channels, k×k stride s
/// (pad k/2), an oh × ow output block of a 2·oh-row global output.
struct ShardArgs {
  std::int64_t n, c, f;
  int k, s;
  std::int64_t oh, ow;
};

constexpr ShardArgs kShardConv11{4, 4, 8, 5, 2, 64, 128};
constexpr ShardArgs kShardConv21{4, 8, 10, 3, 2, 32, 64};
constexpr ShardArgs kShardConv31{4, 10, 12, 3, 2, 16, 32};

/// Rank 0's buffers for one shard layer; every buffer, margins included,
/// holds random values.
struct Shard {
  ConvParams p;
  std::int64_t ih, iw;  ///< the rank's input block (= its dx range)
  Range2 out;           ///< the rank's output block (= its y / dy range)
  Tensor<float> x, w, y, dy, dx, dw;
  Origin2 xo, dyo;

  explicit Shard(const ShardArgs& a)
      : p{a.k, a.k, a.s, a.s, a.k / 2, a.k / 2},
        ih(a.oh * a.s),
        iw(a.ow * a.s),
        out{0, a.oh, 0, a.ow},
        x(Shape4{a.n, a.c, ih + 2 * p.ph, iw + 2 * p.pw}),
        w(Shape4{a.f, a.c, a.k, a.k}),
        y(Shape4{a.n, a.f, a.oh, a.ow}),
        dx(Shape4{a.n, a.c, ih, iw}),
        dw(Shape4{a.f, a.c, a.k, a.k}),
        xo{-p.ph, -p.pw} {
    const StencilSpec st{a.k, a.s, a.k / 2};
    const MarginTable mh = transpose_stencil_margins(
        DimPartition(2 * ih, 2), DimPartition(2 * a.oh, 2), st);
    const MarginTable mw = transpose_stencil_margins(
        DimPartition(iw, 1), DimPartition(a.ow, 1), st);
    dy = Tensor<float>(Shape4{a.n, a.f, a.oh + mh.lo[0] + mh.hi[0],
                              a.ow + mw.lo[0] + mw.hi[0]});
    dyo = Origin2{-mh.lo[0], -mw.lo[0]};
    Rng rng(10);
    x.fill_uniform(rng);
    w.fill_uniform(rng);
    dy.fill_uniform(rng);
  }

  double flops() const {
    return 2.0 * double(y.size()) * w.shape().c * p.kh * p.kw;
  }
};

void bench_shard_forward(benchmark::State& state, const ShardArgs& a) {
  Shard s(a);
  for (auto _ : state) {
    conv2d_forward(s.x, s.xo, s.w, s.y, Origin2{0, 0}, s.p, s.out,
                   ConvAlgo::kIm2col);
    benchmark::DoNotOptimize(s.y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * s.flops()));
}

void bench_shard_backward_data(benchmark::State& state, const ShardArgs& a) {
  Shard s(a);
  for (auto _ : state) {
    conv2d_backward_data(s.dy, s.dyo, s.w, s.dx, Origin2{0, 0}, s.p,
                         Range2{0, s.ih, 0, s.iw}, 2 * a.oh, a.ow,
                         ConvAlgo::kIm2col);
    benchmark::DoNotOptimize(s.dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * s.flops()));
}

void bench_shard_backward_filter(benchmark::State& state, const ShardArgs& a) {
  Shard s(a);
  for (auto _ : state) {
    conv2d_backward_filter(s.x, s.xo, s.dy, s.dyo, s.dw, s.p, s.out, false,
                           ConvAlgo::kIm2col);
    benchmark::DoNotOptimize(s.dw.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * s.flops()));
}

void bench_pool(benchmark::State& state, PoolMode mode) {
  PoolParams p{3, 3, 2, 2, 1, 1, mode};
  Tensor<float> x(Shape4{4, 64, 58, 58});
  Tensor<float> y(Shape4{4, 64, 28, 28});
  Tensor<std::int64_t> am(y.shape());
  Rng rng(8);
  x.fill_uniform(rng);
  for (auto _ : state) {
    pool2d_forward(x, Origin2{-1, -1}, y, Origin2{0, 0},
                   mode == PoolMode::kMax ? &am : nullptr, Origin2{0, 0}, p,
                   Range2{0, 28, 0, 28}, 56, 56);
    benchmark::DoNotOptimize(y.data());
  }
  // One comparison/add per window element.
  state.SetItemsProcessed(state.iterations() * y.size() * p.kh * p.kw);
}

// ---------------------------------------------------------------------------
// GEMM: the im2col contraction shapes of the paper's layer geometries
// (M = filters, N = output positions per sample, K = C·Kh·Kw), plus the
// model-parallel FC shape. items_per_second = FLOP/s.
// ---------------------------------------------------------------------------

void bench_gemm_shape(benchmark::State& state, std::int64_t m, std::int64_t n,
                      std::int64_t k) {
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  Rng rng(9);
  for (auto& v : a) v = float(rng.uniform(-1, 1));
  for (auto& v : b) v = float(rng.uniform(-1, 1));
  for (auto _ : state) {
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
          n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2.0 * m * n * k));
}

std::int64_t out_positions(const LayerArgs& a) {
  const ConvParams p = params_of(a);
  return p.out_h(a.h) * p.out_w(a.w);
}

void bench_gemm(benchmark::State& state, const LayerArgs& a) {
  bench_gemm_shape(state, a.f, out_positions(a), a.c * std::int64_t(a.k) * a.k);
}

void bench_gemm_threads(benchmark::State& state, const LayerArgs& a) {
  ThreadArg threads(state);
  bench_gemm(state, a);
}

}  // namespace

BENCHMARK_CAPTURE(bench_forward, conv1_direct, kConv1, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, conv1_im2col, kConv1, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward, res3b_direct, kRes3b, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, res3b_im2col, kRes3b, ConvAlgo::kIm2col);
// The planner's pack-free GEMM family (1×1/s1 layers): im2col minus the pack.
BENCHMARK_CAPTURE(bench_forward, res3b_gemm_strips, kRes3b,
                  ConvAlgo::kGemmStrips);
// Winograd F(2×2,3×3) vs the GEMM lowering on the 3×3 residual layer.
BENCHMARK_CAPTURE(bench_forward, res3b_3x3_im2col, kRes3x3, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward, res3b_3x3_winograd, kRes3x3,
                  ConvAlgo::kWinograd);
BENCHMARK_CAPTURE(bench_forward, mesh_conv1_1_direct, kMesh11, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, mesh_conv1_1_im2col, kMesh11, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward, mesh_conv6_1_direct, kMesh61, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, mesh_conv6_1_im2col, kMesh61, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward_threads, res3b_im2col, kRes3b, ConvAlgo::kIm2col)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(bench_backward_data, res3b_direct, kRes3b, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_data, res3b_gemm, kRes3b, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_backward_data, res3b_gemm_strips, kRes3b,
                  ConvAlgo::kGemmStrips);
BENCHMARK_CAPTURE(bench_backward_data, mesh_conv6_1_direct, kMesh61,
                  ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_data, mesh_conv6_1_gemm, kMesh61,
                  ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_backward_filter, res3b_direct, kRes3b, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_filter, res3b_gemm, kRes3b, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_backward_filter, res3b_gemm_strips, kRes3b,
                  ConvAlgo::kGemmStrips);
BENCHMARK_CAPTURE(bench_backward_filter, mesh_conv6_1_direct, kMesh61,
                  ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_filter, mesh_conv6_1_gemm, kMesh61,
                  ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_shard_forward, mesh_spatial_conv1_1, kShardConv11);
BENCHMARK_CAPTURE(bench_shard_backward_data, mesh_spatial_conv1_1, kShardConv11);
BENCHMARK_CAPTURE(bench_shard_backward_filter, mesh_spatial_conv1_1, kShardConv11);
BENCHMARK_CAPTURE(bench_shard_forward, mesh_spatial_conv2_1, kShardConv21);
BENCHMARK_CAPTURE(bench_shard_backward_data, mesh_spatial_conv2_1, kShardConv21);
BENCHMARK_CAPTURE(bench_shard_backward_filter, mesh_spatial_conv2_1, kShardConv21);
BENCHMARK_CAPTURE(bench_shard_forward, mesh_spatial_conv3_1, kShardConv31);
BENCHMARK_CAPTURE(bench_shard_backward_data, mesh_spatial_conv3_1, kShardConv31);
BENCHMARK_CAPTURE(bench_shard_backward_filter, mesh_spatial_conv3_1, kShardConv31);
BENCHMARK_CAPTURE(bench_pool, max, distconv::kernels::PoolMode::kMax);
BENCHMARK_CAPTURE(bench_pool, average, distconv::kernels::PoolMode::kAverage);
BENCHMARK_CAPTURE(bench_gemm, conv1, kConv1);
BENCHMARK_CAPTURE(bench_gemm, res3b, kRes3b);
BENCHMARK_CAPTURE(bench_gemm, mesh_conv1_1, kMesh11);
BENCHMARK_CAPTURE(bench_gemm, mesh_conv6_1, kMesh61);
// FC forward: y (N × F) = x (N × D) · Wᵀ, N=32, D=2048, F=1000.
BENCHMARK_CAPTURE(bench_gemm_shape, fc1000, 32, 1000, 2048);
BENCHMARK_CAPTURE(bench_gemm_threads, res3b, kRes3b)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

BENCHMARK_MAIN();
