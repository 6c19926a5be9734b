#include "kernels/conv.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "kernels/gemm.hpp"
#include "perf/conv_planner.hpp"
#include "support/error.hpp"
#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

void check_weights(const Tensor<float>& w, const ConvParams& p) {
  DC_REQUIRE(w.shape().h == p.kh && w.shape().w == p.kw,
             "weight tensor shape ", w.shape().str(),
             " does not match kernel size ", p.kh, "x", p.kw);
}

/// Default lowering-strip budget in floats (~2 MiB). kGemmStrips tiles its
/// fallback packing buffers into strips of at most this size; its forward
/// and backward-data strips only split the GEMM's n dimension, which leaves
/// every output element's accumulation chain unchanged (and makes the budget
/// a free planner knob there). Backward filter's strips split the k
/// dimension at this fixed height in both GEMM families: the strip sequence
/// is part of dw's accumulation chain.
constexpr std::int64_t kLoweringStripElems = 1 << 19;

/// kAuto sentinel = "no override". Seeded lazily from DC_CONV_ALGO.
std::atomic<ConvAlgo> g_algo_override{ConvAlgo::kAuto};
std::atomic<bool> g_algo_override_seeded{false};

void seed_algo_override_from_env() {
  if (g_algo_override_seeded.exchange(true, std::memory_order_acq_rel)) return;
  const char* s = std::getenv("DC_CONV_ALGO");
  ConvAlgo algo = ConvAlgo::kAuto;
  if (s != nullptr && *s != '\0') {
    DC_REQUIRE(parse_conv_algo(s, &algo), "DC_CONV_ALGO: unknown algorithm '",
               s, "'");
  }
  g_algo_override.store(algo, std::memory_order_release);
}

}  // namespace

const char* conv_algo_name(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirect: return "direct";
    case ConvAlgo::kIm2col: return "im2col";
    case ConvAlgo::kGemmStrips: return "gemm-strips";
    case ConvAlgo::kWinograd: return "winograd";
    case ConvAlgo::kAuto: return "auto";
  }
  return "?";
}

bool parse_conv_algo(const char* s, ConvAlgo* out) {
  for (ConvAlgo algo :
       {ConvAlgo::kDirect, ConvAlgo::kIm2col, ConvAlgo::kGemmStrips,
        ConvAlgo::kWinograd, ConvAlgo::kAuto}) {
    if (std::strcmp(s, conv_algo_name(algo)) == 0) {
      *out = algo;
      return true;
    }
  }
  return false;
}

bool conv_algo_applicable(ConvAlgo algo, ConvPass pass, const ConvParams& p) {
  switch (algo) {
    case ConvAlgo::kDirect:
    case ConvAlgo::kIm2col:
    case ConvAlgo::kAuto:
      return true;
    case ConvAlgo::kGemmStrips:
      return p.kh == 1 && p.kw == 1 && p.sh == 1 && p.sw == 1 && p.ph == 0 &&
             p.pw == 0;
    case ConvAlgo::kWinograd:
      return pass == ConvPass::kForward && p.kh == 3 && p.kw == 3 &&
             p.sh == 1 && p.sw == 1;
  }
  return false;
}

void set_conv_algo_override(ConvAlgo algo) {
  g_algo_override_seeded.store(true, std::memory_order_release);
  g_algo_override.store(algo, std::memory_order_release);
}

ConvAlgo conv_algo_override() {
  seed_algo_override_from_env();
  return g_algo_override.load(std::memory_order_acquire);
}

ConvAlgo resolve_conv_algo(ConvAlgo algo, const ConvParams& p, std::int64_t c,
                           std::int64_t f) {
  if (algo != ConvAlgo::kAuto) return algo;
  // Arithmetic-intensity cutoff: the GEMM's panel gather packs C·Kh·Kw
  // floats per output position and reuses each F times. Shallow stencils
  // (small C·Kh·Kw) or few filters leave the GEMM memory-bound on packing
  // traffic, where the direct stencil — which touches x only once per
  // (c, a, b) — wins.
  const std::int64_t depth = c * p.kh * p.kw;
  return (depth >= 32 && f >= 8) ? ConvAlgo::kIm2col : ConvAlgo::kDirect;
}

namespace {

/// Resolve a caller-supplied algo into a full plan. Explicit algorithms (and
/// the DC_CONV_ALGO escape hatch, when the shape supports it) get a default
/// plan for that family; kAuto consults the planner, which falls back to
/// resolve_conv_algo when DC_CONV_PLAN=off.
ConvPlan resolve_plan(ConvAlgo algo, ConvPass pass, const ConvParams& p,
                      std::int64_t c, std::int64_t f) {
  if (algo == ConvAlgo::kAuto) {
    const ConvAlgo forced = conv_algo_override();
    if (forced != ConvAlgo::kAuto && conv_algo_applicable(forced, pass, p)) {
      ConvPlan plan;
      plan.algo = forced;
      return plan;
    }
    return perf::conv_plan_for(pass, p, c, f);
  }
  DC_REQUIRE(conv_algo_applicable(algo, pass, p), "algorithm ",
             conv_algo_name(algo), " cannot execute this pass/shape");
  ConvPlan plan;
  plan.algo = algo;
  return plan;
}

}  // namespace

// ---------------------------------------------------------------------------
// Padded oracles (single-threaded references; the region kernels are the
// production paths)
// ---------------------------------------------------------------------------

void conv2d_forward_padded(const Tensor<float>& x, const Tensor<float>& w,
                           Tensor<float>& y, const ConvParams& p) {
  check_weights(w, p);
  const auto& xs = x.shape();
  const auto& ys = y.shape();
  DC_REQUIRE(ys.h == p.out_h(xs.h) && ys.w == p.out_w(xs.w),
             "output shape ", ys.str(), " inconsistent with input ", xs.str());
  DC_REQUIRE(xs.c == w.shape().c && ys.c == w.shape().n,
             "channel/filter mismatch");
  for (std::int64_t k = 0; k < ys.n; ++k) {
    for (std::int64_t f = 0; f < ys.c; ++f) {
      for (std::int64_t i = 0; i < ys.h; ++i) {
        for (std::int64_t j = 0; j < ys.w; ++j) {
          float acc = 0.0f;
          for (std::int64_t c = 0; c < xs.c; ++c) {
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                acc += x(k, c, ih, iw) * w(f, c, a, b);
              }
            }
          }
          y(k, f, i, j) = acc;
        }
      }
    }
  }
}

void conv2d_backward_data_padded(const Tensor<float>& dy, const Tensor<float>& w,
                                 Tensor<float>& dx, const ConvParams& p) {
  check_weights(w, p);
  const auto& ds = dy.shape();
  const auto& xs = dx.shape();
  DC_REQUIRE(ds.h == p.out_h(xs.h) && ds.w == p.out_w(xs.w),
             "dy shape inconsistent with dx shape");
  dx.zero();
  for (std::int64_t k = 0; k < ds.n; ++k) {
    for (std::int64_t f = 0; f < ds.c; ++f) {
      for (std::int64_t i = 0; i < ds.h; ++i) {
        for (std::int64_t j = 0; j < ds.w; ++j) {
          const float g = dy(k, f, i, j);
          for (std::int64_t c = 0; c < xs.c; ++c) {
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                dx(k, c, ih, iw) += g * w(f, c, a, b);
              }
            }
          }
        }
      }
    }
  }
}

void conv2d_backward_filter_padded(const Tensor<float>& x, const Tensor<float>& dy,
                                   Tensor<float>& dw, const ConvParams& p,
                                   bool accumulate) {
  check_weights(dw, p);
  const auto& xs = x.shape();
  const auto& ds = dy.shape();
  if (!accumulate) dw.zero();
  for (std::int64_t k = 0; k < ds.n; ++k) {
    for (std::int64_t f = 0; f < ds.c; ++f) {
      for (std::int64_t c = 0; c < xs.c; ++c) {
        for (int a = 0; a < p.kh; ++a) {
          for (int b = 0; b < p.kw; ++b) {
            float acc = 0.0f;
            for (std::int64_t i = 0; i < ds.h; ++i) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (std::int64_t j = 0; j < ds.w; ++j) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                acc += dy(k, f, i, j) * x(k, c, ih, iw);
              }
            }
            dw(f, c, a, b) += acc;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Region kernels
// ---------------------------------------------------------------------------

namespace {

void conv2d_forward_direct(const Tensor<float>& x, Origin2 xo,
                           const Tensor<float>& w, Tensor<float>& y, Origin2 yo,
                           const ConvParams& p, const Range2& r) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& xst = x.strides();
  const auto& yst = y.strides();
  // Each (sample, filter) owns a disjoint output region: safe to run them
  // in parallel, and the per-element accumulation order (c, a, b, rows) is
  // independent of the thread budget.
  parallel::parallel_for(0, N * F, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t k = t / F;
      const std::int64_t f = t % F;
      // Zero the target region, then accumulate per (c, a, b).
      for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
        float* yrow = y.data() + yst.offset(k, f, gh - yo.h, r.w0 - yo.w);
        std::fill(yrow, yrow + (r.w1 - r.w0), 0.0f);
      }
      for (std::int64_t c = 0; c < C; ++c) {
        for (int a = 0; a < p.kh; ++a) {
          for (int b = 0; b < p.kw; ++b) {
            const float wv = w(f, c, a, b);
            for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
              const std::int64_t ih = gh * p.sh - p.ph + a - xo.h;
              const float* xrow =
                  x.data() + xst.offset(k, c, ih, r.w0 * p.sw - p.pw + b - xo.w);
              float* yrow = y.data() + yst.offset(k, f, gh - yo.h, r.w0 - yo.w);
              if (p.sw == 1) {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  yrow[j] += wv * xrow[j];
                }
              } else {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  yrow[j] += wv * xrow[j * p.sw];
                }
              }
            }
          }
        }
      }
    }
  });
}

/// Tap index (c, a, b) of a weight row → offset of that tap's input element
/// in a buffer with strides `st`.
IndexMap tap_map(const Strides4& st, const ConvParams& p) {
  return {p.kh, p.kw, st.c, st.h, st.w};
}

/// Position index (sample, row, col) over an rh × rw grid → buffer offset,
/// stepping `sh` buffer rows and `sw` buffer columns per grid step.
IndexMap position_map(const Strides4& st, std::int64_t rh, std::int64_t rw,
                      std::int64_t sh = 1, std::int64_t sw = 1) {
  return {rh, rw, st.n, sh * st.h, sw * st.w};
}

/// Implicit im2col: the lowering of x over the output range `r` for every
/// sample, read in place — element (tap, position) is the input value that
/// tap multiplies at that output position (zero margins encode padding).
MatrixView<const float> lowering_of(const Tensor<float>& x, Origin2 xo,
                                    const ConvParams& p, const Range2& r) {
  const auto& st = x.strides();
  return {x.data(),
          (r.h0 * p.sh - p.ph - xo.h) * st.h + (r.w0 * p.sw - p.pw - xo.w) * st.w,
          tap_map(st, p),
          position_map(st, r.h1 - r.h0, r.w1 - r.w0, p.sh, p.sw)};
}

/// Channel planes of a buffer over the range `r`, every sample: element
/// (channel, position) in place.
template <class T>
MatrixView<T> planes_of(T* data, const Strides4& st, Origin2 o, const Range2& r) {
  return {data, (r.h0 - o.h) * st.h + (r.w0 - o.w) * st.w, IndexMap::linear(st.c),
          position_map(st, r.h1 - r.h0, r.w1 - r.w0)};
}

/// Implicit-GEMM forward: y (F × positions) = W (F × C·Kh·Kw) · lowering(x),
/// one GEMM over every sample of the range. The packer gathers x straight
/// into the B panels and the epilogue writes y in place.
void conv2d_forward_im2col(const Tensor<float>& x, Origin2 xo,
                           const Tensor<float>& w, Tensor<float>& y, Origin2 yo,
                           const ConvParams& p, const Range2& r) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t ckk = w.shape().c * p.kh * p.kw;
  GemmTerm term;
  term.a = {w.data(), 0, IndexMap::linear(ckk), IndexMap::linear(1)};
  term.b = lowering_of(x, xo, p, r);
  gemm(F, N * r.area(), ckk, 1.0f, &term, 1, 0.0f,
       planes_of(y.data(), y.strides(), yo, r));
}

/// For a 1×1 stride-1 unpadded layer, a buffer's channel planes *are* the
/// lowering matrix whenever each plane's rows are dense over the range
/// (row stride == range width, zero horizontal offset): element (c, h, w)
/// sits exactly where im2col would pack it, at plane base + c·(channel
/// stride). Densely laid out buffers then skip the pack entirely.
bool dense_planes(const Tensor<float>& t, Origin2 to, const Range2& r) {
  return t.strides().h == (r.w1 - r.w0) && r.w0 == to.w;
}

/// Zero-copy forward for 1×1 stride-1 unpadded layers: y = W·x per strip,
/// reading x planes and writing y planes in place. Bitwise identical to
/// kIm2col — the GEMM sees the same operand values in the same (m, n, k)
/// shape, only through different leading dimensions; non-dense buffers fall
/// back to packing, which is exactly the im2col path.
void conv2d_forward_gemm_strips(const Tensor<float>& x, Origin2 xo,
                                const Tensor<float>& w, Tensor<float>& y,
                                Origin2 yo, const ConvParams& p, const Range2& r,
                                std::int64_t strip_elems) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const auto& xst = x.strides();
  const auto& yst = y.strides();
  const bool x_dense = dense_planes(x, xo, r);
  const bool y_dense = dense_planes(y, yo, r);
  const std::int64_t hb = lowering_strip_height(C, rw, strip_elems);
  std::vector<float> col, out;
  if (!x_dense) col.resize(static_cast<std::size_t>(C) * hb * rw);
  if (!y_dense) out.resize(static_cast<std::size_t>(F) * hb * rw);
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const float* b;
      std::int64_t ldb;
      if (x_dense) {
        b = x.data() + xst.offset(k, 0, rs.h0 - xo.h, 0);
        ldb = xst.c;
      } else {
        im2col(x, xo, k, p, rs, col.data());
        b = col.data();
        ldb = rows;
      }
      // y (F × rows) = W (F × C) · x (C × rows)
      if (y_dense) {
        sgemm(false, false, F, rows, C, 1.0f, w.data(), C, b, ldb, 0.0f,
              y.data() + yst.offset(k, 0, rs.h0 - yo.h, 0), yst.c);
      } else {
        sgemm(false, false, F, rows, C, 1.0f, w.data(), C, b, ldb, 0.0f,
              out.data(), rows);
        parallel::parallel_for(0, F, 1, [&](std::int64_t f0, std::int64_t f1) {
          for (std::int64_t f = f0; f < f1; ++f) {
            const float* src = out.data() + f * rows;
            for (std::int64_t gh = rs.h0; gh < rs.h1; ++gh) {
              float* yrow =
                  y.data() + yst.offset(k, f, gh - yo.h, rs.w0 - yo.w);
              std::copy(src, src + rw, yrow);
              src += rw;
            }
          }
        });
      }
    }
  }
}

}  // namespace

std::int64_t lowering_strip_height(std::int64_t depth, std::int64_t rw,
                                   std::int64_t elems) {
  if (elems <= 0) elems = kLoweringStripElems;
  const std::int64_t target_rows = std::max<std::int64_t>(1, elems / depth);
  return std::max<std::int64_t>(1, target_rows / std::max<std::int64_t>(1, rw));
}

void im2col(const Tensor<float>& x, Origin2 xo, std::int64_t sample,
            const ConvParams& p, const Range2& r, float* col) {
  const std::int64_t C = x.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const std::int64_t rows = r.area();
  const auto& xst = x.strides();
  // Channel c owns rows [c·kh·kw, (c+1)·kh·kw) of the lowering: disjoint
  // writes, parallel over channels.
  parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      std::int64_t m = c * p.kh * p.kw;
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b, ++m) {
          float* dst = col + m * rows;
          for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
            const std::int64_t ih = gh * p.sh - p.ph + a - xo.h;
            const float* xrow =
                x.data() +
                xst.offset(sample, c, ih, r.w0 * p.sw - p.pw + b - xo.w);
            if (p.sw == 1) {
              std::copy(xrow, xrow + rw, dst);
            } else {
              for (std::int64_t j = 0; j < rw; ++j) dst[j] = xrow[j * p.sw];
            }
            dst += rw;
          }
        }
      }
    }
  });
}

void conv2d_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                    Tensor<float>& y, Origin2 yo, const ConvParams& p,
                    const Range2& r, ConvAlgo algo) {
  conv2d_forward(
      x, xo, w, y, yo, p, r,
      resolve_plan(algo, ConvPass::kForward, p, w.shape().c, w.shape().n));
}

void conv2d_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                    Tensor<float>& y, Origin2 yo, const ConvParams& p,
                    const Range2& r, const ConvPlan& plan) {
  check_weights(w, p);
  if (r.empty()) return;
  DC_REQUIRE(x.shape().n == y.shape().n, "sample count mismatch");
  parallel::ScopedPlacement place(plan.thread_cap, plan.numa_node);
  switch (plan.algo) {
    case ConvAlgo::kDirect:
      conv2d_forward_direct(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kIm2col:
      conv2d_forward_im2col(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kGemmStrips:
      conv2d_forward_gemm_strips(x, xo, w, y, yo, p, r, plan.strip_elems);
      break;
    case ConvAlgo::kWinograd:
      conv2d_forward_winograd(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kAuto:
      DC_FAIL("plan has an unresolved algorithm");
  }
}

// ---------------------------------------------------------------------------
// Backward data
// ---------------------------------------------------------------------------

namespace {

/// Pack `nch` channel planes of `t` over the window `win` into a dense
/// (nch × win.area()) matrix.
void pack_window(const Tensor<float>& t, Origin2 to, std::int64_t sample,
                 std::int64_t nch, const Range2& win, float* dst) {
  const auto& st = t.strides();
  const std::int64_t ww = win.w1 - win.w0;
  const std::int64_t rows = win.area();
  parallel::parallel_for(0, nch, 1, [&](std::int64_t f0, std::int64_t f1) {
    for (std::int64_t f = f0; f < f1; ++f) {
      float* out = dst + f * rows;
      for (std::int64_t jh = win.h0; jh < win.h1; ++jh) {
        const float* src =
            t.data() + st.offset(sample, f, jh - to.h, win.w0 - to.w);
        std::copy(src, src + ww, out);
        out += ww;
      }
    }
  });
}

void conv2d_backward_data_direct(const Tensor<float>& dy, Origin2 dyo,
                                 const Tensor<float>& w, Tensor<float>& dx,
                                 Origin2 dxo, const ConvParams& p, const Range2& r,
                                 std::int64_t out_h, std::int64_t out_w) {
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& dyst = dy.strides();
  const auto& wst = w.strides();
  const std::int64_t rh = r.h1 - r.h0;
  // Each (sample, input row) writes a disjoint dx row.
  parallel::parallel_for(0, N * rh, 1, [&](std::int64_t t0, std::int64_t t1) {
    std::vector<float> acc(C);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t k = t / rh;
      const std::int64_t gi = r.h0 + t % rh;
      // Output rows jh with a = gi + ph - sh·jh ∈ [0, kh), jh ∈ [0, out_h).
      const std::int64_t jh_lo =
          std::max<std::int64_t>(0, ceil_div(gi + p.ph - p.kh + 1, p.sh));
      const std::int64_t jh_hi =
          std::min<std::int64_t>(out_h - 1, floor_div(gi + p.ph, p.sh));
      for (std::int64_t gj = r.w0; gj < r.w1; ++gj) {
        const std::int64_t jw_lo =
            std::max<std::int64_t>(0, ceil_div(gj + p.pw - p.kw + 1, p.sw));
        const std::int64_t jw_hi =
            std::min<std::int64_t>(out_w - 1, floor_div(gj + p.pw, p.sw));
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::int64_t jh = jh_lo; jh <= jh_hi; ++jh) {
          const std::int64_t a = gi + p.ph - p.sh * jh;
          for (std::int64_t jw = jw_lo; jw <= jw_hi; ++jw) {
            const std::int64_t b = gj + p.pw - p.sw * jw;
            for (std::int64_t f = 0; f < F; ++f) {
              const float g = dy.data()[dyst.offset(k, f, jh - dyo.h, jw - dyo.w)];
              const float* wbase = w.data() + wst.offset(f, 0, a, b);
              for (std::int64_t c = 0; c < C; ++c) {
                acc[c] += g * wbase[c * wst.c];
              }
            }
          }
        }
        for (std::int64_t c = 0; c < C; ++c) {
          dx(k, c, gi - dxo.h, gj - dxo.w) = acc[c];
        }
      }
    }
  });
}

/// Implicit col2im backward data. Input positions split into sh × sw
/// phase classes by (g + pad) mod stride; within a class every position is
/// reached by the same taps (a, b), each through a dy window shifted by a
/// whole number of output rows/cols. Per class, one GEMM over all samples
/// sums one term per tap: Wᵀ_ab (C × F) · dy shifted (F × positions),
/// masked to the positions whose output (jh, jw) lies inside the global
/// output extents. Staged terms keep col2im's chain exactly: each tap's
/// F-sum is formed from zero (the dcol element) and then added into dx in
/// ascending (a, b) order.
void conv2d_backward_data_gemm(const Tensor<float>& dy, Origin2 dyo,
                               const Tensor<float>& w, Tensor<float>& dx,
                               Origin2 dxo, const ConvParams& p, const Range2& r,
                               std::int64_t out_h, std::int64_t out_w) {
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& dyst = dy.strides();
  const auto& dxst = dx.strides();
  // Wᵀ per tap, laid out [a][b][f][c] so each term's A panel reads
  // contiguous channel runs (the taps of W interleave at stride Kh·Kw).
  std::vector<float> wt(static_cast<std::size_t>(w.size()));
  for (std::int64_t f = 0; f < F; ++f) {
    for (std::int64_t c = 0; c < C; ++c) {
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b) {
          wt[((a * p.kw + b) * F + f) * C + c] = w(f, c, a, b);
        }
      }
    }
  }
  std::vector<GemmTerm> terms;
  for (int qh = 0; qh < p.sh; ++qh) {
    const std::int64_t gi0 = r.h0 + floor_mod(qh - r.h0 - p.ph, p.sh);
    const std::int64_t nu = gi0 < r.h1 ? ceil_div(r.h1 - gi0, p.sh) : 0;
    for (int qw = 0; qw < p.sw; ++qw) {
      const std::int64_t gj0 = r.w0 + floor_mod(qw - r.w0 - p.pw, p.sw);
      const std::int64_t nv = gj0 < r.w1 ? ceil_div(r.w1 - gj0, p.sw) : 0;
      if (nu == 0 || nv == 0) continue;
      terms.clear();
      for (int a = qh; a < p.kh; a += p.sh) {
        const std::int64_t jh0 = floor_div(gi0 + p.ph - a, p.sh);
        for (int b = qw; b < p.kw; b += p.sw) {
          const std::int64_t jw0 = floor_div(gj0 + p.pw - b, p.sw);
          GemmTerm t;
          t.a = {wt.data(), (a * p.kw + b) * F * C, IndexMap::linear(1),
                 IndexMap::linear(C)};
          t.b = {dy.data(), (jh0 - dyo.h) * dyst.h + (jw0 - dyo.w) * dyst.w,
                 IndexMap::linear(dyst.c), position_map(dyst, nu, nv)};
          t.mid0 = std::max<std::int64_t>(0, -jh0);
          t.mid1 = std::min(nu, out_h - jh0);
          t.inner0 = std::max<std::int64_t>(0, -jw0);
          t.inner1 = std::min(nv, out_w - jw0);
          if (t.mid0 < t.mid1 && t.inner0 < t.inner1) terms.push_back(t);
        }
      }
      const MatrixView<float> out{
          dx.data(), (gi0 - dxo.h) * dxst.h + (gj0 - dxo.w) * dxst.w,
          IndexMap::linear(dxst.c), position_map(dxst, nu, nv, p.sh, p.sw)};
      GemmChain chain;
      chain.stage_terms = true;
      gemm(C, N * nu * nv, F, 1.0f, terms.data(),
           static_cast<int>(terms.size()), 0.0f, out, chain);
    }
  }
}

/// Zero-copy backward data for 1×1 stride-1 unpadded layers: dx = Wᵀ·dy per
/// strip, straight between buffer planes — the gather window degenerates to
/// the range itself, so the col2im scatter disappears. Bitwise identical to
/// kIm2col (the legacy dx = 0 + dcol copy cannot change bits: micro-kernel
/// accumulators never produce -0, so adding dcol onto zero is the identity).
void conv2d_backward_data_gemm_strips(const Tensor<float>& dy, Origin2 dyo,
                                      const Tensor<float>& w, Tensor<float>& dx,
                                      Origin2 dxo, const ConvParams& p,
                                      const Range2& r, std::int64_t out_h,
                                      std::int64_t out_w,
                                      std::int64_t strip_elems) {
  if (r.h0 < 0 || r.h1 > out_h || r.w0 < 0 || r.w1 > out_w) {
    // The window would clip; keep the general path (identical results).
    conv2d_backward_data_gemm(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
    return;
  }
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const auto& dyst = dy.strides();
  const auto& dxst = dx.strides();
  const bool dy_dense = dense_planes(dy, dyo, r);
  const bool dx_dense = dense_planes(dx, dxo, r);
  const std::int64_t hb = lowering_strip_height(C, rw, strip_elems);
  std::vector<float> dyp, dcol;
  if (!dy_dense) dyp.resize(static_cast<std::size_t>(F) * hb * rw);
  if (!dx_dense) dcol.resize(static_cast<std::size_t>(C) * hb * rw);
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t g0 = r.h0; g0 < r.h1; g0 += hb) {
      const Range2 rs{g0, std::min(r.h1, g0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const float* b;
      std::int64_t ldb;
      if (dy_dense) {
        b = dy.data() + dyst.offset(k, 0, rs.h0 - dyo.h, 0);
        ldb = dyst.c;
      } else {
        pack_window(dy, dyo, k, F, rs, dyp.data());
        b = dyp.data();
        ldb = rows;
      }
      // dx (C × rows) = Wᵀ (C × F) · dy (F × rows)
      if (dx_dense) {
        sgemm(true, false, C, rows, F, 1.0f, w.data(), C, b, ldb, 0.0f,
              dx.data() + dxst.offset(k, 0, rs.h0 - dxo.h, 0), dxst.c);
      } else {
        sgemm(true, false, C, rows, F, 1.0f, w.data(), C, b, ldb, 0.0f,
              dcol.data(), rows);
        parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
          for (std::int64_t c = c0; c < c1; ++c) {
            const float* src = dcol.data() + c * rows;
            for (std::int64_t gi = rs.h0; gi < rs.h1; ++gi) {
              float* drow =
                  dx.data() + dxst.offset(k, c, gi - dxo.h, rs.w0 - dxo.w);
              std::fill(drow, drow + rw, 0.0f);
              for (std::int64_t j = 0; j < rw; ++j) drow[j] += src[j];
              src += rw;
            }
          }
        });
      }
    }
  }
}

}  // namespace

void conv2d_backward_data(const Tensor<float>& dy, Origin2 dyo,
                          const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                          const ConvParams& p, const Range2& r, std::int64_t out_h,
                          std::int64_t out_w, ConvAlgo algo) {
  conv2d_backward_data(dy, dyo, w, dx, dxo, p, r, out_h, out_w,
                       resolve_plan(algo, ConvPass::kBackwardData, p,
                                    w.shape().c, w.shape().n));
}

void conv2d_backward_data(const Tensor<float>& dy, Origin2 dyo,
                          const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                          const ConvParams& p, const Range2& r, std::int64_t out_h,
                          std::int64_t out_w, const ConvPlan& plan) {
  check_weights(w, p);
  if (r.empty()) return;
  parallel::ScopedPlacement place(plan.thread_cap, plan.numa_node);
  switch (plan.algo) {
    case ConvAlgo::kDirect:
      conv2d_backward_data_direct(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      break;
    case ConvAlgo::kIm2col:
      conv2d_backward_data_gemm(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      break;
    case ConvAlgo::kGemmStrips:
      conv2d_backward_data_gemm_strips(dy, dyo, w, dx, dxo, p, r, out_h, out_w,
                                       plan.strip_elems);
      break;
    case ConvAlgo::kWinograd:
      DC_FAIL("winograd has no backward-data kernel");
    case ConvAlgo::kAuto:
      DC_FAIL("plan has an unresolved algorithm");
  }
}

// ---------------------------------------------------------------------------
// Backward filter
// ---------------------------------------------------------------------------

namespace {

void conv2d_backward_filter_direct(const Tensor<float>& x, Origin2 xo,
                                   const Tensor<float>& dy, Origin2 dyo,
                                   Tensor<float>& dw, const ConvParams& p,
                                   const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t C = dw.shape().c;
  const auto& xst = x.strides();
  const auto& dyst = dy.strides();
  // Each (filter, channel) owns a disjoint dw plane; the (k, a, b, rows)
  // reduction order inside is fixed.
  parallel::parallel_for(0, F * C, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t f = t / C;
      const std::int64_t c = t % C;
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b) {
          float acc = 0.0f;
          for (std::int64_t k = 0; k < N; ++k) {
            for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
              const std::int64_t ih = gh * p.sh - p.ph + a - xo.h;
              const float* dyrow =
                  dy.data() + dyst.offset(k, f, gh - dyo.h, r.w0 - dyo.w);
              const float* xrow =
                  x.data() + xst.offset(k, c, ih, r.w0 * p.sw - p.pw + b - xo.w);
              if (p.sw == 1) {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  acc += dyrow[j] * xrow[j];
                }
              } else {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  acc += dyrow[j] * xrow[j * p.sw];
                }
              }
            }
          }
          dw(f, c, a, b) += acc;
        }
      }
    }
  });
}

/// Implicit-GEMM backward filter: dw (F × C·Kh·Kw) += dy (F × positions) ·
/// lowering(x)ᵀ, with dy and the x lowering packed in place. The k range
/// (every sample's positions) is cut per sample into strips of the default
/// lowering height: the strip sequence is part of dw's accumulation chain.
void conv2d_backward_filter_gemm(const Tensor<float>& x, Origin2 xo,
                                 const Tensor<float>& dy, Origin2 dyo,
                                 Tensor<float>& dw, const ConvParams& p,
                                 const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t ckk = dw.shape().c * p.kh * p.kw;
  const std::int64_t rw = r.w1 - r.w0;
  const MatrixView<const float> col = lowering_of(x, xo, p, r);
  GemmTerm term;
  term.a = planes_of(dy.data(), dy.strides(), dyo, r);
  term.b = {col.base, col.off, col.cols, col.rows};  // transposed
  GemmChain chain;
  chain.k_period = r.area();
  chain.k_seg = lowering_strip_height(ckk, rw) * rw;
  gemm(F, ckk, N * r.area(), 1.0f, &term, 1, 1.0f,
       {dw.data(), 0, IndexMap::linear(ckk), IndexMap::linear(1)}, chain);
}

/// Zero-copy backward filter for 1×1 stride-1 unpadded layers: the strips
/// split the GEMM's *k* dimension, so the strip height stays at the fixed
/// default (it is part of dw's accumulation chain) and only the packs are
/// elided — dy and x planes feed the GEMM in place when dense. Bitwise
/// identical to kIm2col: same strip sequence, same operand values.
void conv2d_backward_filter_gemm_strips(const Tensor<float>& x, Origin2 xo,
                                        const Tensor<float>& dy, Origin2 dyo,
                                        Tensor<float>& dw, const ConvParams& p,
                                        const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t C = dw.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const auto& xst = x.strides();
  const auto& dyst = dy.strides();
  const bool x_dense = dense_planes(x, xo, r);
  const bool dy_dense = dense_planes(dy, dyo, r);
  const std::int64_t hb = lowering_strip_height(C, rw);
  std::vector<float> col, dyp;
  if (!x_dense) col.resize(static_cast<std::size_t>(C) * hb * rw);
  if (!dy_dense) dyp.resize(static_cast<std::size_t>(F) * hb * rw);
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const float* a;
      std::int64_t lda;
      if (dy_dense) {
        a = dy.data() + dyst.offset(k, 0, rs.h0 - dyo.h, 0);
        lda = dyst.c;
      } else {
        pack_window(dy, dyo, k, F, rs, dyp.data());
        a = dyp.data();
        lda = rows;
      }
      const float* b;
      std::int64_t ldb;
      if (x_dense) {
        b = x.data() + xst.offset(k, 0, rs.h0 - xo.h, 0);
        ldb = xst.c;
      } else {
        im2col(x, xo, k, p, rs, col.data());
        b = col.data();
        ldb = rows;
      }
      // dw (F × C) += dy (F × rows) · x (C × rows)ᵀ
      sgemm(false, true, F, C, rows, 1.0f, a, lda, b, ldb, 1.0f, dw.data(), C);
    }
  }
}

}  // namespace

void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& r, bool accumulate,
                            ConvAlgo algo) {
  conv2d_backward_filter(x, xo, dy, dyo, dw, p, r, accumulate,
                         resolve_plan(algo, ConvPass::kBackwardFilter, p,
                                      dw.shape().c, dw.shape().n));
}

void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& r, bool accumulate,
                            const ConvPlan& plan) {
  check_weights(dw, p);
  if (!accumulate) dw.zero();
  if (r.empty()) return;
  parallel::ScopedPlacement place(plan.thread_cap, plan.numa_node);
  switch (plan.algo) {
    case ConvAlgo::kDirect:
      conv2d_backward_filter_direct(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kIm2col:
      conv2d_backward_filter_gemm(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kGemmStrips:
      conv2d_backward_filter_gemm_strips(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kWinograd:
      DC_FAIL("winograd has no backward-filter kernel");
    case ConvAlgo::kAuto:
      DC_FAIL("plan has an unresolved algorithm");
  }
}

}  // namespace distconv::kernels
