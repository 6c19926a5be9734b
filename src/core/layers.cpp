#include "core/layers.hpp"

#include <cmath>

#include "core/model.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/gemm.hpp"
#include "support/intmath.hpp"
#include "support/logging.hpp"

namespace distconv::core {
namespace {

using kernels::Origin2;
using kernels::Range2;

/// Global (h, w) of a buffer's (.., .., 0, 0) element.
Origin2 origin_of(const DistTensor<float>& t) {
  return {t.owned_start(2) - t.h_margin_lo(), t.owned_start(3) - t.w_margin_lo()};
}

template <typename T>
Origin2 origin_of_t(const DistTensor<T>& t) {
  return {t.owned_start(2) - t.h_margin_lo(), t.owned_start(3) - t.w_margin_lo()};
}

/// Global owned output/input range of a tensor.
Range2 owned_range(const Box4& owned) {
  return {owned.off[2], owned.off[2] + owned.ext[2], owned.off[3],
          owned.off[3] + owned.ext[3]};
}

/// The sub-range of `out_owned` whose stencil needs only locally available
/// input (owned data or global-boundary padding) — the "interior domain" of
/// §IV-A that can be computed while halos are in flight.
Range2 interior_range(const DistTensor<float>& x, int kh, int kw, int sh, int sw,
                      int ph, int pw, const Range2& out_owned) {
  const std::int64_t H = x.dist().h.global(), W = x.dist().w.global();
  const std::int64_t hs = x.owned_start(2), he = hs + x.local_shape().h;
  const std::int64_t ws = x.owned_start(3), we = ws + x.local_shape().w;
  Range2 r = out_owned;
  if (hs > 0) r.h0 = std::max(r.h0, ceil_div(hs + ph, sh));
  if (he < H) r.h1 = std::min(r.h1, floor_div(he - 1 + ph - (kh - 1), sh) + 1);
  if (ws > 0) r.w0 = std::max(r.w0, ceil_div(ws + pw, sw));
  if (we < W) r.w1 = std::min(r.w1, floor_div(we - 1 + pw - (kw - 1), sw) + 1);
  if (r.empty()) return Range2{0, 0, 0, 0};
  return r;
}

/// Boundary strips covering owned \ interior (≤ 4 disjoint ranges).
std::vector<Range2> boundary_ranges(const Range2& owned, const Range2& interior) {
  if (interior.empty()) return {owned};
  std::vector<Range2> out;
  if (interior.h0 > owned.h0) {
    out.push_back({owned.h0, interior.h0, owned.w0, owned.w1});
  }
  if (interior.h1 < owned.h1) {
    out.push_back({interior.h1, owned.h1, owned.w0, owned.w1});
  }
  if (interior.w0 > owned.w0) {
    out.push_back({interior.h0, interior.h1, owned.w0, interior.w0});
  }
  if (interior.w1 < owned.w1) {
    out.push_back({interior.h0, interior.h1, interior.w1, owned.w1});
  }
  return out;
}

struct PoolScratch : LayerScratch {
  std::unique_ptr<DistTensor<std::int64_t>> argmax;
  std::unique_ptr<HaloExchange<std::int64_t>> argmax_halo;
  bool argmax_fresh = false;
};

struct BnScratch : LayerScratch {
  std::vector<float> mean, invstd;
  bool warned_stat_fallback = false;  ///< one warning per layer per model
};

struct FcScratch : LayerScratch {
  std::vector<float> x_flat, dy_flat, dx_flat, y_flat;
};

/// Scratch of the channel/filter-parallel conv schedule (grid.c > 1). All
/// tensors are dense (no margins except dy_full, which mirrors dL/dy's
/// margin frame so the transpose-stencil gather reads stay in-bounds).
struct ConvChannelScratch : LayerScratch {
  Tensor<float> w_slice;    ///< w[:, I_C^(c), :, :] — (F, C_loc, K, K)
  Tensor<float> y_partial;  ///< full-F partial sums over local channels
  /// Allgathered full-F dL/dy incl. margins; allocated by the first backward.
  Tensor<float> dy_full;
  Tensor<float> dw_slice;   ///< dL/dw[:, I_C^(c), :, :]
  std::vector<float> pack;  ///< collective staging (slice-ordered blocks)
  // Inference (allgather-x) schedule only; allocated lazily on first use so
  // training-only models pay nothing.
  Tensor<float> x_full;     ///< allgathered full-C input incl. margins
  Tensor<float> w_fslice;   ///< w[I_F^(c), :, :, :] — (F_loc, C, K, K)
};

}  // namespace

void Layer::init_params(LayerRt&, Rng&) const {}
void Layer::init_scratch(Model&, int, LayerRt&) const {}

// ---------------------------------------------------------------------------
// Conv2dLayer
// ---------------------------------------------------------------------------

Shape4 Conv2dLayer::infer_shape(const std::vector<Shape4>& in) const {
  const auto p = conv_params();
  DC_REQUIRE(in[0].h + 2 * pad_ >= kernel_ && in[0].w + 2 * pad_ >= kernel_,
             "conv '", name(), "': input ", in[0].str(), " smaller than kernel");
  return Shape4{in[0].n, filters_, p.out_h(in[0].h), p.out_w(in[0].w)};
}

void Conv2dLayer::init_params(LayerRt& rt, Rng& rng) const {
  const std::int64_t c_in = rt.in_shapes[0].c;
  Tensor<float> w(Shape4{filters_, c_in, kernel_, kernel_});
  // He initialization for ReLU networks.
  const float stddev = std::sqrt(2.0f / float(c_in * kernel_ * kernel_));
  w.fill_normal(rng, 0.0f, stddev);
  rt.params.push_back(std::move(w));
  rt.grads.emplace_back(Shape4{filters_, c_in, kernel_, kernel_});
  if (bias_) {
    rt.params.emplace_back(Shape4{1, filters_, 1, 1});
    rt.grads.emplace_back(Shape4{1, filters_, 1, 1});
  }
}

void Conv2dLayer::init_scratch(Model& model, int index, LayerRt& rt) const {
  if (!model.is_channel_parallel(index)) return;
  auto scratch = std::make_unique<ConvChannelScratch>();
  const DistTensor<float>& xt = rt.inputs[0].read->t;
  const DistTensor<float>& yt = rt.y.t;
  const std::int64_t c_loc = xt.local_shape().c;
  scratch->w_slice = Tensor<float>(Shape4{filters_, c_loc, kernel_, kernel_});
  scratch->dw_slice = Tensor<float>(Shape4{filters_, c_loc, kernel_, kernel_});
  // Partial sums cover the owned output box with the *full* filter extent;
  // every channel-group member shares the same (n, h, w) coordinates, so
  // these shapes agree across the group.
  scratch->y_partial = Tensor<float>(Shape4{
      yt.local_shape().n, filters_, yt.local_shape().h, yt.local_shape().w});
  rt.scratch = std::move(scratch);
}

/// §III-D forward: y is a sum over all input channels, so each rank computes
/// the full-F partial sum over its channel slice and a reduce-scatter over
/// the channel group both completes the sum and leaves each rank exactly its
/// filter slice of y. With the progress engine active, the halo refresh
/// hides behind the interior partial (the §IV-A split also applies here —
/// only the *boundary* rows of the partial need margins) and the
/// reduce-scatter runs as an engine op whose per-block packing pipelines
/// with its ring rounds.
void Conv2dLayer::forward_channel(Model& model, int index, LayerRt& rt) const {
  ActTensor& xa = *rt.inputs[0].read;
  DistTensor<float>& xt = xa.t;
  DistTensor<float>& yt = rt.y.t;
  const auto p = conv_params();
  auto* scratch = dynamic_cast<ConvChannelScratch*>(rt.scratch.get());
  DC_CHECK(scratch != nullptr);
  auto& cgroup = model.channel_comm(index);
  const int pc = cgroup.size();

  // Repack the weight slice (parameters changed since the last step).
  const DimPartition& cpart = xt.dist().c;
  const std::int64_t c_loc = xt.local_shape().c;
  const Box4 wcols =
      channel_slice_box(cpart, xt.coord().c, filters_, kernel_, kernel_);
  pack_box(rt.params[0], wcols, scratch->w_slice.data());

  const Range2 out_owned = owned_range(yt.owned_box());
  const Origin2 ypo{yt.owned_start(2), yt.owned_start(3)};
  auto compute_partial = [&](const Range2& r) {
    if (c_loc > 0 && !r.empty()) {
      kernels::conv2d_forward(xt.buffer(), origin_of(xt), scratch->w_slice,
                              scratch->y_partial, ypo, p, r);
    }
  };
  if (c_loc == 0) scratch->y_partial.zero();  // empty slice contributes zeros

  if (xa.halo == nullptr || xa.fresh) {
    compute_partial(out_owned);
  } else if (model.options().overlap_halo && model.progress_active()) {
    const auto ticket = model.comm_engine().enqueue(
        std::make_unique<HaloRefreshOp<float>>(*xa.halo, HaloOp::kReplace,
                                               xt.comm()));
    const Range2 interior =
        interior_range(xt, p.kh, p.kw, p.sh, p.sw, p.ph, p.pw, out_owned);
    compute_partial(interior);
    model.comm_engine().drain_until(ticket);
    xa.fresh = true;
    for (const Range2& b : boundary_ranges(out_owned, interior)) {
      compute_partial(b);
    }
  } else {
    xa.ensure_fresh();
    compute_partial(out_owned);
  }

  // Reduce-scatter over the channel group: block q is member q's filter
  // slice of the partial (uneven when pc ∤ F, hence the v-variant).
  const DimPartition& fpart = yt.dist().c;
  const Shape4& ys = scratch->y_partial.shape();
  const SliceBlocks blocks = channel_slice_blocks(fpart, ys.n, ys.h, ys.w);
  scratch->pack.resize(blocks.total);
  if (model.progress_active()) {
    // Engine op with lazy packing: block q is packed one ring step before
    // its reduce, so the packing of later filter slices overlaps the rounds
    // already in flight (and a background driver keeps those moving).
    auto pack_block = [scratch, &fpart, ys, &blocks](int q) {
      if (blocks.counts[q] == 0) return;
      pack_box(scratch->y_partial, channel_slice_box(fpart, q, ys.n, ys.h, ys.w),
               scratch->pack.data() + blocks.displs[q]);
    };
    const auto ticket =
        model.comm_engine().enqueue(
            std::make_unique<comm::NbReduceScattervInplace<float>>(
                cgroup, scratch->pack.data(), blocks.counts,
                comm::ReduceOp::kSum, pack_block));
    model.comm_engine().drain_until(ticket);
  } else {
    for (int q = 0; q < pc; ++q) {
      if (blocks.counts[q] == 0) continue;
      pack_box(scratch->y_partial, channel_slice_box(fpart, q, ys.n, ys.h, ys.w),
               scratch->pack.data() + blocks.displs[q]);
    }
    comm::reduce_scatterv_inplace(cgroup, scratch->pack.data(), blocks.counts,
                                  comm::ReduceOp::kSum);
  }
  unpack_box(scratch->pack.data() + blocks.displs[cgroup.rank()],
             yt.interior_box(), yt.buffer());

  if (bias_) {
    kernels::bias_forward(yt.buffer(), yt.interior_box(),
                          rt.params[1].data() + yt.owned_start(1));
  }
}

/// Inference twin of forward_channel (§III-D's other decomposition): instead
/// of full-F partial sums completed by a reduce-scatter — whose cross-rank
/// float summation regroups the accumulation chain — allgather x over the
/// channel group and compute the owned filter slice against *all* input
/// channels. Same local FLOPs (F/pc filters × C channels vs. F filters ×
/// C/pc channels), one allgather of the input instead of one reduce-scatter
/// of the output, and every output element keeps the oracle's exact
/// ascending-channel accumulation chain — the property the serving
/// exactness tests pin down.
void Conv2dLayer::forward_channel_inference(Model& model, int index,
                                            LayerRt& rt) const {
  ActTensor& xa = *rt.inputs[0].read;
  DistTensor<float>& xt = xa.t;
  DistTensor<float>& yt = rt.y.t;
  const auto p = conv_params();
  auto* scratch = dynamic_cast<ConvChannelScratch*>(rt.scratch.get());
  DC_CHECK(scratch != nullptr);
  auto& cgroup = model.channel_comm(index);
  const int pc = cgroup.size();

  // Every channel-group member shares the same (n, h, w) coordinates and
  // margin frame, so the gathered buffers tile a dense full-C copy of the
  // local input block (margins included — the stencil reads them).
  xa.ensure_fresh();
  const Shape4& xb = xt.buffer().shape();
  const DimPartition& cpart = xt.dist().c;
  const std::int64_t C = cpart.global();
  if (scratch->x_full.size() == 0) {
    scratch->x_full = Tensor<float>(Shape4{xb.n, C, xb.h, xb.w});
  }
  const SliceBlocks blocks = channel_slice_blocks(cpart, xb.n, xb.h, xb.w);
  scratch->pack.resize(blocks.total);
  comm::allgatherv(cgroup, xt.buffer().data(),
                   static_cast<std::size_t>(xt.buffer().size()),
                   scratch->pack.data(), blocks.counts, blocks.displs);
  for (int q = 0; q < pc; ++q) {
    if (blocks.counts[q] == 0) continue;
    unpack_box(scratch->pack.data() + blocks.displs[q],
               channel_slice_box(cpart, q, xb.n, xb.h, xb.w), scratch->x_full);
  }

  // Owned filter rows of the replicated weights are contiguous: copy the
  // slice and run the ordinary region kernel straight into y's buffer.
  const std::int64_t f0 = yt.owned_start(1);
  const std::int64_t f_loc = yt.local_shape().c;
  if (f_loc > 0) {
    if (scratch->w_fslice.shape().n != f_loc) {
      scratch->w_fslice = Tensor<float>(Shape4{f_loc, C, kernel_, kernel_});
    }
    const std::int64_t per_filter = C * kernel_ * kernel_;
    const float* w0 = rt.params[0].data() + f0 * per_filter;
    std::copy(w0, w0 + f_loc * per_filter, scratch->w_fslice.data());
    kernels::conv2d_forward(scratch->x_full, origin_of(xt), scratch->w_fslice,
                            yt.buffer(), origin_of(yt), p,
                            owned_range(yt.owned_box()));
    if (bias_) {
      kernels::bias_forward(yt.buffer(), yt.interior_box(),
                            rt.params[1].data() + f0);
    }
  }
}

/// §III-D backward: one allgather of dL/dy over the filter slices gives every
/// group member the full-F error signal, after which both backward kernels
/// are *exact* local computations — dL/dw for all filters × the owned channel
/// columns, dL/dx for the owned channels against the forward weight slice.
/// When dL/dx is dead only the filter and bias kernels run.
void Conv2dLayer::backward_channel(Model& model, int index, LayerRt& rt) const {
  auto& port = rt.inputs[0];
  const bool dx_live = model.spec().dx_live(index, 0);
  DistTensor<float>& xt = port.read->t;
  DistTensor<float>& dyt = rt.dy.t;
  const auto p = conv_params();
  auto* scratch = dynamic_cast<ConvChannelScratch*>(rt.scratch.get());
  DC_CHECK(scratch != nullptr);
  DC_REQUIRE(port.read->fresh || port.read->halo == nullptr,
             "conv '", name(), "': input halos were invalidated before backward");
  auto& cgroup = model.channel_comm(index);
  const int pc = cgroup.size();

  // Refresh dL/dy margins first (backward-data reads them; with a dead
  // dL/dx dy has none): every group member shares the same spatial margin
  // frame, so the gathered buffers stay coherent.
  rt.dy.ensure_fresh();

  const DimPartition& fpart = dyt.dist().c;
  const Shape4& db = dyt.buffer().shape();
  if (scratch->dy_full.size() == 0) {
    scratch->dy_full = Tensor<float>(Shape4{db.n, filters_, db.h, db.w});
  }
  const SliceBlocks blocks = channel_slice_blocks(fpart, db.n, db.h, db.w);
  scratch->pack.resize(blocks.total);
  comm::allgatherv(cgroup, dyt.buffer().data(),
                   static_cast<std::size_t>(dyt.buffer().size()),
                   scratch->pack.data(), blocks.counts, blocks.displs);
  for (int q = 0; q < pc; ++q) {
    if (blocks.counts[q] == 0) continue;
    unpack_box(scratch->pack.data() + blocks.displs[q],
               channel_slice_box(fpart, q, db.n, db.h, db.w),
               scratch->dy_full);
  }

  const Origin2 xo = origin_of(xt), dyo = origin_of(dyt);
  const Range2 out_owned = owned_range(dyt.owned_box());
  const std::int64_t c_loc = xt.local_shape().c;

  if (c_loc > 0) {
    kernels::conv2d_backward_filter(xt.buffer(), xo, scratch->dy_full, dyo,
                                    scratch->dw_slice, p, out_owned,
                                    /*accumulate=*/false);
    // Owned channel columns of the replicated gradient buffer; the engine's
    // slice allreduce + allgather completes them (micro-batches accumulate
    // here in between).
    unpack_box_accumulate(scratch->dw_slice.data(),
                          channel_slice_box(xt.dist().c, xt.coord().c, filters_,
                                            kernel_, kernel_),
                          rt.grads[0]);
  }
  if (bias_) {
    kernels::bias_backward(dyt.buffer(), dyt.interior_box(),
                           rt.grads[1].data() + dyt.owned_start(1),
                           /*accumulate=*/true);
  }

  if (!dx_live) return;
  const Range2 in_owned = owned_range(port.dx.owned_box());
  if (c_loc > 0) {
    kernels::conv2d_backward_data(scratch->dy_full, dyo, scratch->w_slice,
                                  port.dx.buffer(), origin_of(port.dx), p,
                                  in_owned, rt.out_shape.h, rt.out_shape.w);
  }
}

void Conv2dLayer::forward(Model& model, int index, LayerRt& rt) const {
  if (model.is_channel_parallel(index)) {
    if (model.mode() == Mode::kInference) {
      forward_channel_inference(model, index, rt);
    } else {
      forward_channel(model, index, rt);
    }
    return;
  }
  ActTensor& xa = *rt.inputs[0].read;
  DistTensor<float>& xt = xa.t;
  DistTensor<float>& yt = rt.y.t;
  const auto p = conv_params();
  const Tensor<float>& w = rt.params[0];
  const Range2 out_owned = owned_range(yt.owned_box());
  const Origin2 xo = origin_of(xt), yo = origin_of(yt);

  auto compute = [&](const Range2& r) {
    kernels::conv2d_forward(xt.buffer(), xo, w, yt.buffer(), yo, p, r);
  };

  if (xa.halo == nullptr || xa.fresh) {
    compute(out_owned);
  } else if (model.options().overlap_halo) {
    const Range2 interior =
        interior_range(xt, p.kh, p.kw, p.sh, p.sw, p.ph, p.pw, out_owned);
    if (model.progress_active()) {
      // Engine-driven refresh: a background driver can test the transfers
      // and unpack the margins while the interior kernel runs, so even the
      // unpack leaves the critical path; drain_until is then just a fence.
      const auto ticket = model.comm_engine().enqueue(
          std::make_unique<HaloRefreshOp<float>>(*xa.halo, HaloOp::kReplace,
                                                 xt.comm()));
      compute(interior);
      model.comm_engine().drain_until(ticket);
    } else {
      xa.halo->start();
      compute(interior);
      xa.halo->finish();
    }
    xa.fresh = true;
    for (const Range2& b : boundary_ranges(out_owned, interior)) compute(b);
  } else {
    xa.ensure_fresh();
    compute(out_owned);
  }
  if (bias_) {
    kernels::bias_forward(yt.buffer(), yt.interior_box(), rt.params[1].data());
  }
}

void Conv2dLayer::backward(Model& model, int index, LayerRt& rt) const {
  if (model.is_channel_parallel(index)) {
    backward_channel(model, index, rt);
    return;
  }
  auto& port = rt.inputs[0];
  DistTensor<float>& xt = port.read->t;  // forward halos still valid
  DistTensor<float>& dyt = rt.dy.t;
  const auto p = conv_params();
  const Tensor<float>& w = rt.params[0];
  const Range2 out_owned = owned_range(dyt.owned_box());
  const Origin2 xo = origin_of(xt), dyo = origin_of(dyt);
  DC_REQUIRE(port.read->fresh || port.read->halo == nullptr,
             "conv '", name(), "': input halos were invalidated before backward");
  const bool dx_live = model.spec().dx_live(index, 0);

  // Backward-data needs dL/dy halos; the exchange is hidden behind the
  // filter-gradient kernel, which only reads the owned interior (§IV-A:
  // "exploit the task-level parallelism of backward data and filter
  // convolutions"). With the progress engine, the exchange rides the wire
  // channel behind whatever gradient ops later layers already enqueued, and
  // a background driver can retire it (margin unpack included) mid-kernel.
  // A dead dL/dx leaves dy without margins, hence without an exchange, and
  // skips backward-data.
  const bool exchange = rt.dy.halo != nullptr && !rt.dy.fresh;
  const bool overlap = exchange && model.options().overlap_halo;
  const bool engine = overlap && model.progress_active();
  std::uint64_t halo_ticket = 0;
  if (engine) {
    halo_ticket = model.comm_engine().enqueue(
        std::make_unique<HaloRefreshOp<float>>(*rt.dy.halo, HaloOp::kReplace,
                                               dyt.comm()));
  } else if (overlap) {
    rt.dy.halo->start();
  }
  if (exchange && !overlap) rt.dy.ensure_fresh();

  kernels::conv2d_backward_filter(xt.buffer(), xo, dyt.buffer(), dyo, rt.grads[0],
                                  p, out_owned, /*accumulate=*/true);
  if (bias_) {
    kernels::bias_backward(dyt.buffer(), dyt.interior_box(), rt.grads[1].data(),
                           /*accumulate=*/true);
  }

  if (engine) {
    model.comm_engine().drain_until(halo_ticket);
    rt.dy.fresh = true;
  } else if (overlap) {
    rt.dy.halo->finish();
    rt.dy.fresh = true;
  }

  if (!dx_live) return;
  const Range2 in_owned = owned_range(port.dx.owned_box());
  kernels::conv2d_backward_data(dyt.buffer(), dyo, w, port.dx.buffer(),
                                origin_of(port.dx), p, in_owned,
                                rt.out_shape.h, rt.out_shape.w);
}

// ---------------------------------------------------------------------------
// Pool2dLayer
// ---------------------------------------------------------------------------

Shape4 Pool2dLayer::infer_shape(const std::vector<Shape4>& in) const {
  const auto p = pool_params();
  return Shape4{in[0].n, in[0].c, p.out_h(in[0].h), p.out_w(in[0].w)};
}

void Pool2dLayer::init_scratch(Model& model, int index, LayerRt& rt) const {
  // argmax is read only by backward, which runs only where dy is needed.
  if (mode_ != kernels::PoolMode::kMax || !model.spec().needs_dy(index)) return;
  rt.scratch = std::make_unique<PoolScratch>();
}

void Pool2dLayer::forward(Model& model, int, LayerRt& rt) const {
  ActTensor& xa = *rt.inputs[0].read;
  DistTensor<float>& xt = xa.t;
  DistTensor<float>& yt = rt.y.t;
  const auto p = pool_params();
  const Range2 out_owned = owned_range(yt.owned_box());
  const Origin2 xo = origin_of(xt), yo = origin_of(yt);
  const std::int64_t in_h = rt.in_shapes[0].h, in_w = rt.in_shapes[0].w;

  // Training forwards record argmax for backward; dy exists by then.
  auto* scratch = dynamic_cast<PoolScratch*>(rt.scratch.get());
  Tensor<std::int64_t>* am = nullptr;
  Origin2 amo{0, 0};
  if (scratch != nullptr && model.mode() == Mode::kTraining) {
    if (scratch->argmax == nullptr) {
      // argmax mirrors dL/dy: same distribution and transpose-stencil
      // margins so it can be halo-exchanged alongside the error signal.
      scratch->argmax = std::make_unique<DistTensor<std::int64_t>>(
          &model.comm(), rt.dy.t.dist(), rt.dy.t.margins_h(),
          rt.dy.t.margins_w());
      if (!rt.dy.t.margins_h().all_zero() || !rt.dy.t.margins_w().all_zero()) {
        scratch->argmax_halo =
            std::make_unique<HaloExchange<std::int64_t>>(scratch->argmax.get());
      }
    }
    am = &scratch->argmax->buffer();
    amo = origin_of_t(*scratch->argmax);
    scratch->argmax_fresh = false;
  }
  auto compute = [&](const Range2& r) {
    kernels::pool2d_forward(xt.buffer(), xo, yt.buffer(), yo, am, amo, p, r, in_h,
                            in_w);
  };

  if (xa.halo == nullptr || xa.fresh) {
    compute(out_owned);
  } else if (model.options().overlap_halo) {
    xa.halo->start();
    const Range2 interior =
        interior_range(xt, p.kh, p.kw, p.sh, p.sw, p.ph, p.pw, out_owned);
    compute(interior);
    xa.halo->finish();
    xa.fresh = true;
    for (const Range2& b : boundary_ranges(out_owned, interior)) compute(b);
  } else {
    xa.ensure_fresh();
    compute(out_owned);
  }
}

void Pool2dLayer::backward(Model& model, int, LayerRt& rt) const {
  (void)model;
  auto& port = rt.inputs[0];
  DistTensor<float>& dyt = rt.dy.t;
  const auto p = pool_params();
  auto* scratch = dynamic_cast<PoolScratch*>(rt.scratch.get());

  // Refresh dy (and argmax) margins; the two exchanges run concurrently.
  const bool want_dy = rt.dy.halo != nullptr && !rt.dy.fresh;
  const bool want_am = scratch != nullptr && scratch->argmax_halo != nullptr &&
                       !scratch->argmax_fresh;
  if (want_dy) rt.dy.halo->start();
  if (want_am) scratch->argmax_halo->start();
  if (want_dy) {
    rt.dy.halo->finish();
    rt.dy.fresh = true;
  }
  if (want_am) {
    scratch->argmax_halo->finish();
    scratch->argmax_fresh = true;
  }

  const Range2 in_owned = owned_range(port.dx.owned_box());
  const Tensor<std::int64_t>* am =
      scratch != nullptr ? &scratch->argmax->buffer() : nullptr;
  // argmax shares dy's distribution/margins, hence dy's origin.
  kernels::pool2d_backward(dyt.buffer(), origin_of(dyt), am, port.dx.buffer(),
                           origin_of(port.dx), p, in_owned, rt.out_shape.h,
                           rt.out_shape.w, rt.in_shapes[0].w);
}

// ---------------------------------------------------------------------------
// BatchNormLayer
// ---------------------------------------------------------------------------

void BatchNormLayer::init_params(LayerRt& rt, Rng&) const {
  const std::int64_t C = rt.in_shapes[0].c;
  Tensor<float> gamma(Shape4{1, C, 1, 1});
  gamma.fill(1.0f);
  rt.params.push_back(std::move(gamma));
  rt.params.emplace_back(Shape4{1, C, 1, 1});  // beta = 0
  rt.grads.emplace_back(Shape4{1, C, 1, 1});
  rt.grads.emplace_back(Shape4{1, C, 1, 1});
  init_buffers(rt);
}

void BatchNormLayer::init_buffers(LayerRt& rt) const {
  const std::int64_t C = rt.in_shapes[0].c;
  rt.buffers.clear();
  rt.buffers.emplace_back(Shape4{1, C, 1, 1});  // running mean = 0
  Tensor<float> var(Shape4{1, C, 1, 1});
  var.fill(1.0f);  // running variance = 1 (identity transform until tracked)
  rt.buffers.push_back(std::move(var));
  rt.buffers.emplace_back(Shape4{1, 1, 1, 1});  // update counter = 0
}

void BatchNormLayer::init_scratch(Model&, int, LayerRt& rt) const {
  rt.scratch = std::make_unique<BnScratch>();
}

namespace {

/// Aggregate per-channel statistics according to the BN mode. `vals` holds
/// 2·c_loc doubles for the *owned* channel slice plus the local element
/// count in the final slot; on return it holds the aggregated values.
///
/// kSpatial groups share their channel slice (the spatial communicator is
/// colored by (n, c)), so the local-slice vector reduces directly. kGlobal
/// must align slices across channel-partitioned ranks: the local sums embed
/// into a global-C vector at the slice offset, reduce over everyone, and the
/// owned slice is extracted back. The summed count then counts each (n, h, w)
/// site once per channel-grid coordinate, so it is divided by grid.c.
///
/// When `global_out` is non-null it additionally receives the full-C
/// globally summed vector [Σx(0..C), Σx²(0..C), raw count] — the source of
/// the running-statistics EMA, aggregated over the whole communicator
/// whatever the mode (kGlobal shares this allreduce; other modes pay one
/// extra). The raw count in global_out[2C] counts each (n, h, w) site once
/// per channel-grid coordinate, so consumers divide by grid_c.
void bn_aggregate(Model& model, int index, BatchNormMode mode,
                  std::vector<double>& vals, std::int64_t c_loc,
                  std::int64_t c_start, std::int64_t c_glob, int grid_c,
                  std::vector<double>* global_out = nullptr) {
  std::vector<double> global;
  if (global_out != nullptr || mode == BatchNormMode::kGlobal) {
    // With a channel-trivial grid the embedding is the identity (c_loc ==
    // c_glob, c_start == 0), so this is bitwise the direct allreduce of
    // `vals` that the kGlobal path historically ran.
    global.assign(2 * c_glob + 1, 0.0);
    for (std::int64_t c = 0; c < c_loc; ++c) {
      global[c_start + c] = vals[c];
      global[c_glob + c_start + c] = vals[c_loc + c];
    }
    global[2 * c_glob] = vals[2 * c_loc];
    comm::allreduce(model.comm(), global.data(), global.size(),
                    comm::ReduceOp::kSum);
  }
  switch (mode) {
    case BatchNormMode::kLocal:
      break;
    case BatchNormMode::kSpatial:
      comm::allreduce(model.spatial_comm(index), vals.data(), vals.size(),
                      comm::ReduceOp::kSum);
      break;
    case BatchNormMode::kGlobal:
      for (std::int64_t c = 0; c < c_loc; ++c) {
        vals[c] = global[c_start + c];
        vals[c_loc + c] = global[c_glob + c_start + c];
      }
      vals[2 * c_loc] = global[2 * c_glob] / grid_c;
      break;
  }
  if (global_out != nullptr) *global_out = std::move(global);
}

}  // namespace

void BatchNormLayer::forward(Model& model, int index, LayerRt& rt) const {
  DistTensor<float>& xt = rt.inputs[0].read->t;
  DistTensor<float>& yt = rt.y.t;
  // All statistics are kept per *owned* channel (the slice [c0, c0 + c_loc)
  // of the global C channels); with grid.c == 1 that is simply every channel.
  const std::int64_t C = rt.in_shapes[0].c;
  const std::int64_t c_loc = xt.local_shape().c;
  const std::int64_t c0 = xt.owned_start(1);
  const Box4 xib = xt.interior_box();
  const Box4 yib = yt.interior_box();
  auto* scratch = dynamic_cast<BnScratch*>(rt.scratch.get());

  if (model.mode() == Mode::kInference) {
    if (has_running_stats(rt)) {
      // Normalize with the tracked running statistics: a pure per-sample
      // affine transform (no reductions, no communication), bitwise
      // identical to the single-rank oracle given identical buffers.
      scratch->mean.assign(c_loc, 0.0f);
      scratch->invstd.assign(c_loc, 0.0f);
      const float* rm = rt.buffers[0].data();
      const float* rv = rt.buffers[1].data();
      for (std::int64_t c = 0; c < c_loc; ++c) {
        scratch->mean[c] = rm[c0 + c];
        scratch->invstd[c] = static_cast<float>(
            1.0 / std::sqrt(double(rv[c0 + c]) + model.options().bn_epsilon));
      }
      kernels::bn_forward_apply(xt.buffer(), xib, yt.buffer(), yib,
                                scratch->mean.data(), scratch->invstd.data(),
                                rt.params[0].data() + c0,
                                rt.params[1].data() + c0);
      return;
    }
    // Documented v1-checkpoint fallback: no running statistics were ever
    // tracked, so inference normalizes with this batch's statistics.
    if (!scratch->warned_stat_fallback) {
      scratch->warned_stat_fallback = true;
      if (model.comm().rank() == 0) {
        log::warn("batchnorm '", name(), "': no running statistics tracked "
                  "(fresh model or v1 checkpoint); inference falls back to "
                  "batch statistics");
      }
    }
  }

  std::vector<double> vals(2 * c_loc + 1, 0.0);
  kernels::bn_partial_sums(xt.buffer(), xib, vals.data(), vals.data() + c_loc);
  vals[2 * c_loc] =
      double(xib.ext[0]) * xib.ext[2] * xib.ext[3];  // per-channel count

  // Running statistics are always the EMA of the *globally* aggregated
  // mini-batch statistics — every channel on every rank, so the replicated
  // buffers stay bitwise identical whatever the grid; mode_ only selects
  // which statistics normalize the training forward.
  const bool track = model.mode() == Mode::kTraining &&
                     model.options().bn_track_running_stats;
  std::vector<double> global;
  bn_aggregate(model, index, mode_, vals, c_loc, c0, C, rt.grid.c,
               track ? &global : nullptr);

  if (track) {
    const double count = global[2 * C] / rt.grid.c;
    if (count > 0) {
      const float mom = model.options().bn_momentum;
      float* rm = rt.buffers[0].data();
      float* rv = rt.buffers[1].data();
      for (std::int64_t c = 0; c < C; ++c) {
        const double m = global[c] / count;
        const double var = std::max(0.0, global[C + c] / count - m * m);
        rm[c] = mom * rm[c] + (1.0f - mom) * static_cast<float>(m);
        rv[c] = mom * rv[c] + (1.0f - mom) * static_cast<float>(var);
      }
      rt.buffers[2].data()[0] += 1.0f;
    }
  }

  scratch->mean.assign(c_loc, 0.0f);
  scratch->invstd.assign(c_loc, 0.0f);
  const double count = vals[2 * c_loc];
  if (count > 0) {
    for (std::int64_t c = 0; c < c_loc; ++c) {
      const double m = vals[c] / count;
      const double var = std::max(0.0, vals[c_loc + c] / count - m * m);
      scratch->mean[c] = static_cast<float>(m);
      scratch->invstd[c] =
          static_cast<float>(1.0 / std::sqrt(var + model.options().bn_epsilon));
    }
  }
  kernels::bn_forward_apply(xt.buffer(), xib, yt.buffer(), yib,
                            scratch->mean.data(), scratch->invstd.data(),
                            rt.params[0].data() + c0, rt.params[1].data() + c0);
}

void BatchNormLayer::backward(Model& model, int index, LayerRt& rt) const {
  auto& port = rt.inputs[0];
  DistTensor<float>& xt = port.read->t;
  DistTensor<float>& dyt = rt.dy.t;
  const std::int64_t C = rt.in_shapes[0].c;
  const std::int64_t c_loc = xt.local_shape().c;
  const std::int64_t c0 = xt.owned_start(1);
  const Box4 xib = xt.interior_box();
  const Box4 dyib = dyt.interior_box();
  auto* scratch = dynamic_cast<BnScratch*>(rt.scratch.get());

  std::vector<double> vals(2 * c_loc + 1, 0.0);
  kernels::bn_backward_reduce(xt.buffer(), xib, dyt.buffer(), dyib,
                              scratch->mean.data(), scratch->invstd.data(),
                              vals.data(), vals.data() + c_loc);
  // Local sums feed the parameter gradients of the owned channel rows (the
  // cross-rank sum happens in the engine's gradient allreduce — ranks not
  // owning a channel contribute zeros there; accumulation supports
  // micro-batching).
  for (std::int64_t c = 0; c < c_loc; ++c) {
    rt.grads[0].data()[c0 + c] += static_cast<float>(vals[c_loc + c]);  // dgamma
    rt.grads[1].data()[c0 + c] += static_cast<float>(vals[c]);          // dbeta
  }

  if (!model.spec().dx_live(index, 0)) return;
  vals[2 * c_loc] = double(xib.ext[0]) * xib.ext[2] * xib.ext[3];
  bn_aggregate(model, index, mode_, vals, c_loc, c0, C, rt.grid.c);
  const double count = vals[2 * c_loc];
  if (count > 0) {
    kernels::bn_backward_apply(xt.buffer(), xib, dyt.buffer(), dyib,
                               port.dx.buffer(), port.dx.interior_box(),
                               scratch->mean.data(), scratch->invstd.data(),
                               rt.params[0].data() + c0, vals.data(),
                               vals.data() + c_loc, count);
  }
}

// ---------------------------------------------------------------------------
// ReluLayer / AddLayer
// ---------------------------------------------------------------------------

void ReluLayer::forward(Model&, int, LayerRt& rt) const {
  DistTensor<float>& xt = rt.inputs[0].read->t;
  DistTensor<float>& yt = rt.y.t;
  kernels::relu_forward(xt.buffer(), xt.interior_box(), yt.buffer(),
                        yt.interior_box());
}

void ReluLayer::backward(Model&, int, LayerRt& rt) const {
  auto& port = rt.inputs[0];
  DistTensor<float>& xt = port.read->t;
  DistTensor<float>& dyt = rt.dy.t;
  kernels::relu_backward(xt.buffer(), xt.interior_box(), dyt.buffer(),
                         dyt.interior_box(), port.dx.buffer(),
                         port.dx.interior_box());
}

Shape4 AddLayer::infer_shape(const std::vector<Shape4>& in) const {
  DC_REQUIRE(in[0] == in[1], "add '", name(), "': parent shapes differ: ",
             in[0].str(), " vs ", in[1].str());
  return in[0];
}

void AddLayer::forward(Model&, int, LayerRt& rt) const {
  DistTensor<float>& a = rt.inputs[0].read->t;
  DistTensor<float>& b = rt.inputs[1].read->t;
  DistTensor<float>& yt = rt.y.t;
  kernels::copy_region(a.buffer(), a.interior_box(), yt.buffer(),
                       yt.interior_box());
  kernels::add_inplace(yt.buffer(), yt.interior_box(), b.buffer(),
                       b.interior_box());
}

void AddLayer::backward(Model& model, int index, LayerRt& rt) const {
  DistTensor<float>& dyt = rt.dy.t;
  for (std::size_t k = 0; k < rt.inputs.size(); ++k) {
    if (!model.spec().dx_live(index, static_cast<int>(k))) continue;
    auto& port = rt.inputs[k];
    kernels::copy_region(dyt.buffer(), dyt.interior_box(), port.dx.buffer(),
                         port.dx.interior_box());
  }
}

// ---------------------------------------------------------------------------
// GlobalAvgPoolLayer
// ---------------------------------------------------------------------------

void GlobalAvgPoolLayer::forward(Model& model, int index, LayerRt& rt) const {
  DistTensor<float>& xt = rt.inputs[0].read->t;
  DistTensor<float>& yt = rt.y.t;
  const Box4 ib = xt.interior_box();
  const std::int64_t n_loc = ib.ext[0], C = ib.ext[1];
  std::vector<double> sums(static_cast<std::size_t>(n_loc) * C, 0.0);
  for (std::int64_t n = 0; n < n_loc; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      double s = 0;
      for (std::int64_t h = 0; h < ib.ext[2]; ++h) {
        for (std::int64_t w = 0; w < ib.ext[3]; ++w) {
          s += xt.buffer()(n, c, ib.off[2] + h, ib.off[3] + w);
        }
      }
      sums[n * C + c] = s;
    }
  }
  comm::allreduce(model.spatial_comm(index), sums.data(), sums.size(),
                  comm::ReduceOp::kSum);
  const double scale = 1.0 / (double(rt.in_shapes[0].h) * rt.in_shapes[0].w);
  if (yt.local_shape().h > 0 && yt.local_shape().w > 0) {
    for (std::int64_t n = 0; n < n_loc; ++n) {
      for (std::int64_t c = 0; c < C; ++c) {
        yt.at_owned(n, c, 0, 0) = static_cast<float>(sums[n * C + c] * scale);
      }
    }
  }
}

void GlobalAvgPoolLayer::backward(Model& model, int index, LayerRt& rt) const {
  auto& port = rt.inputs[0];
  DistTensor<float>& dyt = rt.dy.t;
  const Box4 ib = port.dx.interior_box();
  const std::int64_t n_loc = ib.ext[0], C = ib.ext[1];
  std::vector<double> vals(static_cast<std::size_t>(n_loc) * C, 0.0);
  if (dyt.local_shape().h > 0 && dyt.local_shape().w > 0) {
    for (std::int64_t n = 0; n < n_loc; ++n) {
      for (std::int64_t c = 0; c < C; ++c) {
        vals[n * C + c] = dyt.at_owned(n, c, 0, 0);
      }
    }
  }
  comm::allreduce(model.spatial_comm(index), vals.data(), vals.size(),
                  comm::ReduceOp::kSum);
  const double scale = 1.0 / (double(rt.in_shapes[0].h) * rt.in_shapes[0].w);
  for (std::int64_t n = 0; n < n_loc; ++n) {
    for (std::int64_t c = 0; c < C; ++c) {
      const float g = static_cast<float>(vals[n * C + c] * scale);
      for (std::int64_t h = 0; h < ib.ext[2]; ++h) {
        for (std::int64_t w = 0; w < ib.ext[3]; ++w) {
          port.dx.buffer()(n, c, ib.off[2] + h, ib.off[3] + w) = g;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FullyConnectedLayer
// ---------------------------------------------------------------------------

void FullyConnectedLayer::init_params(LayerRt& rt, Rng& rng) const {
  const std::int64_t D =
      rt.in_shapes[0].c * rt.in_shapes[0].h * rt.in_shapes[0].w;
  Tensor<float> w(Shape4{out_, D, 1, 1});
  const float stddev = std::sqrt(2.0f / float(D));
  w.fill_normal(rng, 0.0f, stddev);
  rt.params.push_back(std::move(w));
  rt.grads.emplace_back(Shape4{out_, D, 1, 1});
  if (bias_) {
    rt.params.emplace_back(Shape4{1, out_, 1, 1});
    rt.grads.emplace_back(Shape4{1, out_, 1, 1});
  }
}

void FullyConnectedLayer::forward(Model& model, int, LayerRt& rt) const {
  (void)model;
  DC_REQUIRE(rt.grid.h == 1 && rt.grid.w == 1 && rt.grid.c == 1,
             "FC layer '", name(), "' requires a spatially- and channel-trivial "
             "grid; use a sample-parallel strategy entry (the engine shuffles "
             "inputs automatically)");
  DistTensor<float>& xt = rt.inputs[0].read->t;
  DistTensor<float>& yt = rt.y.t;
  const std::int64_t n_loc = xt.local_shape().n;
  const std::int64_t D =
      rt.in_shapes[0].c * rt.in_shapes[0].h * rt.in_shapes[0].w;
  if (rt.scratch == nullptr) rt.scratch = std::make_unique<FcScratch>();
  auto* scratch = dynamic_cast<FcScratch*>(rt.scratch.get());
  scratch->x_flat.resize(static_cast<std::size_t>(n_loc) * D);
  scratch->y_flat.assign(static_cast<std::size_t>(n_loc) * out_, 0.0f);
  pack_box(xt.buffer(), xt.interior_box(), scratch->x_flat.data());
  // y (n_loc × F) = x (n_loc × D) · Wᵀ (D × F)
  kernels::sgemm(false, true, n_loc, out_, D, 1.0f, scratch->x_flat.data(), D,
                 rt.params[0].data(), D, 0.0f, scratch->y_flat.data(), out_);
  if (bias_) {
    for (std::int64_t n = 0; n < n_loc; ++n) {
      for (int f = 0; f < out_; ++f) {
        scratch->y_flat[n * out_ + f] += rt.params[1].data()[f];
      }
    }
  }
  unpack_box(scratch->y_flat.data(), yt.interior_box(), yt.buffer());
}

void FullyConnectedLayer::backward(Model& model, int index,
                                   LayerRt& rt) const {
  auto& port = rt.inputs[0];
  DistTensor<float>& dyt = rt.dy.t;
  const std::int64_t n_loc = dyt.local_shape().n;
  const std::int64_t D =
      rt.in_shapes[0].c * rt.in_shapes[0].h * rt.in_shapes[0].w;
  auto* scratch = dynamic_cast<FcScratch*>(rt.scratch.get());
  DC_REQUIRE(scratch != nullptr, "FC backward before forward");
  scratch->dy_flat.resize(static_cast<std::size_t>(n_loc) * out_);
  pack_box(dyt.buffer(), dyt.interior_box(), scratch->dy_flat.data());
  // dW (F × D) += dyᵀ (F × n_loc) · x (n_loc × D)
  kernels::sgemm(true, false, out_, D, n_loc, 1.0f, scratch->dy_flat.data(), out_,
                 scratch->x_flat.data(), D, 1.0f, rt.grads[0].data(), D);
  if (bias_) {
    for (std::int64_t n = 0; n < n_loc; ++n) {
      for (int f = 0; f < out_; ++f) {
        rt.grads[1].data()[f] += scratch->dy_flat[n * out_ + f];
      }
    }
  }
  if (!model.spec().dx_live(index, 0)) return;
  // dx (n_loc × D) = dy (n_loc × F) · W (F × D)
  scratch->dx_flat.assign(static_cast<std::size_t>(n_loc) * D, 0.0f);
  kernels::sgemm(false, false, n_loc, D, out_, 1.0f, scratch->dy_flat.data(), out_,
                 rt.params[0].data(), D, 0.0f, scratch->dx_flat.data(), D);
  unpack_box(scratch->dx_flat.data(), port.dx.interior_box(), port.dx.buffer());
}

}  // namespace distconv::core
