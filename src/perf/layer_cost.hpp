// Per-layer cost model — the FP_ℓ, BP_ℓ^x, BP_ℓ^w, BP_ℓ^a decomposition of
// §V-A, including halo-exchange terms with intra-/inter-node link selection
// and the overlap adjustments of §IV-A.
#pragma once

#include <cstdint>

#include "perf/comm_model.hpp"
#include "perf/compute_model.hpp"
#include "tensor/partition.hpp"

namespace distconv::perf {

/// Global geometry of one convolutional layer.
struct ConvLayerDesc {
  std::int64_t n = 1, c = 1, h = 1, w = 1;  ///< input tensor
  std::int64_t f = 1;                       ///< filters
  int k = 1, s = 1, p = 0;                  ///< square kernel/stride/pad
  /// dL/dx is read upstream (core::NetworkSpec::dx_live). When false the
  /// backward runs only the filter (and bias) kernels: no backward-data
  /// compute and no dL/dy halo exchange.
  bool dx_live = true;

  std::int64_t out_h() const { return (h + 2 * p - k) / s + 1; }
  std::int64_t out_w() const { return (w + 2 * p - k) / s + 1; }
};

struct LayerCost {
  double fp_compute = 0;   ///< C(I_N, I_C, I_H, I_W, I_F)
  double fp_halo = 0;      ///< 2SR(edge) + 2SR(edge) + 4SR(corner)
  double bpx_compute = 0;  ///< C_x(...); 0 when dL/dx is dead
  /// dL/dy halo exchange (plus the channel-parallel dL/dy allgather, which
  /// backward-filter also reads); no halo when dL/dx is dead
  double bpx_halo = 0;
  double bpw_compute = 0;  ///< C_w(...)
  double allreduce = 0;    ///< BP_ℓ^a = AR(P, I_F·I_C·K²)
  double boundary_overhead = 0;  ///< extra kernel launches for §IV-A splitting

  /// Forward time; overlapped → halo hidden behind interior compute.
  double fp(bool overlap) const {
    if (overlap) {
      return (fp_halo > 0 ? std::max(fp_compute, fp_halo) + boundary_overhead
                          : fp_compute);
    }
    return fp_compute + fp_halo;
  }

  /// Backward time excluding the gradient allreduce (handled at network
  /// level); overlapped → the dL/dy halo hides behind the filter kernel.
  double bp(bool overlap) const {
    if (overlap) {
      return std::max(bpw_compute, bpx_halo) + bpx_compute;
    }
    return bpw_compute + bpx_halo + bpx_compute;
  }

  /// CostD(ℓ) = FP + BPx + BPw + BPa (no cross-layer overlap adjustments).
  double total(bool overlap) const { return fp(overlap) + bp(overlap) + allreduce; }
};

/// How a channel-parallel (pc > 1) conv completes its forward sum — both
/// schedules exist in the engine and move the same asymptotic volume, but
/// with different constants depending on x : y size ratio:
///   kReduceScatterY — full-F partial sums over the local C/pc channels,
///     completed by a reduce-scatter of y over the channel group (the
///     training path, core/layers.cpp forward_channel).
///   kAllgatherX — allgather x over the channel group first, then compute
///     the owned F/pc filter slice against the full C locally — no partial
///     sums, so eval-mode accumulation chains match the single-rank oracle
///     bitwise (the serving path, forward_channel_inference).
enum class ChannelFwdSchedule { kReduceScatterY, kAllgatherX };

/// Cost of one conv layer under a process-grid distribution. `total_ranks`
/// is the allreduce span (all ranks; weights are replicated). `fwd` selects
/// the channel-parallel forward schedule (ignored when grid.c == 1).
LayerCost conv_layer_cost(const ConvLayerDesc& desc, const ProcessGrid& grid,
                          const CommModel& comm, const ComputeModel& compute,
                          int total_ranks,
                          ChannelFwdSchedule fwd =
                              ChannelFwdSchedule::kReduceScatterY);

/// Halo-exchange time alone (both directions + corners) for the given tensor
/// block; exposed for the microbenchmark harnesses.
double halo_exchange_time(const ConvLayerDesc& desc, const ProcessGrid& grid,
                          const CommModel& comm, bool on_error_signal);

}  // namespace distconv::perf
