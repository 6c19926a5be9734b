// Probes the traced run makes into single layers, outside the timed loop:
// conv kernels on a workload's dominant shard shape, the intra-rank pool's
// speedup on that probe, a point-to-point α/β fit, the gradient-sized
// allreduce, a halo exchange on the largest shard, and the §V cost model's
// prediction for the same grid.
#pragma once

#include <cstdint>
#include <optional>

#include "comm/comm.hpp"
#include "harness.hpp"
#include "core/model.hpp"
#include "perf/layer_cost.hpp"

namespace e2e {

namespace comm = distconv::comm;
namespace core = distconv::core;
namespace perf = distconv::perf;

/// Local (per-rank) geometry of one conv layer's shard.
struct ConvShard {
  int layer = -1;
  perf::ConvLayerDesc global;  ///< the layer's global geometry
  std::int64_t n = 1, c = 1, f = 1, out_h = 1, out_w = 1;
  int k = 1, s = 1, p = 0;

  double flops() const { return 2.0 * double(n) * c * f * out_h * out_w * k * k; }
};

/// The conv layer with the most forward FLOPs per rank under `strategy`.
ConvShard dominant_conv_shard(const core::NetworkSpec& spec,
                              const core::Strategy& strategy);

/// Measured rates (FLOP/s) of the three conv passes on `shard`, each the
/// median of several timed calls at the current pool budget.
struct ConvRates {
  double fwd = 0, bwd_data = 0, bwd_filter = 0;
};
ConvRates probe_conv(const ConvShard& shard);

/// Threads of the pool-speedup probe: the automatic budget of a 2-rank job
/// on 4 cores.
inline constexpr int kPoolProbeThreads = 2;

/// Sets the kernels.* and support.pool_speedup metrics on `result` from
/// conv probes of `shard`; returns the rates at the workload's `budget`.
ConvRates probe_kernels(const core::NetworkSpec& spec, const ConvShard& shard,
                        int budget, Result& result);

/// α (s) and β (s/byte) of the rank-to-rank messaging runtime from small and
/// large ping-pongs between ranks 0 and 1 of `comm`. Collective; ranks other
/// than 0 and 1 idle. Returns the fit on every rank (zero on one rank).
perf::LinkModel probe_link(comm::Comm& comm);

/// Median milliseconds of comm::allreduce over `floats` floats. Collective.
double probe_allreduce_ms(comm::Comm& comm, std::int64_t floats);

/// The conv layer whose input activation has the largest local buffer among
/// those that exchange halo messages, or nullopt when none does (sample
/// grids). Collective-safe: every rank of a grid decides alike.
std::optional<int> largest_halo_conv(core::Model& model);

/// Median milliseconds of HaloExchange::start + finish on layer `conv`'s
/// input tensor. Collective.
double probe_halo_ms(core::Model& model, int conv);

/// Halo payload bytes all ranks of the model send in one training step: one
/// forward refresh of each activation that carries margins plus one backward
/// refresh of each error signal. Collective.
double halo_bytes_per_step(core::Model& model);

/// Median milliseconds of Model::forward(kInference) on the loaded input.
/// Collective.
double probe_inference_ms(core::Model& model);

/// The §V model's terms for one training step (seconds), priced with the
/// measured conv rates and link fit.
struct Prediction {
  double fwd = 0;           ///< conv forward incl. exposed halo
  double bwd = 0;           ///< conv backward incl. exposed gradient wire time
  double grad_exposed = 0;  ///< unhidden gradient allreduce wire time
  double halo = 0;          ///< one forward halo exchange of the probed layer
  double inference_fwd = 0; ///< forward-only batch latency (serving)
};
/// Measured milliseconds ÷ predicted seconds (0 when nothing is predicted).
inline double measured_over_predicted(double measured_ms, double pred_s) {
  return pred_s > 0 ? measured_ms / (pred_s * 1e3) : 0.0;
}

Prediction predict(const core::NetworkSpec& spec,
                   const core::Strategy& strategy, const ConvRates& rates,
                   const perf::LinkModel& link, int halo_conv);

}  // namespace e2e
