#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "comm/collectives.hpp"
#include "harness.hpp"
#include "kernels/conv.hpp"
#include "perf/network_cost.hpp"
#include "support/intmath.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace e2e {

using namespace distconv;

namespace {

/// Median seconds of `fn` over `reps` calls after two warm-up calls.
template <typename Fn>
double time_median(Fn&& fn, int reps) {
  fn();
  fn();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

/// Repetitions that keep one probe near `budget_s` seconds, given one call.
int reps_for(double one_call_s, double budget_s) {
  return std::clamp(static_cast<int>(budget_s / std::max(one_call_s, 1e-6)), 5,
                    200);
}

}  // namespace

ConvShard dominant_conv_shard(const core::NetworkSpec& spec,
                              const core::Strategy& strategy) {
  const auto shapes = spec.infer_shapes();
  ConvShard best;
  for (int i = 0; i < spec.size(); ++i) {
    const auto desc = perf::conv_desc(spec, i, shapes);
    if (!desc) continue;
    const ProcessGrid& g = strategy.grids[static_cast<std::size_t>(i)];
    ConvShard s;
    s.layer = i;
    s.global = *desc;
    s.n = ceil_div(desc->n, std::int64_t{g.n});
    s.c = ceil_div(desc->c, std::int64_t{g.c});
    s.f = desc->f;
    s.out_h = ceil_div(desc->out_h(), std::int64_t{g.h});
    s.out_w = ceil_div(desc->out_w(), std::int64_t{g.w});
    s.k = desc->k;
    s.s = desc->s;
    s.p = desc->p;
    if (best.layer < 0 || s.flops() > best.flops()) best = s;
  }
  DC_REQUIRE(best.layer >= 0, "network has no conv layer to probe");
  return best;
}

ConvRates probe_conv(const ConvShard& sh) {
  // Input extent that yields out_h × out_w outputs; the buffer carries the
  // padding as margins (origin −p), as the model's shards do.
  const std::int64_t in_h = (sh.out_h - 1) * sh.s + sh.k - 2 * sh.p;
  const std::int64_t in_w = (sh.out_w - 1) * sh.s + sh.k - 2 * sh.p;
  Tensor<float> x(Shape4{sh.n, sh.c, in_h + 2 * sh.p, in_w + 2 * sh.p});
  Tensor<float> w(Shape4{sh.f, sh.c, sh.k, sh.k});
  Tensor<float> y(Shape4{sh.n, sh.f, sh.out_h, sh.out_w});
  Rng rng(11);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  y.fill_uniform(rng);
  const kernels::ConvParams p{sh.k, sh.k, sh.s, sh.s, sh.p, sh.p};
  const kernels::Origin2 xo{-sh.p, -sh.p}, yo{0, 0};
  const kernels::Range2 out{0, sh.out_h, 0, sh.out_w};
  const kernels::Range2 in{0, in_h, 0, in_w};

  const auto fwd = [&] { kernels::conv2d_forward(x, xo, w, y, yo, p, out); };
  const auto bwd_data = [&] {
    kernels::conv2d_backward_data(y, yo, w, x, xo, p, in, sh.out_h, sh.out_w);
  };
  const auto bwd_filter = [&] {
    kernels::conv2d_backward_filter(x, xo, y, yo, w, p, out, false);
  };
  const double t1 = now_s();
  fwd();
  const int reps = reps_for(now_s() - t1, 0.15);
  ConvRates r;
  r.fwd = sh.flops() / time_median(fwd, reps);
  r.bwd_data = sh.flops() / time_median(bwd_data, reps);
  r.bwd_filter = sh.flops() / time_median(bwd_filter, reps);
  return r;
}

ConvRates probe_kernels(const core::NetworkSpec& spec, const ConvShard& shard,
                        int budget, Result& result) {
  const auto rates_at = [&](int threads) {
    parallel::set_num_threads(threads);
    return probe_conv(shard);
  };
  const auto pass_time = [&](const ConvRates& r) {
    return shard.flops() * (1 / r.fwd + 1 / r.bwd_data + 1 / r.bwd_filter);
  };
  const ConvRates serial = rates_at(1);
  const ConvRates pooled = rates_at(kPoolProbeThreads);
  const ConvRates rates = budget == 1 ? serial : rates_at(budget);
  parallel::set_num_threads(budget);
  result.provenance["conv_probe_layer"] = spec.layer(shard.layer).name();
  result.set("kernels.conv_gflops.fwd", rates.fwd * 1e-9, "GFLOP/s");
  result.set("kernels.conv_gflops.bwd_data", rates.bwd_data * 1e-9, "GFLOP/s");
  result.set("kernels.conv_gflops.bwd_filter", rates.bwd_filter * 1e-9,
             "GFLOP/s");
  result.set("support.pool_speedup", pass_time(serial) / pass_time(pooled),
             "ratio");
  return rates;
}

perf::LinkModel probe_link(comm::Comm& comm) {
  if (comm.size() < 2) return {};  // nothing to send to
  double fit[2] = {0, 0};
  std::vector<char> small(8), large(1 << 20);
  const auto pingpong = [&](std::vector<char>& buf) {
    const int me = comm.rank();
    if (me > 1) return;
    const int peer = 1 - me;
    for (int i = 0; i < 10; ++i) {
      if (me == 0) {
        comm.send(buf.data(), buf.size(), peer, 0);
        comm.recv(buf.data(), buf.size(), peer, 0);
      } else {
        comm.recv(buf.data(), buf.size(), peer, 0);
        comm.send(buf.data(), buf.size(), peer, 0);
      }
    }
  };
  const double t_small = time_median([&] { pingpong(small); }, 9) / 20.0;
  const double t_large = time_median([&] { pingpong(large); }, 9) / 20.0;
  if (comm.rank() == 0) {
    fit[0] = t_small;
    fit[1] = std::max(0.0, (t_large - t_small) / double(large.size()));
  }
  comm::broadcast(comm, fit, 2, 0);
  return perf::LinkModel{fit[0], fit[1]};
}

double probe_allreduce_ms(comm::Comm& comm, std::int64_t floats) {
  std::vector<float> buf(static_cast<std::size_t>(floats), 1.0f);
  const double t = time_median(
      [&] {
        comm::barrier(comm);
        comm::allreduce(comm, buf.data(), buf.size(), comm::ReduceOp::kSum);
      },
      15);
  return t * 1e3;
}

std::optional<int> largest_halo_conv(core::Model& model) {
  const auto shapes = model.spec().infer_shapes();
  std::optional<int> best;
  std::int64_t best_size = 0;
  for (int i = 0; i < model.num_layers(); ++i) {
    if (!perf::conv_desc(model.spec(), i, shapes)) continue;
    const auto& port = model.rt(i).inputs.at(0);
    if (port.read == nullptr || port.read->halo == nullptr ||
        port.read->halo->num_send_transfers() == 0) {
      continue;
    }
    const std::int64_t size = port.read->t.buffer().size();
    if (size > best_size) {
      best = i;
      best_size = size;
    }
  }
  return best;
}

double probe_halo_ms(core::Model& model, int conv) {
  HaloExchange<float>& halo = *model.rt(conv).inputs.at(0).read->halo;
  const double t = time_median(
      [&] {
        comm::barrier(model.comm());
        halo.start(HaloOp::kReplace);
        halo.finish();
      },
      25);
  return t * 1e3;
}

double halo_bytes_per_step(core::Model& model) {
  double bytes = 0;
  for (int i = 0; i < model.num_layers(); ++i) {
    const auto& rt = model.rt(i);
    if (rt.y.halo) bytes += double(rt.y.halo->send_bytes_per_exchange());
    if (rt.dy.halo) bytes += double(rt.dy.halo->send_bytes_per_exchange());
  }
  comm::allreduce(model.comm(), &bytes, 1, comm::ReduceOp::kSum);
  return bytes;
}

double probe_inference_ms(core::Model& model) {
  const double t = time_median(
      [&] {
        comm::barrier(model.comm());
        model.forward(core::Mode::kInference);
      },
      25);
  return t * 1e3;
}

Prediction predict(const core::NetworkSpec& spec,
                   const core::Strategy& strategy, const ConvRates& rates,
                   const perf::LinkModel& link, int halo_conv) {
  perf::MachineModel machine = perf::MachineModel::lassen();
  // Every rank is a thread of one process: one "node", one link class.
  machine.gpus_per_node = std::max(1, strategy.num_ranks());
  machine.intra = link;
  machine.inter = link;
  const perf::CalibratedComputeModel compute(
      perf::KernelCalibration{rates.fwd, rates.bwd_data, rates.bwd_filter});
  const perf::NetworkCost cost =
      perf::network_cost(spec, strategy, machine, {}, &compute);
  const perf::InferenceCost inf =
      perf::inference_cost(spec, strategy, machine, {}, &compute);
  Prediction out;
  out.fwd = cost.forward;
  out.bwd = cost.backward;
  out.grad_exposed = cost.allreduce_exposed;
  out.inference_fwd = inf.batch_latency();
  if (halo_conv >= 0) {
    const auto shapes = spec.infer_shapes();
    out.halo = perf::halo_exchange_time(
        *perf::conv_desc(spec, halo_conv, shapes),
        strategy.grids[static_cast<std::size_t>(halo_conv)],
        perf::CommModel(machine), /*on_error_signal=*/false);
  }
  return out;
}

}  // namespace e2e
