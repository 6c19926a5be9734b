// Training workload `mesh-spatial`: the mesh-tangling model, pure spatial on
// two ranks, fed from MeshTanglingDataset through DistributedLoader in
// scatter-from-root mode, stepped for a fixed wall-clock budget. Every rank
// logs its step start/end; a broadcast from rank 0 after each step decides
// whether to continue and doubles as the post-step barrier at which rank
// skew is taken.
//
// Correctness: a single-rank run of the same steps (the oracle) must give
// every step's loss and the last step's completed gradients. The timed steps
// train at learning rate 0, so both runs hold identical weights at every
// step: with any positive rate, reduction-order rounding flips ReLU and
// max-pool ties and the two trajectories part within a few steps (0.6% loss
// difference after 4 steps at rate 2e-5 on a ResNet-50 layout), which would
// leave nothing tight to check. Forward, loss, backward, gradient allreduce
// and the SGD kernel all still run and are timed. At rate 0 a step's loss and
// gradients depend only on its batch, so the oracle runs each of the
// dataset's distinct batches once. After the timed steps every rank takes one
// plain SGD step at a positive rate, and its updated parameters must match
// w − rate·g computed here from the oracle's weights and gradients.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <thread>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/model.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "models/models.hpp"
#include "perf/conv_planner.hpp"
#include "probes.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace distconv;

namespace {

// The workload keeps two of the machine's four cores idle: with all four
// busy, time the hypervisor steals from any core stalls a rank (and every
// rank waiting on it), and step times on a shared host swing 2-3x between
// identical runs. With two busy threads the swings shrink several-fold.
constexpr int kRanks = 2;
constexpr int kBudget = 1;  ///< intra-rank pool threads per rank
constexpr std::int64_t kBatch = 4;
constexpr std::int64_t kSize = 256;
constexpr int kChannels = 4;  ///< make_mesh_model_test's input channels
constexpr std::int64_t kDatasetSize = 32;

/// Learning rate 0 (see the file comment), momentum as in real training.
const kernels::SgdConfig kSgd{0.0f, 0.9f, 0.0f};
/// The step taken after the timed loop to check the SGD update itself.
const kernels::SgdConfig kCheckSgd{1.0f, 0.0f, 0.0f};
/// Per-step |loss − oracle| / max(1, |oracle|): reduction order only.
constexpr double kLossRtol = 1e-6;
/// Per gradient tensor: max |g − oracle| / max |oracle|; the same limit
/// applies to each parameter tensor's update.
constexpr double kGradRtol = 1e-4;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 21;
/// Untimed steps at the end of every set-up.
constexpr int kWarmupSteps = 3;
/// Step latencies come from blocks of kStepBlock consecutive steps, the
/// quietest quarter by host steal (see steadiest_blocks). The tail is p90
/// when at least 100 steps are kept; a 50 s run keeps over 300.
constexpr std::size_t kStepBlock = 20;

/// The dataset's samples and labels, made once from the seed before any
/// set-up. Ingest reads them like a page-cached file: load_step's time is
/// the copy and the scatter from the root, not the synthetic generator's
/// trigonometry.
struct MeshData {
  std::vector<Tensor<float>> states, labels;

  explicit MeshData(std::uint64_t seed) {
    data::MeshTanglingConfig dc;
    dc.size = kSize;
    dc.channels = kChannels;
    dc.label_downsample = 64;  // the model's six stride-2 stages
    dc.seed = seed;
    const data::MeshTanglingDataset dataset(dc);
    for (std::int64_t i = 0; i < kDatasetSize; ++i) {
      states.emplace_back(dataset.sample_shape());
      dataset.sample(i, states.back());
      labels.emplace_back(dataset.label_shape());
      dataset.label(i, labels.back());
    }
  }

  /// Fills the global input batch that starts at sample `first`.
  void inputs(std::int64_t first, Tensor<float>& global) const {
    for (std::int64_t k = 0; k < global.shape().n; ++k) {
      const Tensor<float>& one = states[(first + k) % kDatasetSize];
      std::copy(one.data(), one.data() + one.size(),
                global.data() + k * one.size());
    }
  }

  /// Fills the replicated global BCE targets of step `step`.
  void targets(std::int64_t step, Tensor<float>& t) const {
    const std::int64_t per = t.size() / t.shape().n;
    for (std::int64_t k = 0; k < t.shape().n; ++k) {
      const Tensor<float>& l = labels[(step * kBatch + k) % kDatasetSize];
      std::copy(l.data(), l.data() + per, t.data() + k * per);
    }
  }

  data::DistributedLoader loader(core::Model& model, data::LoadMode mode) const {
    return data::DistributedLoader(
        model, 0,
        [this](std::int64_t first, Tensor<float>& global) {
          inputs(first, global);
        },
        kDatasetSize, mode);
  }
};

/// Clock readings around the calls of one training step.
struct StepMarks {
  double load0, load1, fwd0, fwd1, loss1, bwd1, sgd1;

  /// Record the step and its calls as spans (the target assembly between
  /// load and forward stays in the step's self time).
  void trace(Tracer& tracer, std::int64_t step) const {
    const int parent = tracer.add("step", step, -1, load0, sgd1);
    tracer.add("data.load", step, parent, load0, load1);
    tracer.add("core.fwd", step, parent, fwd0, fwd1);
    tracer.add("core.loss", step, parent, fwd1, loss1);
    tracer.add("core.bwd", step, parent, loss1, bwd1);
    tracer.add("core.sgd", step, parent, bwd1, sgd1);
  }
};

/// One training step on `model`; returns its loss.
double train_step(core::Model& model, data::DistributedLoader& loader,
                  const MeshData& data, std::int64_t step,
                  Tensor<float>& targets, StepMarks& m) {
  m.load0 = now_s();
  loader.load_step(step);
  m.load1 = now_s();
  data.targets(step, targets);
  m.fwd0 = now_s();
  model.forward();
  m.fwd1 = now_s();
  const double loss = model.loss_bce(targets);
  m.loss1 = now_s();
  model.backward();
  m.bwd1 = now_s();
  model.sgd_step(kSgd);
  m.sgd1 = now_s();
  return loss;
}

/// Copies of every gradient (`grads`) or parameter tensor of `model`, in
/// layer order.
std::vector<Tensor<float>> copies(core::Model& model, bool grads) {
  std::vector<Tensor<float>> out;
  for (int i = 0; i < model.num_layers(); ++i) {
    for (const auto& t : grads ? model.rt(i).grads : model.rt(i).params) {
      out.emplace_back(t.shape());
      std::copy(t.data(), t.data() + t.size(), out.back().data());
    }
  }
  return out;
}

/// Largest per-tensor max |a − b| / max |b| over two gradient sets.
double gradient_error(const std::vector<Tensor<float>>& a,
                      const std::vector<Tensor<float>>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    double diff = 0, scale = 0;
    for (std::int64_t i = 0; i < b[t].size(); ++i) {
      diff = std::max(diff, double(std::abs(a[t].data()[i] - b[t].data()[i])));
      scale = std::max(scale, double(std::abs(b[t].data()[i])));
    }
    if (scale > 0) worst = std::max(worst, diff / scale);
  }
  return worst;
}

/// The parameters one plain SGD step at kCheckSgd's rate gives.
std::vector<Tensor<float>> sgd_reference(const std::vector<Tensor<float>>& params,
                                         const std::vector<Tensor<float>>& grads) {
  std::vector<Tensor<float>> out;
  for (std::size_t t = 0; t < params.size(); ++t) {
    out.emplace_back(params[t].shape());
    for (std::int64_t i = 0; i < params[t].size(); ++i) {
      out.back().data()[i] = params[t].data()[i] - kCheckSgd.lr * grads[t].data()[i];
    }
  }
  return out;
}

/// Largest per-tensor error of updated parameters `got` against the
/// reference `after`, as a share of the reference's largest update (after −
/// before). The rounding of the update itself (two float roundings of
/// magnitude up to max |after|) is allowed for.
double update_error(const std::vector<Tensor<float>>& got,
                    const std::vector<Tensor<float>>& before,
                    const std::vector<Tensor<float>>& after) {
  if (got.size() != after.size()) return INFINITY;
  double worst = 0;
  for (std::size_t t = 0; t < after.size(); ++t) {
    double diff = 0, step = 0, size = 0;
    for (std::int64_t i = 0; i < after[t].size(); ++i) {
      const double a = after[t].data()[i];
      diff = std::max(diff, std::abs(got[t].data()[i] - a));
      step = std::max(step, std::abs(a - before[t].data()[i]));
      size = std::max(size, std::abs(a));
    }
    const double excess = std::max(0.0, diff - 4 * FLT_EPSILON * size);
    worst = std::max(worst, excess > 0 ? excess / step : 0.0);
  }
  return worst;
}

/// What the single-rank oracle computes for the same steps.
struct Oracle {
  std::vector<double> losses;        ///< of steps [0, steps)
  std::vector<Tensor<float>> grads;  ///< of step steps − 1
  std::vector<Tensor<float>> params;  ///< the weights every step starts from
};

Oracle oracle_run(const core::NetworkSpec& spec, const MeshData& data,
                  std::uint64_t seed, std::int64_t steps) {
  const std::int64_t cycle = kDatasetSize / kBatch;
  static_assert(kDatasetSize % kBatch == 0, "whole batches only");
  parallel::set_num_threads(
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4));
  Oracle out;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm,
                      core::Strategy::sample_parallel(spec.size(), 1), seed);
    data::DistributedLoader loader =
        data.loader(model, data::LoadMode::kReplicate);
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    StepMarks marks;
    const std::int64_t last = (steps - 1) % cycle;
    std::vector<double> per_batch;
    for (std::int64_t s = 0; s < cycle; ++s) {
      per_batch.push_back(train_step(model, loader, data, s, targets, marks));
      if (s == last) out.grads = copies(model, /*grads=*/true);
    }
    out.params = copies(model, /*grads=*/false);
    for (std::int64_t s = 0; s < steps; ++s) {
      out.losses.push_back(per_batch[s % cycle]);
    }
  });
  return out;
}

}  // namespace

void run_mesh_spatial(const RunConfig& cfg, Result& result, Tracer& tracer) {
  const core::NetworkSpec spec = models::make_mesh_model_test(kBatch, kSize);
  // One sample group of kRanks ranks: pure spatial.
  const core::Strategy strategy = core::Strategy::hybrid(spec.size(), kRanks, kRanks);
  record_threads(result, kRanks, kBudget, 0);
  result.provenance["strategy"] = strategy.str();
  result.provenance["load_mode"] = "scatter_from_root";
  const MeshData data(cfg.seed);
  parallel::set_num_threads(kBudget);

  // Rank-0 logs plus per-rank step boundaries (each rank writes its own).
  std::vector<double> setup_s, build_s, losses, grad_exposed;
  std::vector<Tensor<float>> grads;
  std::vector<std::vector<Tensor<float>>> updated(kRanks);
  std::vector<std::vector<double>> starts(kRanks), ends(kRanks);
  std::vector<char> traced_step;  // per timed step: recorded with spans
  std::vector<double> act_bytes(kRanks, 0);
  StealMeter steal;
  double allreduce_ms = 0, halo_ms = 0, halo_bytes = 0;
  perf::LinkModel link;
  int halo_conv = -1;
  std::int64_t num_params = 0;

  // The timed run follows the middle set-up, so set-ups sample the machine
  // before and after it.
  for (int k = 0; k < kSetups; ++k) {
    const bool timed = k == kSetups / 2;
    perf::clear_conv_plan_cache();  // every set-up pays for planning
    const double t0 = now_s();
    comm::World world(kRanks);
    world.run([&](comm::Comm& comm) {
      const bool root = comm.rank() == 0;
      const double tb = now_s();
      core::Model model(spec, comm, strategy, cfg.seed);
      const double tm = now_s();
      data::DistributedLoader loader =
          data.loader(model, data::LoadMode::kScatterFromRoot);
      // Warm-up steps belong to set-up: conv plans resolve lazily on the
      // first forward and backward, and pools and buffers warm up.
      const double tl = now_s();
      Tensor<float> targets(model.rt(model.output_layer()).out_shape);
      StepMarks marks;
      std::int64_t step = 0;
      for (; step < kWarmupSteps; ++step) {
        const double loss = train_step(model, loader, data, step, targets, marks);
        if (root && timed) losses.push_back(loss);
      }
      comm::barrier(comm);
      if (root) {
        const double ts = now_s();
        setup_s.push_back(ts - t0);
        build_s.push_back(tm - tb);
        const int span = tracer.add("setup", k, -1, t0, ts);
        tracer.add("world.start", k, span, t0, tb);
        tracer.add("core.model_build", k, span, tb, tm);
        tracer.add("data.loader_build", k, span, tm, tl);
        tracer.add("warmup", k, span, tl, ts);
      }
      if (!timed) return;

      // Traced runs record spans on every other step, so the span overhead
      // is measured against the same process, inputs and time window. A
      // step ends after its bookkeeping, span recording included.
      const double t_begin = now_s();
      if (root) steal.mark();
      for (std::size_t i = 0;; ++i, ++step) {
        int ctl[2] = {0, 0};  // {continue, traced}
        if (root) {
          const double elapsed = now_s() - t_begin;
          ctl[0] = elapsed < cfg.seconds;
          ctl[1] = tracer.on() && step % 2 == 1;
        }
        comm::broadcast(comm, ctl, 2, 0);
        if (!ctl[0]) break;
        const double loss = train_step(model, loader, data, step, targets, marks);
        if (root) {
          losses.push_back(loss);
          grad_exposed.push_back(model.last_grad_completion_seconds());
          traced_step.push_back(static_cast<char>(ctl[1]));
          if (ctl[1]) marks.trace(tracer, step);
        }
        starts[comm.rank()].push_back(marks.load0);
        ends[comm.rank()].push_back(now_s());
        if (root && (i + 1) % kStepBlock == 0) steal.mark();
      }
      act_bytes[comm.rank()] = double(model.activation_bytes());
      if (root) grads = copies(model, /*grads=*/true);
      model.sgd_step(kCheckSgd);
      updated[comm.rank()] = copies(model, /*grads=*/false);
      if (!tracer.on()) return;

      // Collective probes; rank 0 keeps the results.
      const perf::LinkModel fit = probe_link(comm);
      const double ar_ms = probe_allreduce_ms(comm, model.num_parameters());
      const auto conv = largest_halo_conv(model);
      const double h_ms = conv ? probe_halo_ms(model, *conv) : 0.0;
      const double h_bytes = halo_bytes_per_step(model);
      if (root) {
        num_params = model.num_parameters();
        link = fit;
        allreduce_ms = ar_ms;
        halo_conv = conv.value_or(-1);
        halo_ms = h_ms;
        halo_bytes = h_bytes;
      }
    });
  }
  const double rss_mb = peak_rss_mb();

  // Step wall time = slowest rank; skew = spread of end times at the
  // post-step broadcast.
  const std::size_t steps = ends[0].size();
  std::vector<double> wall, wall_untraced, wall_traced, skew;
  for (std::size_t i = 0; i < steps; ++i) {
    double longest = 0, first_end = ends[0][i], last_end = ends[0][i];
    for (int r = 0; r < kRanks; ++r) {
      longest = std::max(longest, ends[r][i] - starts[r][i]);
      first_end = std::min(first_end, ends[r][i]);
      last_end = std::max(last_end, ends[r][i]);
    }
    wall.push_back(longest);
    (traced_step[i] ? wall_traced : wall_untraced).push_back(longest);
    skew.push_back(last_end - first_end);
  }

  // Correctness: the same steps on one rank, outside every timed region.
  // The gradient comparison and each rank's update count as further checked
  // operations.
  const Oracle ref = oracle_run(spec, data, cfg.seed,
                                static_cast<std::int64_t>(losses.size()));
  std::int64_t bad = 0;
  double worst = 0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const double err = std::abs(losses[i] - ref.losses[i]) /
                       std::max(1.0, std::abs(ref.losses[i]));
    worst = std::max(worst, err);
    if (!(err <= kLossRtol)) ++bad;  // NaN counts as a miss
  }
  const double grad_err = gradient_error(grads, ref.grads);
  if (!(grad_err <= kGradRtol)) ++bad;
  const std::vector<Tensor<float>> expected = sgd_reference(ref.params, ref.grads);
  double update_err = 0;
  for (const auto& params : updated) {
    const double err = update_error(params, ref.params, expected);
    update_err = std::max(update_err, err);
    if (!(err <= kGradRtol)) ++bad;
  }
  result.attempted = static_cast<std::int64_t>(losses.size()) + 1 + kRanks;
  result.failed = bad;
  result.correct = bad == 0;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "loss %.3g (limit %.3g), gradient %.3g, update %.3g (limit %.3g)",
                worst, kLossRtol, grad_err, update_err, kGradRtol);
  result.provenance["oracle_max_rel_err"] = buf;
  result.provenance["steps_timed"] = std::to_string(steps);

  const Summary lat =
      summarize(steadiest_blocks(wall, kStepBlock, steal.shares()));
  result.provenance["latency_tail_pct"] = std::to_string(lat.tail_pct);
  result.provenance["latency_samples"] = std::to_string(lat.n);
  result.provenance["latency_ms_p50_all_steps"] = std::to_string(median(wall) * 1e3);
  result.set("throughput_per_s", double(kBatch) / lat.p50, "1/s");
  result.set("latency_ms.p50", lat.p50 * 1e3, "ms");
  result.set("latency_ms.tail", lat.tail * 1e3, "ms");
  result.set("setup_s", median(setup_s), "s");
  result.set("ok_frac", double(result.attempted - bad) / double(result.attempted),
             "fraction");
  result.set("mem.peak_rss_mb", rss_mb, "MB");
  result.set("mem.act_mb_per_rank",
             *std::max_element(act_bytes.begin(), act_bytes.end()) / (1 << 20),
             "MB");
  if (!tracer.on()) return;

  // Per-layer metrics from the traced half, the probes and the §V model.
  const auto self_ms = [&](const char* name) {
    return tracer.median_self_seconds(name) * 1e3;
  };
  std::vector<double> exposed_traced;
  for (std::size_t i = 0; i < steps; ++i) {
    if (traced_step[i]) exposed_traced.push_back(grad_exposed[i]);
  }
  const double fwd_ms = self_ms("core.fwd"), bwd_ms = self_ms("core.bwd");
  const double exposed_ms = median(exposed_traced) * 1e3;
  result.set("core.fwd_ms", fwd_ms, "ms");
  result.set("core.bwd_ms", bwd_ms, "ms");
  result.set("core.sgd_ms", self_ms("core.sgd"), "ms");
  result.set("core.model_build_ms", median(build_s) * 1e3, "ms");
  result.set("data.load_ms", self_ms("data.load"), "ms");
  result.set("comm.grad_exposed_ms", exposed_ms, "ms");
  result.set("comm.allreduce_ms", allreduce_ms, "ms");
  result.set("comm.grad_bytes", 4.0 * double(num_params), "B");
  result.set("comm.skew_ms", median(skew) * 1e3, "ms");
  result.set("tensor.halo_ms", halo_ms, "ms");
  result.set("tensor.halo_bytes_per_step", halo_bytes, "B");
  result.set("trace.overhead_frac",
             median(wall_traced) / median(wall_untraced), "ratio");

  const ConvShard shard = dominant_conv_shard(spec, strategy);
  const ConvRates rates = probe_kernels(spec, shard, kBudget, result);

  const Prediction pred = predict(spec, strategy, rates, link, halo_conv);
  result.set("perf.pred.fwd_ms", pred.fwd * 1e3, "ms");
  result.set("perf.pred.bwd_ms", pred.bwd * 1e3, "ms");
  result.set("perf.pred.grad_exposed_ms", pred.grad_exposed * 1e3, "ms");
  result.set("perf.pred.halo_ms", pred.halo * 1e3, "ms");
  result.set("perf.ratio.fwd", measured_over_predicted(fwd_ms, pred.fwd),
             "ratio");
  result.set("perf.ratio.bwd", measured_over_predicted(bwd_ms, pred.bwd),
             "ratio");
  result.set("perf.ratio.grad_exposed",
             measured_over_predicted(exposed_ms, pred.grad_exposed), "ratio");
  result.set("perf.ratio.halo", measured_over_predicted(halo_ms, pred.halo),
             "ratio");
}

}  // namespace e2e
