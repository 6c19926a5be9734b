#include <gtest/gtest.h>

#include "models/models.hpp"
#include "perf/network_cost.hpp"
#include "sim/experiment.hpp"
#include "support/intmath.hpp"

namespace distconv::perf {
namespace {

const MachineModel kMachine = MachineModel::lassen();

TEST(NetworkCost, MeshModelStrongScalingIsMonotone) {
  // More GPUs per sample at a fixed mini-batch must reduce the simulated
  // time across the paper's range (Table I behaviour).
  const auto spec = models::make_mesh_model_1k(4);
  double prev = 1e9;
  for (int gps : {1, 2, 4, 8, 16}) {
    const auto strategy = core::Strategy::hybrid(spec.size(), 4 * gps, gps);
    const auto cost = network_cost(spec, strategy, kMachine);
    EXPECT_LT(cost.minibatch_time(), prev) << gps;
    prev = cost.minibatch_time();
  }
}

TEST(NetworkCost, SpeedupsAreSublinear) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto base = network_cost(
      spec, core::Strategy::hybrid(spec.size(), 4, 1), kMachine);
  for (int gps : {2, 4, 8, 16}) {
    const auto cost = network_cost(
        spec, core::Strategy::hybrid(spec.size(), 4 * gps, gps), kMachine);
    const double speedup = base.minibatch_time() / cost.minibatch_time();
    EXPECT_LT(speedup, gps) << gps;  // never superlinear
    EXPECT_GT(speedup, 0.3 * gps) << gps;  // but real
  }
}

TEST(NetworkCost, OverlapReducesTime) {
  const auto spec = models::make_mesh_model_1k(8);
  const auto strategy = core::Strategy::hybrid(spec.size(), 32, 4);
  NetworkCostOptions with, without;
  without.overlap_halo = false;
  without.overlap_allreduce = false;
  const double a = network_cost(spec, strategy, kMachine, with).minibatch_time();
  const double b =
      network_cost(spec, strategy, kMachine, without).minibatch_time();
  EXPECT_LT(a, b);
}

TEST(NetworkCost, WeakScalingIsNearlyFlatForSampleParallelism) {
  // Fig. 4: "the flat mini-batch time for increasing numbers of GPUs ...
  // shows near-perfect weak scaling" (below the memory-pressure scale).
  const auto t64 = network_cost(models::make_mesh_model_1k(64),
                                core::Strategy::sample_parallel(
                                    models::make_mesh_model_1k(64).size(), 64),
                                kMachine)
                       .minibatch_time();
  const auto t512 = network_cost(models::make_mesh_model_1k(512),
                                 core::Strategy::sample_parallel(
                                     models::make_mesh_model_1k(512).size(), 512),
                                 kMachine)
                        .minibatch_time();
  EXPECT_NEAR(t512 / t64, 1.0, 0.05);
}

TEST(NetworkCost, MemoryPressureSlowsSampleParallelismAt2048) {
  // Fig. 4's sample-parallel degradation at 2048 GPUs.
  const auto spec = models::make_mesh_model_1k(2048);
  const auto sample =
      network_cost(spec, core::Strategy::sample_parallel(spec.size(), 2048),
                   kMachine);
  EXPECT_TRUE(sample.memory.pressured);
  const auto spec_small = models::make_mesh_model_1k(1024);
  const auto smaller = network_cost(
      spec_small, core::Strategy::sample_parallel(spec_small.size(), 1024),
      kMachine);
  EXPECT_FALSE(smaller.memory.pressured);
  EXPECT_GT(sample.minibatch_time(), 1.1 * smaller.minibatch_time());
}

TEST(Memory, Mesh2kInfeasibleWithoutSpatialParallelism) {
  // §VI: "pure sample parallelism is not possible due to memory constraints"
  // for the 2K model; 2 GPUs/sample fits.
  const auto spec = models::make_mesh_model_2k(2);
  const auto sample = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 2), kMachine, 2);
  EXPECT_FALSE(sample.feasible);
  const auto spatial = estimate_memory(
      spec, core::Strategy::hybrid(spec.size(), 4, 2), kMachine, 4);
  EXPECT_TRUE(spatial.feasible);
}

TEST(Memory, Mesh1kFitsOneSamplePerGpu) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto est = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 4), kMachine, 4);
  EXPECT_TRUE(est.feasible);
}

TEST(Memory, ResNet50At32PerGpuFits) {
  const auto spec = models::make_resnet50(128);
  const auto est = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 4), kMachine, 4);
  EXPECT_TRUE(est.feasible);  // 32 samples per GPU, the paper's baseline
}

TEST(Memory, SpatialParallelismReducesActivationMemory) {
  const auto spec = models::make_mesh_model_2k(2);
  const auto one = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 2), kMachine, 2);
  const auto four = estimate_memory(
      spec, core::Strategy::hybrid(spec.size(), 8, 4), kMachine, 8);
  EXPECT_LT(four.activation_bytes, 0.3 * one.activation_bytes);
}

TEST(Sim, TableOneShapeReproduced) {
  // The headline strong-scaling behaviour of Table I: speedups grow with
  // GPUs/sample and land in the paper's band.
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto cell1 = sim::evaluate(build, 4, 1, opt);
  const auto cell2 = sim::evaluate(build, 4, 2, opt);
  const auto cell16 = sim::evaluate(build, 4, 16, opt);
  ASSERT_TRUE(cell1.feasible && cell2.feasible && cell16.feasible);
  const double s2 = cell1.seconds / cell2.seconds;
  const double s16 = cell1.seconds / cell16.seconds;
  EXPECT_GT(s2, 1.5);   // paper: 2.0x
  EXPECT_LT(s2, 2.05);
  EXPECT_GT(s16, 4.0);  // paper: 6.1x
  EXPECT_LT(s16, 10.0);
}

TEST(Sim, TableTwoBaselineIsTwoGpus) {
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_2k(n); };
  EXPECT_FALSE(sim::evaluate(build, 2, 1, opt).feasible);
  EXPECT_TRUE(sim::evaluate(build, 2, 2, opt).feasible);
}

TEST(Sim, MachineSizeLimitsConfigurations) {
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto cell = sim::evaluate(build, 1024, 4, opt);  // 4096 GPUs > 2048
  EXPECT_FALSE(cell.feasible);
  EXPECT_NE(cell.infeasible_reason.find("GPUs"), std::string::npos);
}

TEST(Sim, FormattingContainsPaperStyleColumns) {
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto table = sim::strong_scaling(build, {4}, {1, 2}, opt);
  const std::string text = sim::format_strong_scaling(table, 1, "T");
  EXPECT_NE(text.find("1 GPU/sample"), std::string::npos);
  EXPECT_NE(text.find("2 GPUs/sample"), std::string::npos);
  EXPECT_NE(text.find("x)"), std::string::npos);
}

TEST(Sim, WeakScalingSeriesRespectMachineSize) {
  sim::ExperimentOptions opt;
  opt.max_gpus = 64;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto series = sim::weak_scaling(build, {1, 4}, 4, opt);
  ASSERT_EQ(series.size(), 2u);
  for (const auto& s : series) {
    for (const auto& cell : s.cells) {
      EXPECT_LE(cell.gpus, 64);
      if (cell.feasible) {
        EXPECT_GT(cell.seconds, 0.0);
      }
    }
    // Weak scaling: flat within 10% below the pressure scale.
    const double first = s.cells.front().seconds;
    for (const auto& cell : s.cells) {
      if (cell.feasible) {
        EXPECT_NEAR(cell.seconds / first, 1.0, 0.1);
      }
    }
  }
}

TEST(Sim, SamplesPerGroupScalesGpuCount) {
  sim::ExperimentOptions opt;
  opt.samples_per_group = 32;
  auto build = [](std::int64_t n) { return models::make_resnet50(n); };
  const auto cell = sim::evaluate(build, 128, 2, opt);
  EXPECT_EQ(cell.gpus, 8);  // 128 samples / 32 per group x 2 GPUs
  ASSERT_TRUE(cell.feasible);
}

TEST(InferenceCost, ForwardOnlyIsCheaperThanTrainingStep) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const auto train = network_cost(spec, strategy, kMachine);
  const auto infer = inference_cost(spec, strategy, kMachine);
  EXPECT_GT(infer.forward, 0.0);
  // No backprop, no gradient allreduce, one-way shuffles.
  EXPECT_LT(infer.batch_latency(), train.minibatch_time());
  EXPECT_LE(infer.forward, train.forward);
  EXPECT_LE(infer.shuffle, train.shuffle);
}

TEST(InferenceCost, ForwardOnlyMemoryFootprintIsSmaller) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const auto train = estimate_memory(spec, strategy, kMachine, 16);
  const auto infer = estimate_memory_inference(spec, strategy, kMachine, 16);
  // Inference holds y only; training adds dy wherever it is live, so it
  // holds two copies of every block except the dead dy blocks (here the
  // input's: no layer upstream of conv1_1 has parameters).
  const auto shapes = spec.infer_shapes();
  double dead_dy_bytes = 0;
  for (int i = 0; i < spec.size(); ++i) {
    if (spec.needs_dy(i)) continue;
    const Shape4& s = shapes[i];
    const ProcessGrid& g = strategy.grids[i];
    dead_dy_bytes += 4.0 * double(ceil_div(s.n, g.n)) * ceil_div(s.c, g.c) *
                     ceil_div(s.h, g.h) * ceil_div(s.w, g.w);
  }
  EXPECT_GT(dead_dy_bytes, 0.0);
  EXPECT_NEAR(train.activation_bytes,
              2.0 * infer.activation_bytes - dead_dy_bytes, 1.0);
  // Params only (no grads/momentum).
  EXPECT_NEAR(infer.parameter_bytes, train.parameter_bytes / 3.0, 1.0);
  EXPECT_LT(infer.total_bytes, train.total_bytes);
}

TEST(InferenceCost, SpatialSplitCutsSingleSampleLatency) {
  // The serving regime the forward-only objective exists for: at batch 1,
  // sample parallelism cannot cut latency but a spatial split can.
  const auto spec = models::make_mesh_model_1k(1);
  const auto sample =
      inference_cost(spec, core::Strategy::sample_parallel(spec.size(), 4),
                     kMachine);
  const auto spatial = inference_cost(
      spec, core::Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2}),
      kMachine);
  EXPECT_LT(spatial.batch_latency(), sample.batch_latency());
}

TEST(ServingEstimate, PolicyDelayShapesLatencyPercentiles) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const double delay = 2e-3;
  const auto est = estimate_serving(spec, strategy, kMachine, delay);
  EXPECT_GT(est.batch_latency, 0.0);
  EXPECT_NEAR(est.p50_latency, est.batch_latency + 0.5 * delay, 1e-12);
  EXPECT_NEAR(est.p99_latency, est.batch_latency + delay, 1e-12);
  EXPECT_NEAR(est.throughput, 4.0 / est.batch_latency, 1e-6);
  // The greedy policy trades percentile latency for throughput headroom.
  const auto greedy = estimate_serving(spec, strategy, kMachine, 0.0);
  EXPECT_LT(greedy.p99_latency, est.p99_latency);
  EXPECT_EQ(greedy.p50_latency, greedy.p99_latency);
}

TEST(ServingEstimate, ReplicaTermScalesThroughputNotLatency) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const double delay = 1e-3;
  const auto one = estimate_serving(spec, strategy, kMachine, delay);
  const auto fleet = estimate_serving(spec, strategy, kMachine, delay,
                                      /*replicas=*/3);
  EXPECT_EQ(one.replicas, 1);
  EXPECT_EQ(one.fleet_throughput, one.throughput);
  EXPECT_EQ(fleet.replicas, 3);
  // Replicas serve independent batches: percentiles are per-replica,
  // throughput scales with the group count.
  EXPECT_EQ(fleet.batch_latency, one.batch_latency);
  EXPECT_EQ(fleet.p99_latency, one.p99_latency);
  EXPECT_EQ(fleet.throughput, one.throughput);
  EXPECT_NEAR(fleet.fleet_throughput, 3.0 * one.throughput, 1e-9);
  EXPECT_THROW(estimate_serving(spec, strategy, kMachine, delay, 0), Error);
}

TEST(InferenceCost, ChannelParallelPricesAllgatherXSchedule) {
  // A channel-parallel conv whose input is much larger than its output:
  // serving's allgather-x completion moves x (big), training's
  // reduce-scatter moves y (small). The inference pricing must reflect the
  // executed allgather-x schedule, so pricing the same layer under both
  // enums must differ in exactly the forward wire term.
  ConvLayerDesc desc;
  desc.n = 4;
  desc.c = 64;
  desc.h = desc.w = 32;
  desc.f = 8;  // f << c → y much smaller than x
  desc.k = 3;
  desc.p = 1;
  const ProcessGrid grid{1, 4, 1, 1};
  const CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const LayerCost train =
      conv_layer_cost(desc, grid, comm, compute, 4,
                      ChannelFwdSchedule::kReduceScatterY);
  const LayerCost serve =
      conv_layer_cost(desc, grid, comm, compute, 4,
                      ChannelFwdSchedule::kAllgatherX);
  // Same FLOPs either way (C×F work split differently), identical backward.
  EXPECT_EQ(train.bpx_compute, serve.bpx_compute);
  EXPECT_EQ(train.bpx_halo, serve.bpx_halo);
  EXPECT_EQ(train.allreduce, serve.allreduce);
  // x is 8× larger than y here, so the allgather-x forward pays more wire.
  EXPECT_GT(serve.fp_halo, train.fp_halo);
  // And inference_cost prices the allgather-x path end to end.
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{desc.n, desc.c, desc.h, desc.w});
  nb.conv("c", in, static_cast<int>(desc.f), desc.k, 1, desc.p);
  const auto net = nb.take();
  const auto strategy = core::Strategy::uniform(net.size(), grid);
  const auto infer = inference_cost(net, strategy, kMachine);
  ASSERT_TRUE(infer.layers[1].has_value());
  EXPECT_EQ(infer.layers[1]->fp_halo, serve.fp_halo);
}

TEST(Sim, WeakScalingFormatMentionsInfeasibleReason) {
  sim::ExperimentOptions opt;
  opt.max_gpus = 8;
  auto build = [](std::int64_t n) { return models::make_mesh_model_2k(n); };
  // 1 GPU/sample on the 2K model: every point is memory-infeasible.
  const auto series = sim::weak_scaling(build, {1}, 4, opt);
  const std::string text = sim::format_weak_scaling(series, "T");
  EXPECT_NE(text.find("n/a"), std::string::npos);
  EXPECT_NE(text.find("memory"), std::string::npos);
}

}  // namespace
}  // namespace distconv::perf
