// Strong scaling on the real engine: train the same global problem (same
// mini-batch, same weights, same data) on 1, 2, 4 and 8 simulated ranks and
// measure actual wall-clock time per step — the CPU-substrate analogue of
// Table I, with real halo exchanges, shuffles, and gradient allreduces.
//
//   $ ./distributed_training
//
// Also demonstrates that every configuration computes the *same* training
// trajectory (the §III exactness property): final losses agree across all
// parallelization schemes.
#include <chrono>
#include <cstdio>
#include <vector>

#include "example_main.hpp"
#include "core/model.hpp"
#include "models/models.hpp"

using namespace distconv;

namespace {

struct RunResult {
  double seconds_per_step = 0;
  double final_loss = 0;
};

RunResult run(int ranks, const core::Strategy& strategy) {
  const core::NetworkSpec spec = models::make_mesh_model_test(4, 64);
  Tensor<float> input(spec.infer_shapes().front());
  Tensor<float> targets(spec.infer_shapes().back());
  Rng rng(17);
  input.fill_uniform(rng);
  for (std::int64_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = (i % 3 == 0) ? 1.0f : 0.0f;
  }

  RunResult result;
  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, strategy, /*seed=*/9);
    model.set_input(0, input);
    const int warmup = 2, steps = 6;
    double loss = 0;
    for (int i = 0; i < warmup; ++i) {
      model.forward();
      loss = model.loss_bce(targets);
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.1f, 0.9f, 0.0f});
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) {
      model.forward();
      loss = model.loss_bce(targets);
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.1f, 0.9f, 0.0f});
    }
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() /
        steps;
    comm::allreduce(comm, &elapsed, 1, comm::ReduceOp::kMax);
    if (comm.rank() == 0) {
      result.seconds_per_step = elapsed;
      result.final_loss = loss;
    }
  });
  return result;
}

}  // namespace

int run_example() {
  const core::NetworkSpec probe = models::make_mesh_model_test(4, 64);
  const int layers = probe.size();

  struct Config {
    const char* name;
    int ranks;
    core::Strategy strategy;
  };
  const std::vector<Config> configs{
      {"serial (1 rank)", 1, core::Strategy::sample_parallel(layers, 1)},
      {"sample x2", 2, core::Strategy::sample_parallel(layers, 2)},
      {"sample x4", 4, core::Strategy::sample_parallel(layers, 4)},
      {"spatial 2x1", 2, core::Strategy::uniform(layers, ProcessGrid{1, 1, 2, 1})},
      {"spatial 2x2", 4, core::Strategy::uniform(layers, ProcessGrid{1, 1, 2, 2})},
      {"hybrid 2x(2x1)", 4, core::Strategy::hybrid(layers, 4, 2)},
      {"hybrid 2x(2x2)", 8, core::Strategy::hybrid(layers, 8, 4)},
  };

  std::printf("mesh test model, global minibatch 4, 64x64 samples; wall time "
              "per training step on thread ranks\n\n");
  std::printf("%-18s %-8s %-14s %-10s %-12s\n", "configuration", "ranks",
              "sec/step", "speedup", "final loss");
  double baseline = 0;
  for (const auto& config : configs) {
    const RunResult r = run(config.ranks, config.strategy);
    if (baseline == 0) baseline = r.seconds_per_step;
    std::printf("%-18s %-8d %-14.4f %-10.2f %-12.6f\n", config.name,
                config.ranks, r.seconds_per_step,
                baseline / r.seconds_per_step, r.final_loss);
  }
  std::printf("\nall configurations compute the same trajectory (identical "
              "final losses up to accumulation order) — the paper's §III "
              "exactness property.\n");
  return 0;
}

int main() { return examples::guarded_main("distributed_training", run_example); }
