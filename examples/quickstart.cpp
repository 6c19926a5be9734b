// Quickstart: build a small CNN, pick a hybrid sample/spatial strategy, and
// train it on synthetic data across 4 simulated ranks.
//
//   $ ./quickstart
//
// Walks through the library's core objects:
//   comm::World        — the process set (ranks are threads)
//   core::NetworkSpec  — the layer DAG, built with NetworkBuilder
//   core::Strategy     — a process grid per layer (the parallelism choice)
//   core::Model        — the per-rank instantiation that trains
#include <cstdio>

#include "example_main.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"

using namespace distconv;

int run_example() {
  const int ranks = 4;

  // A small segmentation-style CNN: conv/BN/ReLU stack with a 1x1 head.
  core::NetworkBuilder nb;
  const int input = nb.input(Shape4{/*batch=*/8, /*channels=*/3, 32, 32});
  int x = nb.conv_bn_relu("block1", input, /*filters=*/16, /*kernel=*/3);
  x = nb.conv_bn_relu("block2", x, 16, 3);
  x = nb.conv("head", x, /*filters=*/1, /*kernel=*/1, /*stride=*/1, /*pad=*/0,
              /*bias=*/true);
  const core::NetworkSpec spec = nb.take();

  // Hybrid parallelism: 2 sample groups x 2-way spatial decomposition.
  const core::Strategy strategy = core::Strategy::hybrid(spec.size(), ranks, 2);
  std::printf("strategy: %s\n", strategy.str().c_str());

  // Synthetic data: targets mark the bright half of each image.
  Tensor<float> images(Shape4{8, 3, 32, 32});
  Rng rng(42);
  images.fill_uniform(rng);
  Tensor<float> labels(Shape4{8, 1, 32, 32});
  for (std::int64_t n = 0; n < 8; ++n)
    for (std::int64_t h = 0; h < 32; ++h)
      for (std::int64_t w = 0; w < 32; ++w)
        labels(n, 0, h, w) = (h < 16) ? 1.0f : 0.0f;

  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, strategy, /*seed=*/1);
    if (comm.rank() == 0) {
      std::printf("model parameters: %lld\n",
                  static_cast<long long>(model.num_parameters()));
    }
    model.set_input(input, images);
    for (int step = 0; step < 20; ++step) {
      model.forward();
      const double loss = model.loss_bce(labels);
      model.backward();
      model.sgd_step(kernels::SgdConfig{/*lr=*/0.2f, /*momentum=*/0.9f, 0.0f});
      if (comm.rank() == 0 && step % 2 == 0) {
        std::printf("step %2d  loss %.4f\n", step, loss);
      }
    }
  });
  std::printf("done — every rank held a 2-way spatial shard of each image and\n"
              "exchanged halos around every 3x3 convolution.\n");
  return 0;
}

int main() { return examples::guarded_main("quickstart", run_example); }
