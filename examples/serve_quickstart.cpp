// Serving quickstart: train a small classifier for a few steps, checkpoint
// it, bring up the distributed inference server on a *different* process
// grid, issue requests from a client thread, and print latency statistics.
//
//   $ ./serve_quickstart [--replicas N]
//
// Walks through the serving objects:
//   core::Model::forward(Mode::kInference) — eval-mode forward (batchnorm
//       normalizes with the running statistics tracked during training)
//   core::save/load_checkpoint_file — format v2 round-trips those statistics
//   serve::Server / serve::Batcher — dynamic request batching (max-batch /
//       max-delay policy) over the distributed forward
//   serve::Router (--replicas > 1) — the same world carved into replica
//       groups, each loading the checkpoint onto its own grid, requests
//       routed to the shallowest queue (see README "Fleet-scale serving")
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "example_main.hpp"
#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

using namespace distconv;

namespace {

constexpr int kRanks = 4;
constexpr int kClasses = 8;
constexpr std::int64_t kBatch = 8;

core::NetworkSpec classifier() {
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{kBatch, 3, 32, 32});
  int x = nb.conv_bn_relu("b1", in, 16, 3, 2);
  x = nb.conv_bn_relu("b2", x, 24, 3, 1);
  x = nb.global_avg_pool("gap", x);
  x = nb.fully_connected("fc", x, kClasses, /*bias=*/true);
  return nb.take();
}

/// Fleet variant: train once on a single rank, then carve the world into
/// `replicas` groups behind a Router — every group rebuilds the model on its
/// own (smaller) grid from the shared checkpoint bytes.
int run_fleet(serve::ServeOptions opts, int replicas) {
  if (kRanks % replicas != 0) {
    std::fprintf(stderr, "--replicas must divide %d\n", kRanks);
    return 2;
  }
  const int group_ranks = kRanks / replicas;
  core::NetworkSpec spec = classifier();

  std::string blob;
  {
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      core::Model model(spec, comm,
                        core::Strategy::sample_parallel(spec.size(), 1), 1);
      Rng rng(5);
      const Shape4 in_shape = model.rt(0).out_shape;
      for (int step = 0; step < 6; ++step) {
        Tensor<float> x(in_shape);
        x.fill_uniform(rng, -1.0f, 1.0f);
        std::vector<int> labels;
        for (std::int64_t n = 0; n < in_shape.n; ++n) {
          labels.push_back(static_cast<int>(rng.uniform() * kClasses) %
                           kClasses);
        }
        model.set_input(0, x);
        model.forward();
        model.loss_softmax(labels);
        model.backward();
        model.sgd_step(kernels::SgdConfig{0.1f, 0.9f, 0.0f});
      }
      std::ostringstream out;
      core::save_checkpoint(model, out);
      blob = out.str();
    });
  }

  serve::Router router;
  serve::FleetModel fm;
  fm.tag = "quickstart";
  fm.strategy = core::Strategy::sample_parallel(spec.size(), group_ranks);
  fm.spec = std::move(spec);
  fm.checkpoint = blob;
  fm.opts = opts;
  fm.replicas = replicas;
  router.add_model(std::move(fm));

  std::printf("fleet: %d replicas × %d ranks "
              "(max_batch=%d, max_delay=%lldus)\n\n",
              replicas, group_ranks, opts.batcher.max_batch,
              static_cast<long long>(opts.batcher.max_delay_us));
  std::thread client([&] {
    Rng rng(77);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (int i = 0; i < 20; ++i) {
      Tensor<float> sample(Shape4{1, 3, 32, 32});
      sample.fill_uniform(rng, -1.0f, 1.0f);
      futures.push_back(router.submit("quickstart", std::move(sample)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::InferenceResult res = futures[i].get();
      std::printf("request %2zu: top-1 class %d (p=%.3f)  latency %.2f ms\n",
                  i, res.topk[0].cls, res.topk[0].prob,
                  res.latency_seconds * 1e3);
    }
    router.shutdown();
  });
  comm::World world(router.total_ranks());
  world.run([&](comm::Comm& comm) { router.serve(comm); });
  client.join();

  const serve::RouterStats stats = router.stats();
  std::printf("\nrouted %llu requests\n",
              static_cast<unsigned long long>(stats.routed));
  for (const auto& ms : stats.models) {
    for (const auto& rep : ms.replicas) {
      std::printf("  replica group %d: %llu requests, %llu batches, "
                  "p50 %.2f ms, p99 %.2f ms%s\n",
                  rep.group, static_cast<unsigned long long>(rep.requests),
                  static_cast<unsigned long long>(rep.batches),
                  rep.p50_latency_seconds * 1e3,
                  rep.p99_latency_seconds * 1e3, rep.dead ? " (dead)" : "");
    }
  }
  return 0;
}

}  // namespace

int run_example(int argc, char** argv) {
  int replicas = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replicas = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--replicas N]\n", argv[0]);
      return 2;
    }
  }
  if (replicas > 1) {
    serve::ServeOptions fleet_opts = serve::serve_options_from_env();
    fleet_opts.top_k = 3;
    return run_fleet(fleet_opts, replicas);
  }
  const char* ckpt = "serve_quickstart.ckpt";

  // Batching policy from the env knobs (DC_SERVE_MAX_BATCH /
  // DC_SERVE_MAX_DELAY_US), defaults: batch 8, 1 ms max delay. The server
  // additionally caps each dispatch at the model's batch capacity (kBatch).
  serve::ServeOptions opts = serve::serve_options_from_env();
  opts.top_k = 3;
  serve::Server server(opts);

  std::thread client;
  comm::World world(kRanks);
  world.run([&](comm::Comm& comm) {
    // ---- Phase 1: train under a hybrid sample/spatial grid (the FC head
    // pins to sample parallelism; the engine shuffles into it). ------------
    const core::NetworkSpec spec = classifier();
    core::Strategy train_strategy =
        core::Strategy::hybrid(spec.size(), kRanks, 2);
    train_strategy.grids[spec.size() - 1] = ProcessGrid{kRanks, 1, 1, 1};
    {
      core::Model model(spec, comm, train_strategy, /*seed=*/1);
      Rng rng(5);
      const Shape4 in_shape = model.rt(0).out_shape;
      for (int step = 0; step < 6; ++step) {
        Tensor<float> x(in_shape);
        x.fill_uniform(rng, -1.0f, 1.0f);
        std::vector<int> labels;
        for (std::int64_t n = 0; n < in_shape.n; ++n) {
          labels.push_back(static_cast<int>(rng.uniform() * kClasses) %
                           kClasses);
        }
        model.set_input(0, x);
        model.forward();
        const double loss = model.loss_softmax(labels);
        model.backward();
        model.sgd_step(kernels::SgdConfig{0.1f, 0.9f, 0.0f});
        if (comm.rank() == 0) {
          std::printf("train step %d  loss %.4f\n", step, loss);
        }
      }
      core::save_checkpoint_file(model, ckpt);  // v2: weights + BN stats
    }

    // ---- Phase 2: serve from the checkpoint under a different grid. ------
    core::Model serving(spec, comm,
                        core::Strategy::sample_parallel(spec.size(), kRanks),
                        /*seed=*/2);
    core::load_checkpoint_file(serving, ckpt);
    if (comm.rank() == 0) {
      std::printf("\nserving %d-class model on %d ranks "
                  "(max_batch=%d, max_delay=%lldus)\n\n",
                  kClasses, kRanks, opts.batcher.max_batch,
                  static_cast<long long>(opts.batcher.max_delay_us));
      client = std::thread([&server] {
        Rng rng(77);
        std::vector<std::future<serve::InferenceResult>> futures;
        for (int i = 0; i < 20; ++i) {
          Tensor<float> sample(Shape4{1, 3, 32, 32});
          sample.fill_uniform(rng, -1.0f, 1.0f);
          futures.push_back(server.submit(std::move(sample)));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const serve::InferenceResult res = futures[i].get();
          std::printf("request %2zu: top-1 class %d (p=%.3f)  "
                      "latency %.2f ms\n",
                      i, res.topk[0].cls, res.topk[0].prob,
                      res.latency_seconds * 1e3);
        }
        server.shutdown();
      });
    }
    server.serve(serving);  // collective: every rank runs the serving loop
  });
  client.join();

  const serve::ServerStats stats = server.stats();
  std::printf("\nserved %llu requests in %llu batches "
              "(avg fill %.2f)  p50 %.2f ms  p99 %.2f ms\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch_fill, stats.p50_latency_seconds * 1e3,
              stats.p99_latency_seconds * 1e3);
  std::remove(ckpt);
  return 0;
}

int main(int argc, char** argv) {
  return examples::guarded_main("serve_quickstart",
                                [&] { return run_example(argc, argv); });
}
