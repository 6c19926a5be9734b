// Gradient liveness (NetworkSpec::needs_dy / dx_live): a layer needs dL/dy
// iff it or an ancestor has parameters, and an input port's dL/dx is live
// iff its parent needs dL/dy. These tests pin the liveness tables of small
// DAGs and of the paper models, check that the runtime allocates nothing for
// dead edges (no dy, dx, backward staging or backward shuffle), and that
// skipping the dead work leaves every parameter gradient unchanged:
//   * bitwise against a live-dx reference on the same grid — the same net
//     with an identity 1×1 conv in front of the first conv, so that conv's
//     dL/dx, dL/dy halo and backward shuffle are live and computed;
//   * within float tolerance of a single-rank oracle (partitioning changes
//     the accumulation order, so no grid is bitwise equal to one rank).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "models/models.hpp"

namespace distconv::core {
namespace {

std::vector<bool> needs_dy_table(const NetworkSpec& spec) {
  std::vector<bool> t;
  for (int i = 0; i < spec.size(); ++i) t.push_back(spec.needs_dy(i));
  return t;
}

std::vector<std::vector<bool>> dx_live_table(const NetworkSpec& spec) {
  std::vector<std::vector<bool>> t(spec.size());
  for (int i = 0; i < spec.size(); ++i) {
    for (std::size_t k = 0; k < spec.layer(i).parents().size(); ++k) {
      t[i].push_back(spec.dx_live(i, static_cast<int>(k)));
    }
  }
  return t;
}

using Table = std::vector<std::vector<bool>>;

TEST(GradLivenessTable, InputConv) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{2, 3, 8, 8});
  nb.conv("c", in, 4, 3);
  const NetworkSpec spec = nb.take();
  EXPECT_EQ(needs_dy_table(spec), (std::vector<bool>{false, true}));
  EXPECT_EQ(dx_live_table(spec), (Table{{}, {false}}));
}

TEST(GradLivenessTable, InputReluPoolConv) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{2, 3, 8, 8});
  const int r = nb.relu("r", in);
  const int p = nb.pool_max("p", r, 3, 2, 1);
  const int c = nb.conv("c", p, 4, 3);
  nb.conv("c2", c, 2, 3);
  const NetworkSpec spec = nb.take();
  EXPECT_EQ(needs_dy_table(spec),
            (std::vector<bool>{false, false, false, true, true}));
  EXPECT_EQ(dx_live_table(spec), (Table{{}, {false}, {false}, {false}, {true}}));
}

TEST(GradLivenessTable, AddJoinsInputWithConvBranch) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{2, 4, 8, 8});
  const int c = nb.conv("c", in, 4, 3);
  const int a = nb.add("a", in, c);
  nb.conv("head", a, 1, 1, 1, 0, /*bias=*/true);
  const NetworkSpec spec = nb.take();
  EXPECT_EQ(needs_dy_table(spec), (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(dx_live_table(spec), (Table{{}, {false}, {false, true}, {true}}));
}

TEST(GradLivenessTable, MeshAndResNetModels) {
  // The input is the only layer without a parameterized ancestor, and the
  // first conv is its only consumer: every other error signal is live.
  const NetworkSpec mesh = models::make_mesh_model_test(2);
  const NetworkSpec resnet = models::make_resnet_tiny(2);
  for (const NetworkSpec* spec : {&mesh, &resnet}) {
    int dead_ports = 0;
    for (int i = 0; i < spec->size(); ++i) {
      EXPECT_EQ(spec->needs_dy(i), i != 0) << spec->layer(i).name();
      const auto& parents = spec->layer(i).parents();
      for (std::size_t k = 0; k < parents.size(); ++k) {
        const bool live = spec->dx_live(i, static_cast<int>(k));
        EXPECT_EQ(live, parents[k] != 0) << spec->layer(i).name();
        dead_ports += live ? 0 : 1;
      }
    }
    EXPECT_EQ(dead_ports, 1);
    EXPECT_FALSE(spec->dx_live(1, 0));
    EXPECT_NE(dynamic_cast<const Conv2dLayer*>(&spec->layer(1)), nullptr);
  }
}

std::int64_t bytes_of(const DistTensor<float>& t) {
  return t.buffer().size() * static_cast<std::int64_t>(sizeof(float));
}

/// Dead buffers are empty, live ones are built over the full global shape
/// (a rank's local block may still be empty), and activation_bytes() counts
/// exactly the allocated ones.
void expect_only_live_buffers(const Model& model) {
  const NetworkSpec& spec = model.spec();
  std::int64_t allocated = 0;
  for (int i = 0; i < model.num_layers(); ++i) {
    SCOPED_TRACE(spec.layer(i).name());
    const LayerRt& rt = model.rt(i);
    allocated += bytes_of(rt.y.t);
    if (spec.needs_dy(i)) {
      EXPECT_EQ(rt.dy.t.global_shape(), rt.out_shape);
    } else {
      EXPECT_EQ(rt.dy.t.buffer().size(), 0);
      EXPECT_EQ(rt.dy.halo, nullptr);
    }
    allocated += bytes_of(rt.dy.t);
    for (std::size_t k = 0; k < rt.inputs.size(); ++k) {
      const auto& port = rt.inputs[k];
      if (port.staging != nullptr) allocated += bytes_of(port.staging->t);
      if (spec.dx_live(i, static_cast<int>(k))) {
        EXPECT_EQ(port.dx.global_shape(), rt.in_shapes[k]);
        EXPECT_EQ(port.bwd_shuffle != nullptr, port.fwd_shuffle != nullptr);
        EXPECT_EQ(port.bwd_staging != nullptr, port.fwd_shuffle != nullptr);
      } else {
        EXPECT_EQ(port.dx.buffer().size(), 0);
        EXPECT_EQ(port.bwd_shuffle, nullptr);
        EXPECT_EQ(port.bwd_staging, nullptr);
      }
      allocated += bytes_of(port.dx);
    }
  }
  EXPECT_EQ(model.activation_bytes(), allocated);
}

TEST(GradLivenessBuffers, BuiltByFirstTrainingForward) {
  std::vector<std::function<NetworkSpec()>> specs = {
      [] {
        NetworkBuilder nb;
        nb.conv("c", nb.input(Shape4{2, 3, 8, 8}), 4, 3);
        return nb.take();
      },
      [] {
        NetworkBuilder nb;
        const int in = nb.input(Shape4{2, 3, 8, 8});
        const int p = nb.pool_max("p", nb.relu("r", in), 3, 2, 1);
        nb.conv("c", p, 4, 3);
        return nb.take();
      },
      [] {
        NetworkBuilder nb;
        const int in = nb.input(Shape4{2, 4, 8, 8});
        nb.add("a", in, nb.conv("c", in, 4, 3));
        return nb.take();
      },
      [] { return models::make_mesh_model_test(2); },
      [] { return models::make_resnet_tiny(2); },
  };
  for (const auto& make : specs) {
    const NetworkSpec spec = make();
    comm::World world(2);
    world.run([&](comm::Comm& comm) {
      // Spatial for all but the input, so the first edge also crosses grids.
      Strategy strategy = Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 1});
      strategy.grids[0] = ProcessGrid{2, 1, 1, 1};
      Model model(spec, comm, strategy);
      // A model that has not trained holds no gradient buffer at all.
      std::int64_t forward_bytes = 0;
      for (int i = 0; i < model.num_layers(); ++i) {
        const LayerRt& rt = model.rt(i);
        EXPECT_EQ(rt.dy.t.buffer().size(), 0);
        forward_bytes += bytes_of(rt.y.t);
        for (const auto& port : rt.inputs) {
          EXPECT_EQ(port.dx.buffer().size(), 0);
          EXPECT_EQ(port.bwd_shuffle, nullptr);
          if (port.staging != nullptr) forward_bytes += bytes_of(port.staging->t);
        }
      }
      EXPECT_EQ(model.activation_bytes(), forward_bytes);
      model.forward(Mode::kInference);
      EXPECT_EQ(model.activation_bytes(), forward_bytes);
      // The first training forward builds exactly the live ones.
      model.forward();
      expect_only_live_buffers(model);
    });
  }
}

// ---------------------------------------------------------------------------
// Parameter gradients
// ---------------------------------------------------------------------------

/// Conv over the input, BN, max pool, a residual add, a biased head. With
/// `stem`, an extra 1×1 conv (set to the identity by the test) sits in front
/// of c1 so c1's dL/dx is live.
NetworkSpec grad_net(bool stem) {
  NetworkBuilder nb;
  int x = nb.input(Shape4{4, 4, 16, 16});
  if (stem) x = nb.conv("stem", x, 4, 1, 1, 0);
  const int c1 = nb.conv("c1", x, 8, 3);
  const int r1 = nb.relu("r1", nb.batchnorm("bn1", c1));
  const int p = nb.pool_max("pool", r1, 3, 2, 1);
  const int r2 = nb.relu("r2", nb.conv("c2", p, 8, 3));
  nb.conv("head", nb.add("res", p, r2), 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

Tensor<float> make_uniform(const Shape4& shape, std::uint64_t seed) {
  Tensor<float> t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

Tensor<float> make_targets(const Shape4& shape) {
  Tensor<float> t(shape);
  Rng rng(55);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.uniform() < 0.5 ? 0.0f : 1.0f;
  }
  return t;
}

/// forward + BCE + completing backward on fixed data.
void train_step(Model& model) {
  model.set_input(0, make_uniform(model.rt(0).out_shape, 99));
  model.forward();
  model.loss_bce(make_targets(model.rt(model.output_layer()).out_shape));
  model.backward();
}

/// Gradients of every parameterized layer, in layer order.
std::vector<Tensor<float>> grads_of(const Model& model) {
  std::vector<Tensor<float>> out;
  for (int i = 0; i < model.num_layers(); ++i) {
    for (const auto& g : model.rt(i).grads) out.push_back(g);
  }
  return out;
}

struct GridCase {
  const char* name;
  int ranks;
  /// Strategy of grad_net(false); the stem (index 1 of the reference) gets
  /// the input's grid.
  std::function<Strategy(int layers)> make;
};

Strategy with_stem(const Strategy& s) {
  Strategy out = s;
  out.grids.insert(out.grids.begin() + 1, s.grids[0]);
  return out;
}

const GridCase kGridCases[] = {
    {"sample", 2, [](int n) { return Strategy::sample_parallel(n, 2); }},
    {"spatial", 2,
     [](int n) { return Strategy::uniform(n, ProcessGrid{1, 1, 2, 1}); }},
    // c1 runs the channel/filter-parallel schedule (backward_channel).
    {"channel", 2, [](int n) { return Strategy::channel_parallel(n, 2, 2); }},
    {"hybrid", 4, [](int n) { return Strategy::hybrid(n, 4, 2); }},
    {"grid_change", 2,
     [](int n) {
       Strategy s = Strategy::uniform(n, ProcessGrid{1, 1, 2, 1});
       s.grids[0] = ProcessGrid{2, 1, 1, 1};
       return s;
     }},
};

TEST(GradLivenessGradients, BitwiseEqualToLiveDxReference) {
  const NetworkSpec spec = grad_net(false);
  const NetworkSpec ref_spec = grad_net(true);

  std::vector<Tensor<float>> oracle;
  {
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
      train_step(model);
      oracle = grads_of(model);
    });
  }
  // Every parameter receives a gradient: the references below run the same
  // liveness pass, so a predicate that drops a live edge must show here.
  for (std::size_t g = 0; g < oracle.size(); ++g) {
    float scale = 0.0f;
    for (std::int64_t e = 0; e < oracle[g].size(); ++e) {
      scale = std::max(scale, std::abs(oracle[g].data()[e]));
    }
    EXPECT_GT(scale, 0.0f) << "gradient " << g << " is identically zero";
  }

  for (const GridCase& c : kGridCases) {
    for (const auto mode : {comm::ProgressMode::kOff, comm::ProgressMode::kThread}) {
      SCOPED_TRACE(std::string(c.name) + " progress=" + comm::to_string(mode));
      ModelOptions opts;
      opts.comm_progress = mode;
      comm::World world(c.ranks);
      world.run([&](comm::Comm& comm) {
        const Strategy strategy = c.make(spec.size());
        Model model(spec, comm, strategy, 7, opts);
        Model ref(ref_spec, comm, with_stem(strategy), 7, opts);
        // Same weights for every shared layer; the stem is the identity.
        for (int i = 1; i < model.num_layers(); ++i) {
          ref.rt(i + 1).params = model.rt(i).params;
        }
        Tensor<float>& stem_w = ref.rt(1).params[0];  // (C, C, 1, 1)
        stem_w.zero();
        for (std::int64_t ch = 0; ch < stem_w.shape().n; ++ch) {
          stem_w.data()[ch * stem_w.shape().c + ch] = 1.0f;
        }
        train_step(model);
        train_step(ref);

        // c1's dL/dx is dead here and live in the reference.
        const auto& port = model.rt(1).inputs[0];
        const auto& ref_port = ref.rt(2).inputs[0];
        EXPECT_EQ(port.dx.buffer().size(), 0);
        EXPECT_GT(ref_port.dx.buffer().size(), 0);
        EXPECT_EQ(port.bwd_shuffle, nullptr);
        EXPECT_EQ(ref_port.bwd_shuffle != nullptr,
                  ref_port.fwd_shuffle != nullptr);
        if (std::string(c.name) == "grid_change") {
          EXPECT_NE(port.fwd_shuffle, nullptr);
          EXPECT_NE(ref_port.bwd_shuffle, nullptr);
        }
        expect_only_live_buffers(model);
        // The reference holds exactly the stem's y and dy, c1's dx and c1's
        // dy margins on top; the input's y differs only in which layer's
        // stencil margins it carries.
        const std::int64_t extra =
            bytes_of(ref.rt(1).y.t) + bytes_of(ref.rt(1).dy.t) +
            bytes_of(ref_port.dx) + bytes_of(ref.rt(2).dy.t) -
            bytes_of(model.rt(1).dy.t) + bytes_of(ref.rt(0).y.t) -
            bytes_of(model.rt(0).y.t);
        EXPECT_EQ(ref.activation_bytes() - model.activation_bytes(), extra);

        std::vector<Tensor<float>> got = grads_of(model);
        std::vector<Tensor<float>> want;
        for (int i = 2; i < ref.num_layers(); ++i) {
          for (const auto& g : ref.rt(i).grads) want.push_back(g);
        }
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t g = 0; g < got.size(); ++g) {
          ASSERT_EQ(got[g].shape(), want[g].shape());
          for (std::int64_t e = 0; e < got[g].size(); ++e) {
            ASSERT_EQ(got[g].data()[e], want[g].data()[e])
                << "gradient " << g << " diverges from the live-dx reference "
                << "at flat index " << e << " on rank " << comm.rank();
          }
          float scale = 0.0f;
          for (std::int64_t e = 0; e < oracle[g].size(); ++e) {
            scale = std::max(scale, std::abs(oracle[g].data()[e]));
          }
          for (std::int64_t e = 0; e < got[g].size(); ++e) {
            ASSERT_NEAR(got[g].data()[e], oracle[g].data()[e],
                        1e-4f * std::max(scale, 1e-6f))
                << "gradient " << g << " diverges from the single-rank oracle "
                << "at flat index " << e;
          }
        }
      });
    }
  }
}

}  // namespace
}  // namespace distconv::core
