// Mesh-tangling segmentation — the paper's motivating workload (§I, §VI).
//
// The real dataset is 18-channel 1024²/2048² hydrodynamics states with
// per-pixel "this mesh cell needs relaxing" labels. That data is not public,
// so data::MeshTanglingDataset builds a synthetic analogue exercising the
// same code path: smooth multi-channel fields (standing in for state
// variables and mesh-quality metrics) with labels marking regions where a
// synthetic cell-distortion metric crosses a threshold.
//
// A scaled-down mesh model (same 6-block topology) trains under pure spatial
// parallelism — the regime the paper needs for large samples, where a full
// sample never materializes on one rank — using the library's data loader,
// micro-batched trainer, distributed metrics, and checkpointing.
#include <cstdio>

#include "example_main.hpp"
#include "core/checkpoint.hpp"
#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "models/models.hpp"

using namespace distconv;

int run_example() {
  const int ranks = 4;
  const std::int64_t global_batch = 4, size = 256;
  const int micro_batches = 2;  // 2 micro-batches of 2 samples each

  data::MeshTanglingConfig dconfig;
  dconfig.size = size;
  dconfig.channels = 4;          // scaled from the real 18
  dconfig.label_downsample = 64;  // labels at the model's 2^6-downsampled resolution
  const data::MeshTanglingDataset dataset(dconfig);

  const core::NetworkSpec spec =
      models::make_mesh_model_test(global_batch / micro_batches, size);
  const auto shapes = spec.infer_shapes();
  std::printf("mesh model: %s state -> %s tangling logits, %d layers\n",
              shapes.front().str().c_str(), shapes.back().str().c_str(),
              spec.size());

  // Pure spatial parallelism: every sample is split 2x2 across all ranks, as
  // required when a sample is too large for one device.
  const core::Strategy strategy =
      core::Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2});

  // One fixed global batch (replicated synthetic data).
  Tensor<float> states(Shape4{global_batch, dconfig.channels, size, size});
  Tensor<float> tangled(Shape4{global_batch, 1, shapes.back().h,
                               shapes.back().w});
  dataset.batch(0, states, tangled);

  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, strategy, /*seed=*/5);
    core::Trainer trainer(
        model, core::TrainerOptions{kernels::SgdConfig{0.5f, 0.9f, 0.0f},
                                    micro_batches});
    double first = 0, last = 0;
    for (int step = 0; step < 25; ++step) {
      const double loss = trainer.step_bce(states, tangled);
      if (step == 0) first = loss;
      last = loss;
      if (comm.rank() == 0 && step % 5 == 0) {
        std::printf("step %2d  bce %.4f\n", step, loss);
      }
    }

    // Evaluate on the last micro-batch (already loaded) with distributed
    // metrics, then checkpoint.
    model.forward();
    Tensor<float> micro_tgt(model.rt(model.output_layer()).out_shape);
    Box4 src, dst;
    src.off[0] = global_batch - micro_tgt.shape().n;
    for (int d = 0; d < 4; ++d) src.ext[d] = micro_tgt.shape()[d];
    dst = src;
    dst.off[0] = 0;
    copy_box(tangled, src, micro_tgt, dst);
    const auto metrics =
        core::evaluate_segmentation(model, model.output_layer(), micro_tgt);
    core::save_checkpoint_file(model, "/tmp/mesh_tangling_ckpt.bin");

    if (comm.rank() == 0) {
      std::printf("loss %.4f -> %.4f\n", first, last);
      std::printf("pixel accuracy %.1f%%, IoU %.2f over %lld pixels\n",
                  100.0 * metrics.pixel_accuracy, metrics.iou,
                  static_cast<long long>(metrics.pixels));
      std::printf("checkpoint written to /tmp/mesh_tangling_ckpt.bin\n");
      std::printf("each rank held a %lldx%lld shard of every %lldx%lld "
                  "sample — the full sample never existed on one rank.\n",
                  static_cast<long long>(size / 2),
                  static_cast<long long>(size / 2),
                  static_cast<long long>(size), static_cast<long long>(size));
    }
  });
  return 0;
}

int main() { return examples::guarded_main("mesh_tangling", run_example); }
