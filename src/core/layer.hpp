// Layer base class and per-rank runtime state.
//
// A NetworkSpec is an immutable DAG of Layer objects shared by all rank
// threads; all mutable state (distributed tensors, parameters, halo plans)
// lives in per-rank LayerRt records owned by a Model. Layer methods are
// const and operate purely on the passed-in runtime state, which is what
// makes the SPMD execution thread-safe.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/progress.hpp"
#include "kernels/conv.hpp"
#include "support/rng.hpp"
#include "tensor/dist_tensor.hpp"
#include "tensor/halo.hpp"
#include "tensor/margins.hpp"
#include "tensor/shuffle.hpp"

namespace distconv::core {

class Model;
class Layer;

/// How batch-normalization statistics are aggregated (§III-B): purely local
/// to each rank, across the spatial decomposition of each sample group, or
/// across the whole mini-batch (matches single-device training exactly).
enum class BatchNormMode { kLocal, kSpatial, kGlobal };

/// Execution mode of a forward pass. Training computes batch statistics and
/// tracks running statistics; inference normalizes with the tracked running
/// statistics (every sample is independent, so zero-padded batch slots are
/// inert — the property the serving batcher relies on) and mutates no state.
enum class Mode { kTraining, kInference };

/// Default for ModelOptions::overlap_allreduce: on unless the
/// DC_OVERLAP_ALLREDUCE environment knob disables it ("0"/"false"/"off").
/// The default flipped to on once the progress engine kept the hidden
/// fraction high on few-core hosts (see README "Communication/computation
/// overlap"); CI gates the blocking path by setting it to 0 in one cell.
bool overlap_allreduce_from_env();

struct ModelOptions {
  bool overlap_halo = true;  ///< interior/boundary split to hide halo exchange
  /// Complete each layer's weight gradient with nonblocking collectives
  /// enqueued as backprop retires the layer (reverse layer order, one op on
  /// the wire at a time), instead of one blocking sweep after backprop —
  /// the executable form of the cost model's greedy allreduce overlap.
  /// Results are bitwise identical either way (fixed reduction order per
  /// op); the knob only moves when the communication happens. Default on.
  bool overlap_allreduce = overlap_allreduce_from_env();
  /// Who advances in-flight collective rounds while kernels run: a dedicated
  /// progress thread, parallel_for chunk-boundary hooks, or nobody (rounds
  /// then advance only at layer boundaries, the pre-engine behaviour).
  /// When not kOff the model also routes halo refreshes, redistribution
  /// shuffles and the channel-parallel forward's reduce-scatter through the
  /// engine so they overlap too. Results are bitwise identical in every
  /// mode. Default: DC_COMM_PROGRESS, "thread" when unset.
  comm::ProgressMode comm_progress = comm::progress_mode_from_env();
  /// Test-only: invoked after each layer's backward kernels retire (and its
  /// gradient completions are enqueued), with the layer index. The overlap
  /// stress tests inject artificial kernel time here to prove in-flight
  /// rounds complete before the layer boundary.
  std::function<void(int)> backward_layer_hook;
  float bn_epsilon = 1e-5f;
  float bn_momentum = 0.9f;
  /// Track batchnorm running statistics during training forwards (the EMA
  /// of the *globally aggregated* batch statistics that eval-mode forward
  /// normalizes with). Costs one world allreduce of 2C+1 doubles per BN
  /// layer per forward when the BN mode is not kGlobal (kGlobal shares the
  /// normalization allreduce). Disable for latency-critical training that
  /// will never serve — eval then falls back to batch statistics.
  bool bn_track_running_stats = true;
};

/// An activation tensor plus its halo machinery and freshness flag. The flag
/// tracks whether margins currently mirror neighbour data; producers clear
/// it when they overwrite the interior, consumers refresh on demand. The
/// flag transitions are identical on every rank (same program order), so
/// skip decisions stay collectively consistent.
struct ActTensor {
  DistTensor<float> t;
  std::unique_ptr<HaloExchange<float>> halo;  ///< null when margins are zero
  bool fresh = false;

  void init_halo() {
    if (!t.margins_h().all_zero() || !t.margins_w().all_zero()) {
      halo = std::make_unique<HaloExchange<float>>(&t);
    }
  }

  /// Blocking refresh (no overlap).
  void ensure_fresh() {
    if (fresh || halo == nullptr) return;
    halo->exchange();
    fresh = true;
  }

  void mark_stale() { fresh = false; }
};

/// Per-layer scratch (argmax tensors, saved BN statistics, ...).
struct LayerScratch {
  virtual ~LayerScratch() = default;
};

/// Per-rank, per-layer runtime state.
struct LayerRt {
  ProcessGrid grid;

  ActTensor y;   ///< output activations (margins: consumers' forward stencils)
  /// Error wrt output; empty when the layer does not need dy. Margins (this
  /// layer's transpose stencil) only when its dx is live: backward-data is
  /// their sole reader.
  ActTensor dy;

  /// One port per parent edge.
  struct InputPort {
    int parent = -1;
    ActTensor* read = nullptr;  ///< tensor this layer reads (alias or staging)
    // Set when the parent's grid differs from ours (bwd_* only on live ports):
    std::unique_ptr<ActTensor> staging;          ///< forward-shuffled input copy
    std::unique_ptr<Shuffler<float>> fwd_shuffle;
    std::unique_ptr<DistTensor<float>> bwd_staging;  ///< dx in parent's grid
    std::unique_ptr<Shuffler<float>> bwd_shuffle;
    /// Gradient this layer produces wrt this input (this layer's grid);
    /// empty when the port's dx is dead (NetworkSpec::dx_live).
    DistTensor<float> dx;
    /// Engine tickets of in-flight shuffle ops for this edge (0 = none):
    /// the forward shuffle pre-posted when the parent finished computing,
    /// and the backward shuffle posted when this layer's dx retired.
    std::uint64_t pending_fwd_shuffle = 0;
    std::uint64_t pending_bwd_shuffle = 0;
  };
  std::vector<InputPort> inputs;

  // Replicated parameters (identical on every rank) and their gradients.
  std::vector<Tensor<float>> params, grads, velocity;

  /// Replicated non-trainable state (batchnorm running statistics). Updated
  /// only by training-mode forward passes, never touched by sgd_step or the
  /// gradient allreduce, and serialized by checkpoint format v2.
  std::vector<Tensor<float>> buffers;

  std::unique_ptr<LayerScratch> scratch;

  Shape4 out_shape;                 ///< global output shape
  std::vector<Shape4> in_shapes;    ///< global input shapes
};

class Layer {
 public:
  Layer(std::string name, std::vector<int> parents)
      : name_(std::move(name)), parents_(std::move(parents)) {}
  virtual ~Layer() = default;

  const std::string& name() const { return name_; }
  const std::vector<int>& parents() const { return parents_; }

  /// Global output shape from global input shapes.
  virtual Shape4 infer_shape(const std::vector<Shape4>& in) const = 0;

  /// Forward stencil geometry (h and w identical; K=1,S=1,P=0 by default).
  virtual StencilSpec stencil() const { return {}; }
  bool has_stencil() const {
    const auto s = stencil();
    return s.kernel != 1 || s.stride != 1 || s.pad != 0;
  }

  /// True when init_params() allocates trainable parameters — the seed of
  /// the gradient-liveness pass (NetworkSpec::needs_dy).
  virtual bool has_params() const { return false; }

  /// Allocate and initialize parameters into rt (weights are replicated, so
  /// init must be deterministic given the rng).
  virtual void init_params(LayerRt& rt, Rng& rng) const;

  /// (Re)create rt.buffers in their freshly-initialized state. Called by
  /// init_params implementations that own buffers, and by the checkpoint
  /// loader when restoring a v1 stream that predates buffer serialization.
  virtual void init_buffers(LayerRt& rt) const { rt.buffers.clear(); }

  /// Allocate per-layer scratch after tensors exist.
  virtual void init_scratch(Model& model, int index, LayerRt& rt) const;

  virtual void forward(Model& model, int index, LayerRt& rt) const = 0;
  virtual void backward(Model& model, int index, LayerRt& rt) const = 0;

 private:
  std::string name_;
  std::vector<int> parents_;
};

}  // namespace distconv::core
