// NetworkSpec: an immutable DAG of layers (§II-C3 "we think of a CNN as a
// directed acyclic graph"), plus a fluent builder.
//
// Layers must be added parents-first, so insertion order is a topological
// order; residual connections are expressed with AddLayer nodes carrying two
// parents.
#pragma once

#include <memory>
#include <vector>

#include "core/layer.hpp"
#include "kernels/pooling.hpp"

namespace distconv::core {

class NetworkSpec {
 public:
  /// Append a layer; all parents must already be present. Returns the index.
  int add(std::unique_ptr<Layer> layer);

  int size() const { return static_cast<int>(layers_.size()); }
  const Layer& layer(int i) const;

  /// Global output shape of every layer (index-aligned).
  std::vector<Shape4> infer_shapes() const;

  /// Children adjacency (index-aligned).
  std::vector<std::vector<int>> children() const;

  /// Gradient liveness, the single definition the runtime and the cost
  /// model share: layer `i` needs its error signal dL/dy iff it, or any
  /// ancestor, has trainable parameters. Nothing else reads dL/dy, so a
  /// layer that does not need it gets no dy buffer and no backward.
  bool needs_dy(int i) const;

  /// dL/dx of layer `i`'s input port `port` is live iff its parent needs dy;
  /// a dead port gets no dx, no backward shuffle, and is never computed.
  bool dx_live(int i, int port) const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<bool> needs_dy_;  ///< filled by add() (parents precede children)
};

/// Convenience builder. Methods return the new layer's index.
class NetworkBuilder {
 public:
  int input(const Shape4& shape, const std::string& name = "input");
  int conv(const std::string& name, int parent, int filters, int kernel,
           int stride = 1, int pad = -1 /* -1 → kernel/2 ("same") */,
           bool bias = false);
  int pool_max(const std::string& name, int parent, int kernel, int stride,
               int pad = 0);
  int pool_avg(const std::string& name, int parent, int kernel, int stride,
               int pad = 0);
  int batchnorm(const std::string& name, int parent,
                BatchNormMode mode = BatchNormMode::kGlobal);
  int relu(const std::string& name, int parent);
  int add(const std::string& name, int a, int b);
  int global_avg_pool(const std::string& name, int parent);
  int fully_connected(const std::string& name, int parent, int out_features,
                      bool bias = true);

  /// conv → batchnorm → relu block.
  int conv_bn_relu(const std::string& prefix, int parent, int filters, int kernel,
                   int stride = 1, BatchNormMode bn = BatchNormMode::kGlobal);

  NetworkSpec take() { return std::move(spec_); }
  NetworkSpec& spec() { return spec_; }

 private:
  NetworkSpec spec_;
};

}  // namespace distconv::core
