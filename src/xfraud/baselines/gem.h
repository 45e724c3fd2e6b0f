#ifndef XFRAUD_BASELINES_GEM_H_
#define XFRAUD_BASELINES_GEM_H_

#include <string>
#include <vector>

#include "xfraud/core/gnn_model.h"
#include "xfraud/nn/modules.h"

namespace xfraud::baselines {

/// Hyperparameters for the GEM baseline.
struct GemConfig {
  int64_t feature_dim = 64;
  int64_t hidden_dim = 32;
  int num_layers = 2;
  float dropout = 0.2f;
  bool use_residual = true;
};

/// GEM baseline (Liu et al. 2018, "Heterogeneous graph neural networks for
/// malicious account detection"): a heterogeneous-GCN-style model that
/// aggregates the *mean* of each node-type's neighbourhood through a
/// type-specific weight matrix and sums the per-type aggregates with the
/// self state:
///
///   h_v^{l} = ReLU( W_self h_v^{l-1} + Σ_t W_t · mean_{u ∈ N_t(v)} h_u^{l-1} )
///
/// GEM knows the node types but has no attention — it cannot distinguish a
/// risky neighbour from a harmless one within the same type, which is the
/// capability gap to the xFraud detector (paper §3.2.1 "Comparison to GEM").
/// Its plain convolution also makes it the fastest model at inference, the
/// ordering Table 3 reports.
class GemModel : public core::GnnModel {
 public:
  GemModel(GemConfig config, xfraud::Rng* rng);

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParameter>* out) const override;

  std::string name() const override { return "gem"; }

 protected:
  nn::Var ForwardImpl(const sample::MiniBatch& batch,
                      const core::ForwardOptions& options) const override;

 private:
  struct Layer {
    nn::Linear self;
    std::vector<nn::Linear> per_type;  // one per source node type
    nn::LayerNormModule norm;
    Layer(int64_t dim, xfraud::Rng* rng);
  };

  nn::Var ForwardLayer(const Layer& layer, const nn::Var& h,
                       const sample::MiniBatch& batch,
                       const core::ForwardOptions& options) const;

  GemConfig config_;
  nn::Linear input_proj_;
  std::vector<Layer> layers_;
  nn::Mlp head_;
};

}  // namespace xfraud::baselines

#endif  // XFRAUD_BASELINES_GEM_H_
