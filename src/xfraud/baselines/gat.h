#ifndef XFRAUD_BASELINES_GAT_H_
#define XFRAUD_BASELINES_GAT_H_

#include <string>
#include <vector>

#include "xfraud/core/gnn_model.h"
#include "xfraud/nn/modules.h"

namespace xfraud::baselines {

/// Hyperparameters for the GAT baseline.
struct GatConfig {
  int64_t feature_dim = 64;
  int64_t hidden_dim = 32;
  int num_heads = 4;
  int num_layers = 2;
  float dropout = 0.2f;
  float leaky_slope = 0.2f;
  bool use_residual = true;
};

/// Graph Attention Network baseline (Velickovic et al.), as used in the
/// paper's Table 3. GAT treats the transaction graph as *homogeneous*: one
/// shared linear map and one additive attention per head, no node/edge type
/// information. Since linking entities carry no input features, GAT can only
/// separate them through learned states — the structural handicap that lets
/// the type-aware detector outperform it.
class GatModel : public core::GnnModel {
 public:
  GatModel(GatConfig config, xfraud::Rng* rng);

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParameter>* out) const override;

  std::string name() const override { return "gat"; }

 protected:
  nn::Var ForwardImpl(const sample::MiniBatch& batch,
                      const core::ForwardOptions& options) const override;

 private:
  struct Layer {
    nn::Linear proj;          // hidden -> hidden (all heads packed)
    nn::Var att_src;          // [1, hidden]: per-head d_k attention vectors
    nn::Var att_dst;          // [1, hidden]
    nn::LayerNormModule norm;
    Layer(int64_t dim, xfraud::Rng* rng, float bound);
  };

  nn::Var ForwardLayer(const Layer& layer, const nn::Var& h,
                       const sample::MiniBatch& batch,
                       const core::ForwardOptions& options) const;

  GatConfig config_;
  int64_t head_dim_;
  nn::Linear input_proj_;
  std::vector<Layer> layers_;
  nn::Mlp head_;
};

}  // namespace xfraud::baselines

#endif  // XFRAUD_BASELINES_GAT_H_
