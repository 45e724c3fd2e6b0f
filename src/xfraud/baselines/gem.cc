#include "xfraud/baselines/gem.h"

#include "xfraud/common/logging.h"
#include "xfraud/graph/hetero_graph.h"

namespace xfraud::baselines {

using nn::Var;

GemModel::Layer::Layer(int64_t dim, xfraud::Rng* rng) : self(dim, dim, rng),
                                                        norm(dim) {
  per_type.reserve(graph::kNumNodeTypes);
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    per_type.emplace_back(dim, dim, rng, /*with_bias=*/false);
  }
}

GemModel::GemModel(GemConfig config, xfraud::Rng* rng)
    : config_(config),
      input_proj_(config.feature_dim, config.hidden_dim, rng),
      head_(config.hidden_dim + config.feature_dim, config.hidden_dim, 2,
            config.dropout, rng) {
  layers_.reserve(config.num_layers);
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.emplace_back(config.hidden_dim, rng);
  }
}

Var GemModel::ForwardLayer(const Layer& layer, const Var& h,
                           const sample::MiniBatch& batch,
                           const core::ForwardOptions& options) const {
  int64_t num_nodes = h.rows();
  Var out = layer.self.Forward(h);
  if (!batch.edge_src.empty()) {
    // Per (target, source-type) mean normalization: count incoming edges of
    // each type, then scale each message by 1/count before scatter-adding.
    std::vector<std::vector<float>> counts(
        graph::kNumNodeTypes, std::vector<float>(num_nodes, 0.0f));
    std::vector<int32_t> src_type(batch.edge_src.size());
    for (size_t e = 0; e < batch.edge_src.size(); ++e) {
      src_type[e] = batch.node_types[batch.edge_src[e]];
      counts[src_type[e]][batch.edge_dst[e]] += 1.0f;
    }
    nn::Tensor inv_count(static_cast<int64_t>(batch.edge_src.size()), 1);
    for (size_t e = 0; e < batch.edge_src.size(); ++e) {
      inv_count.At(static_cast<int64_t>(e), 0) =
          1.0f / counts[src_type[e]][batch.edge_dst[e]];
    }

    Var gathered = nn::IndexRows(h, batch.edge_src);
    Var messages = nn::MulColBroadcast(gathered, nn::Constant(inv_count));
    if (options.edge_mask != nullptr) {
      messages = nn::MulColBroadcast(messages, *options.edge_mask);
    }
    // Σ_t W_t · mean_t: transform messages by the source type's weight and
    // aggregate; grouping by type keeps each W_t specific to its relation.
    Var typed = core::ApplyTypedLinear(layer.per_type, messages, src_type);
    out = nn::Add(out, nn::ScatterAddRows(typed, batch.edge_dst, num_nodes));
  }
  if (config_.use_residual) out = nn::Add(out, h);
  out = nn::Relu(layer.norm.Forward(out));
  return nn::Dropout(out, config_.dropout, options.training, options.rng);
}

Var GemModel::ForwardImpl(const sample::MiniBatch& batch,
                          const core::ForwardOptions& options) const {
  Var features = options.features_override != nullptr
                     ? *options.features_override
                     : nn::Constant(batch.features);
  Var h = input_proj_.Forward(features);
  for (const auto& layer : layers_) {
    h = ForwardLayer(layer, h, batch, options);
  }
  Var target_repr = nn::Tanh(nn::IndexRows(h, batch.target_locals));
  Var target_raw = nn::IndexRows(features, batch.target_locals);
  return head_.Forward(nn::ConcatCols(target_repr, target_raw),
                       options.training, options.rng);
}

void GemModel::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParameter>* out) const {
  input_proj_.CollectParameters(prefix + "input_proj.", out);
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::string lp = prefix + "layer" + std::to_string(l) + ".";
    layers_[l].self.CollectParameters(lp + "self.", out);
    for (int t = 0; t < graph::kNumNodeTypes; ++t) {
      layers_[l].per_type[t].CollectParameters(
          lp + "type_" + graph::NodeTypeName(static_cast<graph::NodeType>(t)) +
              ".",
          out);
    }
    layers_[l].norm.CollectParameters(lp + "norm.", out);
  }
  head_.CollectParameters(prefix + "head.", out);
}

}  // namespace xfraud::baselines
