#include "xfraud/baselines/gat.h"

#include <cmath>

#include "xfraud/common/logging.h"

namespace xfraud::baselines {

using nn::Var;

GatModel::Layer::Layer(int64_t dim, xfraud::Rng* rng, float bound)
    : proj(dim, dim, rng),
      att_src(nn::Tensor::Uniform(1, dim, bound, rng), /*requires_grad=*/true),
      att_dst(nn::Tensor::Uniform(1, dim, bound, rng), /*requires_grad=*/true),
      norm(dim) {}

GatModel::GatModel(GatConfig config, xfraud::Rng* rng)
    : config_(config),
      head_dim_(config.hidden_dim / config.num_heads),
      input_proj_(config.feature_dim, config.hidden_dim, rng),
      head_(config.hidden_dim + config.feature_dim, config.hidden_dim, 2,
            config.dropout, rng) {
  XF_CHECK_EQ(head_dim_ * config.num_heads, config.hidden_dim);
  float bound = std::sqrt(6.0f / static_cast<float>(config.hidden_dim));
  layers_.reserve(config.num_layers);
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.emplace_back(config.hidden_dim, rng, bound);
  }
}

Var GatModel::ForwardLayer(const Layer& layer, const Var& h,
                           const sample::MiniBatch& batch,
                           const core::ForwardOptions& options) const {
  int64_t num_nodes = h.rows();
  if (batch.edge_src.empty()) {
    return nn::Relu(layer.norm.Forward(h));
  }
  Var z = layer.proj.Forward(h);
  // Per-node attention halves: e_ij = LeakyReLU(a_src·z_i + a_dst·z_j),
  // computed per head via the packed attention vectors.
  Var z_src = nn::IndexRows(z, batch.edge_src);
  Var z_dst = nn::IndexRows(z, batch.edge_dst);

  Var scores;
  for (int head = 0; head < config_.num_heads; ++head) {
    int64_t off = head * head_dim_;
    Var a_s = nn::SliceCols(layer.att_src, off, head_dim_);
    Var a_d = nn::SliceCols(layer.att_dst, off, head_dim_);
    // Row-wise dot with a broadcast [1,d_k] vector == matmul with transpose.
    Var s_src = nn::MatMul(nn::SliceCols(z_src, off, head_dim_),
                           nn::Transpose(a_s));
    Var s_dst = nn::MatMul(nn::SliceCols(z_dst, off, head_dim_),
                           nn::Transpose(a_d));
    Var score_h = nn::LeakyRelu(nn::Add(s_src, s_dst), config_.leaky_slope);
    scores = scores.defined() ? nn::ConcatCols(scores, score_h) : score_h;
  }
  Var att = nn::SegmentSoftmax(scores, batch.edge_dst, num_nodes);
  att = nn::Dropout(att, config_.dropout, options.training, options.rng);

  Var messages;
  for (int head = 0; head < config_.num_heads; ++head) {
    Var v_h = nn::SliceCols(z_src, head * head_dim_, head_dim_);
    Var msg_h = nn::MulColBroadcast(v_h, nn::SliceCols(att, head, 1));
    messages = messages.defined() ? nn::ConcatCols(messages, msg_h) : msg_h;
  }
  if (options.edge_mask != nullptr) {
    messages = nn::MulColBroadcast(messages, *options.edge_mask);
  }
  Var agg = nn::ScatterAddRows(messages, batch.edge_dst, num_nodes);
  Var out = config_.use_residual ? nn::Add(agg, h) : agg;
  return nn::Relu(layer.norm.Forward(out));
}

Var GatModel::ForwardImpl(const sample::MiniBatch& batch,
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

void GatModel::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParameter>* out) const {
  input_proj_.CollectParameters(prefix + "input_proj.", out);
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::string lp = prefix + "layer" + std::to_string(l) + ".";
    layers_[l].proj.CollectParameters(lp + "proj.", out);
    out->push_back({lp + "att_src", layers_[l].att_src});
    out->push_back({lp + "att_dst", layers_[l].att_dst});
    layers_[l].norm.CollectParameters(lp + "norm.", out);
  }
  head_.CollectParameters(prefix + "head.", out);
}

}  // namespace xfraud::baselines
