#include "xfraud/core/gnn_model.h"

#include "xfraud/common/logging.h"

namespace xfraud::core {

nn::Var GnnModel::Forward(const sample::MiniBatch& batch,
                          const ForwardOptions& options) const {
  if (options.training || options.edge_mask != nullptr ||
      options.features_override != nullptr) {
    return ForwardImpl(batch, options);
  }
  nn::NoGradScope no_grad;
  return ForwardImpl(batch, options);
}

nn::Var ApplyTypedLinear(const std::vector<nn::Linear>& linears,
                         const nn::Var& x,
                         const std::vector<int32_t>& types) {
  XF_CHECK_EQ(static_cast<size_t>(x.rows()), types.size());
  // Group rows by type; apply each type's linear to its group; scatter the
  // disjoint groups back into one output block.
  std::vector<std::vector<int32_t>> rows_by_type(linears.size());
  for (size_t r = 0; r < types.size(); ++r) {
    XF_CHECK_GE(types[r], 0);
    XF_CHECK_LT(static_cast<size_t>(types[r]), linears.size());
    rows_by_type[types[r]].push_back(static_cast<int32_t>(r));
  }
  nn::Var out;
  for (size_t t = 0; t < linears.size(); ++t) {
    if (rows_by_type[t].empty()) continue;
    nn::Var gathered = nn::IndexRows(x, rows_by_type[t]);
    nn::Var mapped = linears[t].Forward(gathered);
    nn::Var scattered = nn::ScatterAddRows(mapped, rows_by_type[t], x.rows());
    out = out.defined() ? nn::Add(out, scattered) : scattered;
  }
  XF_CHECK(out.defined()) << "typed linear over empty input";
  return out;
}

std::vector<double> FraudProbabilities(const nn::Var& logits) {
  nn::Var probs = nn::RowSoftmax(logits);
  std::vector<double> out(probs.rows());
  for (int64_t r = 0; r < probs.rows(); ++r) {
    out[r] = probs.value().At(r, 1);
  }
  return out;
}

}  // namespace xfraud::core
