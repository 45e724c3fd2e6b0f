// Tape-free inference: core::GnnModel::Forward runs every pure-inference
// call under an nn::NoGradScope. The logits must be bit-identical to a taped
// forward, carry no autograd node, and a scope on one thread must leave
// another thread's training tape alone.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/baselines/gat.h"
#include "xfraud/baselines/gem.h"
#include "xfraud/common/check.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/ops.h"
#include "xfraud/sample/sampler.h"

namespace xfraud {
namespace {

/// Tape reachable from a root: parent links and nodes holding a closure.
struct TapeSize {
  int parents = 0;
  int closures = 0;
};

TapeSize WalkTape(const nn::Var& root) {
  TapeSize size;
  std::vector<const nn::internal::VarImpl*> stack = {root.impl().get()};
  std::unordered_set<const nn::internal::VarImpl*> seen = {stack.back()};
  while (!stack.empty()) {
    const nn::internal::VarImpl* node = stack.back();
    stack.pop_back();
    if (node->backward_fn) ++size.closures;
    for (const auto& parent : node->parents) {
      ++size.parents;
      if (seen.insert(parent.get()).second) stack.push_back(parent.get());
    }
  }
  return size;
}

class NoGradModelTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 300;
    config.num_fraud_rings = 6;
    config.num_stolen_cards = 10;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "no-grad"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  static std::unique_ptr<core::GnnModel> Make(const std::string& kind,
                                              uint64_t seed) {
    Rng rng(seed);
    if (kind == "gat") {
      baselines::GatConfig c;
      c.feature_dim = ds_->graph.feature_dim();
      c.hidden_dim = 16;
      c.num_heads = 2;
      return std::make_unique<baselines::GatModel>(c, &rng);
    }
    if (kind == "gem") {
      baselines::GemConfig c;
      c.feature_dim = ds_->graph.feature_dim();
      c.hidden_dim = 16;
      return std::make_unique<baselines::GemModel>(c, &rng);
    }
    core::DetectorConfig c;
    c.feature_dim = ds_->graph.feature_dim();
    c.hidden_dim = 16;
    c.num_heads = 2;
    return std::make_unique<core::XFraudDetector>(c, &rng);
  }

  static sample::MiniBatch Batch() {
    sample::SageSampler sampler(2, 8);
    Rng rng(1);
    std::vector<int32_t> seeds(ds_->train_nodes.begin(),
                               ds_->train_nodes.begin() + 16);
    return sampler.SampleBatch(ds_->graph, seeds, &rng);
  }

  static data::SimDataset* ds_;
};

data::SimDataset* NoGradModelTest::ds_ = nullptr;

TEST_P(NoGradModelTest, InferenceLogitsAreBitwiseEqualToTapedLogits) {
  auto model = Make(GetParam(), 3);
  sample::MiniBatch batch = Batch();
  nn::Var inference = model->Forward(batch, core::ForwardOptions{});

  // A features_override (even a constant one) keeps the tape.
  nn::Var features = nn::Constant(batch.features);
  core::ForwardOptions taped_opts;
  taped_opts.features_override = &features;
  nn::Var taped = model->Forward(batch, taped_opts);

  EXPECT_FALSE(inference.requires_grad());
  EXPECT_TRUE(taped.requires_grad());
  EXPECT_TRUE(inference.value().BitwiseEqual(taped.value()));
}

TEST_P(NoGradModelTest, InferenceLogitsCarryNoTape) {
  auto model = Make(GetParam(), 4);
  sample::MiniBatch batch = Batch();
  nn::Var logits = model->Forward(batch, core::ForwardOptions{});
  TapeSize size = WalkTape(logits);
  EXPECT_EQ(size.parents, 0);
  EXPECT_EQ(size.closures, 0);

  // The same pass with the tape kept reaches every layer.
  nn::Var features = nn::Constant(batch.features);
  core::ForwardOptions taped_opts;
  taped_opts.features_override = &features;
  TapeSize taped = WalkTape(model->Forward(batch, taped_opts));
  EXPECT_GT(taped.parents, 10);
  EXPECT_GT(taped.closures, 10);

  // Backward from a tape-free root is a checked error, not a silent no-op.
  nn::Var loss = nn::CrossEntropy(logits, batch.target_labels);
  EXPECT_THROW(loss.Backward(), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllModels, NoGradModelTest,
                         ::testing::Values("detector", "gat", "gem"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(NoGradScopeTest, ScopesNest) {
  nn::Var w(nn::Tensor(2, 2, 0.5f), /*requires_grad=*/true);
  EXPECT_FALSE(nn::NoGradScope::Active());
  {
    nn::NoGradScope outer;
    {
      nn::NoGradScope inner;
      EXPECT_TRUE(nn::NoGradScope::Active());
      EXPECT_FALSE(nn::MatMul(w, w).requires_grad());
    }
    // Closing the inner scope leaves the outer one in force.
    EXPECT_TRUE(nn::NoGradScope::Active());
    EXPECT_FALSE(nn::MatMul(w, w).requires_grad());
  }
  EXPECT_FALSE(nn::NoGradScope::Active());
  nn::Var y = nn::MatMul(w, w);
  EXPECT_TRUE(y.requires_grad());
  EXPECT_EQ(WalkTape(y).parents, 2);  // w, once per input slot
}

TEST(FreezeScopeTest, FrozenInputsTakeNoGradient) {
  Rng rng(9);
  nn::Var x(nn::Tensor::Uniform(3, 4, 1.0f, &rng), /*requires_grad=*/true);
  nn::Var w(nn::Tensor::Uniform(4, 2, 1.0f, &rng), /*requires_grad=*/true);
  nn::Var reference_loss = nn::Sum(nn::MatMul(x, w));
  reference_loss.Backward();
  nn::Tensor reference_x_grad = x.grad();
  x.ZeroGrad();
  w.ZeroGrad();

  nn::Var loss;
  {
    nn::FreezeScope frozen({w});
    // An op whose only grad-requiring input is frozen is a constant.
    EXPECT_FALSE(nn::Scale(w, 2.0f).requires_grad());
    loss = nn::Sum(nn::MatMul(x, w));
  }
  EXPECT_TRUE(w.requires_grad());  // The flag itself is never touched.
  // Freezing was fixed when MatMul ran: Backward outside the scope still
  // leaves w alone and gives x the same gradient.
  loss.Backward();
  EXPECT_TRUE(x.grad().BitwiseEqual(reference_x_grad));
  EXPECT_EQ(w.grad().Norm(), 0.0);
}

TEST(NoGradScopeTest, ScopeOnOneThreadLeavesAnotherThreadsTapeIntact) {
  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.num_buyers = 200;
  config.num_fraud_rings = 4;
  config.num_stolen_cards = 8;
  data::SimDataset ds =
      data::TransactionGenerator::Make(config, "no-grad-mt");
  Rng init(5);
  core::DetectorConfig dc;
  dc.feature_dim = ds.graph.feature_dim();
  dc.hidden_dim = 16;
  dc.num_heads = 2;
  core::XFraudDetector model(dc, &init);
  sample::SageSampler sampler(2, 8);
  Rng sample_rng(2);
  std::vector<int32_t> seeds(ds.train_nodes.begin(),
                             ds.train_nodes.begin() + 16);
  const sample::MiniBatch batch =
      sampler.SampleBatch(ds.graph, seeds, &sample_rng);

  auto training_step = [&] {
    Rng dropout_rng(11);
    core::ForwardOptions opts;
    opts.training = true;
    opts.rng = &dropout_rng;
    nn::Var loss =
        nn::CrossEntropy(model.Forward(batch, opts), batch.target_labels);
    EXPECT_TRUE(loss.requires_grad());
    loss.Backward();
    std::vector<nn::Tensor> grads;
    for (auto& p : model.Parameters()) grads.push_back(p.var.grad());
    return grads;
  };
  model.ZeroGrad();
  const std::vector<nn::Tensor> reference = training_step();
  const nn::Tensor reference_logits =
      model.Forward(batch, core::ForwardOptions{}).value();
  model.ZeroGrad();

  std::atomic<bool> scoped{false};
  std::atomic<bool> done{false};
  std::vector<nn::Tensor> scored;
  std::thread scorer([&] {
    nn::NoGradScope no_grad;
    scoped.store(true);
    do {
      scored.push_back(model.Forward(batch, core::ForwardOptions{}).value());
    } while (!done.load());
  });
  while (!scoped.load()) std::this_thread::yield();
  const std::vector<nn::Tensor> concurrent = training_step();
  done.store(true);
  scorer.join();

  ASSERT_EQ(concurrent.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(concurrent[i].BitwiseEqual(reference[i]))
        << "parameter " << i;
  }
  ASSERT_FALSE(scored.empty());
  for (const nn::Tensor& logits : scored) {
    EXPECT_TRUE(logits.BitwiseEqual(reference_logits));
  }
}

}  // namespace
}  // namespace xfraud
