#include <gtest/gtest.h>

#include "xfraud/data/generator.h"
#include "xfraud/data/prefilter.h"

namespace xfraud::data {
namespace {

using graph::TransactionRecord;

// Transaction "t<index>"; every record shares the same entities.
TransactionRecord Record(int index, int8_t label,
                         std::vector<float> features) {
  std::string id = "t";
  id += std::to_string(index);
  return {.txn_id = std::move(id),
          .buyer_id = "b",
          .email = "e",
          .payment_token = "p",
          .shipping_address = "a",
          .features = std::move(features),
          .label = label};
}

TEST(RuleTest, FiresOnThreshold) {
  Rule rule;
  rule.dim = 1;
  rule.threshold = 0.5f;
  rule.greater = true;
  EXPECT_TRUE(rule.Fires({0.0f, 0.6f}));
  EXPECT_TRUE(rule.Fires({0.0f, 0.5f}));
  EXPECT_FALSE(rule.Fires({0.9f, 0.4f}));
  rule.greater = false;
  EXPECT_TRUE(rule.Fires({0.0f, 0.4f}));
  EXPECT_FALSE(rule.Fires({0.0f, 0.6f}));
}

TEST(RuleTest, ToStringMentionsDimensionAndDirection) {
  Rule rule;
  rule.dim = 3;
  rule.threshold = 1.25f;
  rule.greater = true;
  std::string text = rule.ToString();
  EXPECT_NE(text.find("feature[3]"), std::string::npos);
  EXPECT_NE(text.find(">="), std::string::npos);
}

TEST(RuleFilterTest, FindsSeparatingRule) {
  // Feature 0 separates perfectly: fraud >= 1.0, benign <= 0.0.
  std::vector<TransactionRecord> records;
  for (int i = 0; i < 200; ++i) {
    bool fraud = i % 20 == 0;
    records.push_back(
        Record(i, fraud ? graph::kLabelFraud : graph::kLabelBenign,
               {fraud ? 1.0f : 0.0f, 0.5f}));
  }
  RuleFilter filter = RuleFilter::Fit(records, {});
  ASSERT_FALSE(filter.rules().empty());
  // All frauds kept, most benign dropped.
  int kept_fraud = 0, kept_benign = 0;
  for (const auto& r : records) {
    if (!filter.Keep(r)) continue;
    (r.label == graph::kLabelFraud ? kept_fraud : kept_benign) += 1;
  }
  EXPECT_EQ(kept_fraud, 10);
  EXPECT_EQ(kept_benign, 0);
}

TEST(RuleFilterTest, NoFraudMeansNoRules) {
  std::vector<TransactionRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(Record(i, graph::kLabelBenign, {static_cast<float>(i)}));
  }
  RuleFilter filter = RuleFilter::Fit(records, {});
  EXPECT_TRUE(filter.rules().empty());
}

TEST(RuleFilterTest, RespectsMaxRules) {
  Rng rng(3);
  std::vector<TransactionRecord> records;
  for (int i = 0; i < 400; ++i) {
    bool fraud = rng.NextBernoulli(0.1);
    std::vector<float> f(6);
    for (auto& x : f) x = static_cast<float>(rng.NextGaussian());
    // Several weakly informative dims.
    if (fraud) {
      for (int d = 0; d < 3; ++d) f[d] += 1.0f;
    }
    records.push_back(Record(
        i, fraud ? graph::kLabelFraud : graph::kLabelBenign, std::move(f)));
  }
  RuleFilter::Options options;
  options.max_rules = 2;
  RuleFilter filter = RuleFilter::Fit(records, options);
  EXPECT_LE(filter.rules().size(), 2u);
}

TEST(PipelineTest, StagesMonotoneAndLabelPreserving) {
  data::GeneratorConfig config = TransactionGenerator::SimSmall();
  config.num_buyers = 2000;
  config.num_fraud_rings = 5;
  config.num_stolen_cards = 10;
  config.feature_signal = 1.2;
  TransactionGenerator gen(config);
  auto stream = gen.GenerateRecords();
  RuleFilter filter = RuleFilter::Fit(stream, {});
  Rng rng(9);
  PipelineResult result = RunLabelPipeline(stream, filter, 0.1, &rng);

  ASSERT_EQ(result.stages.size(), 3u);
  // Each stage shrinks the stream and raises the fraud rate.
  EXPECT_GE(result.stages[0].transactions, result.stages[1].transactions);
  EXPECT_GE(result.stages[1].transactions, result.stages[2].transactions);
  EXPECT_GT(result.stages[1].fraud_rate, result.stages[0].fraud_rate);
  EXPECT_GT(result.stages[2].fraud_rate, result.stages[1].fraud_rate);
  // Stage 3 keeps every stage-2 fraud (sampling only drops benign).
  EXPECT_EQ(result.stages[2].frauds, result.stages[1].frauds);
  // Most fraud survives the rule filter.
  EXPECT_GT(static_cast<double>(result.stages[1].frauds) /
                result.stages[0].frauds,
            0.6);
  // graph_records = all stage-2 rows; unsampled ones are label-blanked.
  EXPECT_EQ(static_cast<int64_t>(result.graph_records.size()),
            result.stages[1].transactions);
  int64_t labeled = 0;
  for (const auto& r : result.graph_records) {
    labeled += r.label != graph::kLabelUnknown;
  }
  EXPECT_EQ(labeled, result.stages[2].transactions);
}

TEST(PipelineTest, KeepFractionOneKeepsEverything) {
  std::vector<TransactionRecord> stream;
  for (int i = 0; i < 100; ++i) {
    stream.push_back(Record(
        i, i % 10 == 0 ? graph::kLabelFraud : graph::kLabelBenign,
        {i % 10 == 0 ? 1.0f : 0.0f}));
  }
  RuleFilter empty_filter = RuleFilter::Fit({}, {});  // no rules: keep none
  // An empty filter keeps nothing; use a fitted one instead.
  RuleFilter filter = RuleFilter::Fit(stream, {});
  Rng rng(2);
  PipelineResult result = RunLabelPipeline(stream, filter, 1.0, &rng);
  EXPECT_EQ(result.stages[2].transactions, result.stages[1].transactions);
}

}  // namespace
}  // namespace xfraud::data
