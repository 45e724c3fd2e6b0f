// Incremental retraining (paper Appendix H.5): production keeps the model
// fresh by fine-tuning on each period's newly labeled transactions. This
// example shows why — fraud rings burst in specific periods, so a stale
// model misses the patterns that appear after its training cut-off.

#include <iostream>

#include "xfraud/xfraud.h"

using namespace xfraud;

int main() {
  SetMinLogLevel(LogLevel::kWarning);

  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.num_buyers = 1200;
  config.num_periods = 4;
  config.num_fraud_rings = 14;
  config.num_stolen_cards = 24;
  data::TransactionGenerator generator(config);
  auto records = generator.GenerateRecords();

  // How the fraud mass moves across periods (ring bursts).
  std::vector<int> frauds(config.num_periods, 0), total(config.num_periods, 0);
  for (const auto& r : records) {
    ++total[r.period];
    frauds[r.period] += r.label == graph::kLabelFraud;
  }
  std::cout << "fraud rate per period:";
  for (int p = 0; p < config.num_periods; ++p) {
    std::cout << "  P" << p << "="
              << TablePrinter::Num(100.0 * frauds[p] / total[p], 1) << "%";
  }
  std::cout << "\n\n";

  train::IncrementalOptions options;
  options.detector.feature_dim = config.feature_dim;
  options.train.max_epochs = 8;
  options.train.class_weights = {1.0f, 4.0f};
  options.train.lr = 2e-3f;
  options.finetune_epochs = 3;
  train::IncrementalEvaluation evaluation(options);
  auto reports = evaluation.Run(records);

  TablePrinter table({"score period", "stale model", "fine-tuned model",
                      "full retrain"});
  for (const auto& r : reports) {
    const std::string period = std::to_string(r.period);
    table.AddRow({"P" + period,
                  TablePrinter::Num(r.stale_auc, 4),
                  TablePrinter::Num(r.incremental_auc, 4),
                  TablePrinter::Num(r.cumulative_auc, 4)});
  }
  table.Print(std::cout);
  std::cout << "\nthe stale model decays as new rings appear; periodic "
               "fine-tuning recovers most of the full-retrain quality at a "
               "fraction of the cost (paper Appendix H.5).\n";
  return 0;
}
