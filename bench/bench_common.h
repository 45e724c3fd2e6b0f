#ifndef XFRAUD_BENCH_BENCH_COMMON_H_
#define XFRAUD_BENCH_BENCH_COMMON_H_

// Shared helpers for the reproduction benchmarks. Every bench binary prints
// the paper table/figure it regenerates, using the scaled-down simulated
// datasets (see DESIGN.md §1 for the substitution rationale and
// EXPERIMENTS.md for paper-vs-measured numbers).

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "xfraud/xfraud.h"

namespace xfraud::bench {

/// Paper seeds "A" and "B" (Table 7): two model-init/training seeds.
inline constexpr uint64_t kSeedA = 1001;
inline constexpr uint64_t kSeedB = 2002;

/// True when XFRAUD_BENCH_FAST=1: shrink epochs/datasets for smoke runs.
inline bool FastMode() {
  const char* env = std::getenv("XFRAUD_BENCH_FAST");
  return env != nullptr && std::string(env) == "1";
}

/// XFRAUD_SAMPLE_WORKERS overrides the benches' BatchLoader worker count
/// (default 0 = serial, keeping the timed sections free of thread
/// contention: the simulated workers exceed the host's cores, so overlap
/// is modeled; results are bit-identical at any setting).
inline int SampleWorkersFromEnv(int fallback = 0) {
  const char* env = std::getenv("XFRAUD_SAMPLE_WORKERS");
  return env != nullptr ? std::atoi(env) : fallback;
}

inline core::DetectorConfig DetectorConfigFor(const graph::HeteroGraph& g) {
  core::DetectorConfig c;
  c.feature_dim = g.feature_dim();
  c.hidden_dim = 32;
  c.num_heads = 4;
  c.num_layers = 2;
  c.dropout = 0.2f;
  return c;
}

inline std::unique_ptr<core::GnnModel> MakeModel(const std::string& name,
                                                 const graph::HeteroGraph& g,
                                                 uint64_t seed) {
  Rng rng(seed);
  if (name == "GAT") {
    baselines::GatConfig c;
    c.feature_dim = g.feature_dim();
    c.hidden_dim = 32;
    c.num_heads = 4;
    c.num_layers = 2;
    return std::make_unique<baselines::GatModel>(c, &rng);
  }
  if (name == "GEM") {
    baselines::GemConfig c;
    c.feature_dim = g.feature_dim();
    c.hidden_dim = 32;
    c.num_layers = 2;
    return std::make_unique<baselines::GemModel>(c, &rng);
  }
  return std::make_unique<core::XFraudDetector>(DetectorConfigFor(g), &rng);
}

/// Training protocol shared by the end-to-end benches: AdamW, clip 0.25,
/// fraud-upweighted CE (the paper trains on the imbalanced sampled sets).
inline train::TrainOptions BenchTrainOptions(uint64_t seed, int epochs) {
  train::TrainOptions opts;
  opts.max_epochs = epochs;
  opts.patience = epochs;  // fixed-epoch protocol like the paper's 128
  opts.batch_size = 256;
  opts.lr = 2e-3f;
  opts.clip = 0.25f;
  opts.class_weights = {1.0f, 4.0f};
  opts.seed = seed;
  opts.num_sample_workers = SampleWorkersFromEnv();
  return opts;
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::cout << "\n==== " << title << " ====\n"
            << "reproduces: " << paper << "\n\n";
}

/// Applies the XFRAUD_OBS env knob (0 disables all metric recording — the
/// baseline of the instrumentation-overhead comparison) and XFRAUD_TRACE=1
/// (prints ScopedSpan lines to stderr). Call at the top of a bench main.
inline void InitObsFromEnv() {
  const char* env = std::getenv("XFRAUD_OBS");
  if (env != nullptr && std::string(env) == "0") obs::SetEnabled(false);
  const char* trace = std::getenv("XFRAUD_TRACE");
  if (trace != nullptr && std::string(trace) == "1") {
    obs::SetTraceLogging(true);
  }
}

/// Prints the global registry as a table, and — when XFRAUD_METRICS_OUT is
/// set — writes the JSON snapshot there so BENCH_*.json entries can carry
/// the per-phase breakdown alongside the headline timings. Call at the end
/// of a bench's Run(); no-op when obs is disabled.
inline void EmitObsSnapshot() {
  if (!obs::IsEnabled()) return;
  std::cout << "\n-- observability registry snapshot (p50/p95/p99 are "
               "log-bucket estimates; see DESIGN.md §8) --\n";
  obs::Registry::Global().PrintTable(std::cout);
  const char* out = std::getenv("XFRAUD_METRICS_OUT");
  if (out != nullptr && *out != '\0') {
    Status s = obs::Registry::Global().WriteJsonFile(out);
    if (s.ok()) {
      std::cout << "wrote metrics snapshot to " << out << "\n";
    } else {
      std::cout << "metrics snapshot failed: " << s.ToString() << "\n";
    }
  }
}

}  // namespace xfraud::bench

#endif  // XFRAUD_BENCH_BENCH_COMMON_H_
