// Microbenchmarks of the autograd substrate (google-benchmark): the ops on
// the detector's critical path, forward and forward+backward, plus the
// before/after pairs that gate each nn::kernels fusion (blocked vs naive
// GEMM, fused vs composed linear and attention aggregate) and the taped vs
// tape-free detector forward (nn::NoGradScope). Useful for tracking
// regressions in the engine that every experiment sits on.
//
// XFRAUD_KERNEL_THREADS sets the kernel worker count (default 1; results
// are bit-identical at any value, only the timings move). The GEMM benches
// report wall-clock rates (UseRealTime): with worker threads the main
// thread's CPU time would leave out the workers' share.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <benchmark/benchmark.h>

#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/kernels.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/ops.h"
#include "xfraud/sample/sampler.h"

namespace xfraud::nn {
namespace {

void BM_MatMulForward(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  Var a(Tensor::Uniform(n, 64, 1.0f, &rng), false);
  Var b(Tensor::Uniform(64, 64, 1.0f, &rng), false);
  for (auto _ : state) {
    Var c = MatMul(a, b);
    benchmark::DoNotOptimize(c.value().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_MatMulForward)->Arg(256)->Arg(1024)->Arg(4096)->UseRealTime();

void BM_GemmReference(benchmark::State& state) {
  // The naive ikj GEMM the blocked kernel replaced — the "before" side of
  // the BM_MatMulForward gate, kept runnable in the same binary.
  int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Uniform(n, 64, 1.0f, &rng);
  Tensor b = Tensor::Uniform(64, 64, 1.0f, &rng);
  Tensor c(n, 64);
  for (auto _ : state) {
    kernels::reference::Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_GemmReference)->Arg(256)->Arg(1024)->Arg(4096)->UseRealTime();

// The backward products at the detector's shapes: {rows n, width d}, with
// the weight d x d. Each packed kernel is paired with its naive reference
// loop (the "before" side), and the accumulators are never reset, exactly
// like a gradient accumulating over steps.
void GemmBackwardArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {1024, 4096}) {
    for (int64_t d : {32, 64}) b->Args({n, d});
  }
  b->UseRealTime();
}

using GemmKernel = void (*)(const Tensor&, const Tensor&, Tensor*);

void RunGemmTransAAdd(benchmark::State& state, GemmKernel kernel) {
  // dB += Aᵀ·G: A [n,d], G [n,d], dB [d,d].
  int64_t n = state.range(0);
  int64_t d = state.range(1);
  Rng rng(9);
  Tensor a = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor g = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor db(d, d);
  for (auto _ : state) {
    kernel(a, g, &db);
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}

void RunGemmTransBAdd(benchmark::State& state, GemmKernel kernel) {
  // dA += G·Bᵀ: G [n,d], B [d,d], dA [n,d].
  int64_t n = state.range(0);
  int64_t d = state.range(1);
  Rng rng(10);
  Tensor g = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor b = Tensor::Uniform(d, d, 1.0f, &rng);
  Tensor da(n, d);
  for (auto _ : state) {
    kernel(g, b, &da);
    benchmark::DoNotOptimize(da.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}

void BM_GemmTransAAdd(benchmark::State& state) {
  RunGemmTransAAdd(state, kernels::GemmTransAAdd);
}
BENCHMARK(BM_GemmTransAAdd)->Apply(GemmBackwardArgs);

void BM_GemmTransAAddReference(benchmark::State& state) {
  RunGemmTransAAdd(state, kernels::reference::GemmTransAAdd);
}
BENCHMARK(BM_GemmTransAAddReference)->Apply(GemmBackwardArgs);

void BM_GemmTransBAdd(benchmark::State& state) {
  RunGemmTransBAdd(state, kernels::GemmTransBAdd);
}
BENCHMARK(BM_GemmTransBAdd)->Apply(GemmBackwardArgs);

void BM_GemmTransBAddReference(benchmark::State& state) {
  RunGemmTransBAdd(state, kernels::reference::GemmTransBAdd);
}
BENCHMARK(BM_GemmTransBAddReference)->Apply(GemmBackwardArgs);

void BM_MatMulTrain(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(2);
  Var a(Tensor::Uniform(n, 64, 1.0f, &rng), true);
  Var b(Tensor::Uniform(64, 64, 1.0f, &rng), true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Var loss = Sum(MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
  // Forward GEMM plus the two backward products, all n x 64 x 64 shaped.
  state.SetItemsProcessed(state.iterations() * 3 * n * 64 * 64);
}
BENCHMARK(BM_MatMulTrain)->Arg(256)->Arg(1024)->UseRealTime();

void BM_LinearFused(benchmark::State& state) {
  // Fused x·W + b + ReLU forward/backward...
  int64_t n = state.range(0);
  Rng rng(7);
  Linear lin(64, 64, &rng);
  Var x(Tensor::Uniform(n, 64, 1.0f, &rng), true);
  for (auto _ : state) {
    x.ZeroGrad();
    lin.ZeroGrad();
    Var loss = Sum(lin.Forward(x, kernels::Activation::kRelu));
    loss.Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_LinearFused)->Arg(256)->Arg(1024)->UseRealTime();

void BM_LinearComposed(benchmark::State& state) {
  // ...vs the composed MatMul + AddRowBroadcast + Relu chain it replaced.
  int64_t n = state.range(0);
  Rng rng(7);
  Linear lin(64, 64, &rng);
  Var x(Tensor::Uniform(n, 64, 1.0f, &rng), true);
  Var bias(Tensor(1, 64, 0.01f), true);
  for (auto _ : state) {
    x.ZeroGrad();
    lin.ZeroGrad();
    bias.ZeroGrad();
    Var loss =
        Sum(Relu(AddRowBroadcast(MatMul(x, lin.weight()), bias)));
    loss.Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_LinearComposed)->Arg(256)->Arg(1024)->UseRealTime();

void BM_AttentionAggregateFused(benchmark::State& state) {
  // Fused segment-softmax -> per-head weighting -> scatter-add...
  int64_t edges = state.range(0);
  int64_t nodes = edges / 2 + 1;
  const int64_t kHeads = 4;
  const int64_t kHeadDim = 16;
  Rng rng(8);
  Var scores(Tensor::Uniform(edges, kHeads, 1.0f, &rng), true);
  Var values(Tensor::Uniform(edges, kHeads * kHeadDim, 1.0f, &rng), true);
  std::vector<int32_t> dst(edges);
  for (auto& d : dst) d = static_cast<int32_t>(rng.NextBounded(nodes));
  for (auto _ : state) {
    scores.ZeroGrad();
    values.ZeroGrad();
    Var loss = Sum(AttentionAggregate(scores, values, dst, nodes, kHeadDim,
                                      /*dropout_p=*/0.0f, /*training=*/false,
                                      nullptr));
    loss.Backward();
    benchmark::DoNotOptimize(scores.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_AttentionAggregateFused)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AttentionAggregateComposed(benchmark::State& state) {
  // ...vs the composed SegmentSoftmax + per-head SliceCols/MulColBroadcast/
  // ConcatCols + ScatterAddRows chain it replaced in HeteroConv.
  int64_t edges = state.range(0);
  int64_t nodes = edges / 2 + 1;
  const int64_t kHeads = 4;
  const int64_t kHeadDim = 16;
  Rng rng(8);
  Var scores(Tensor::Uniform(edges, kHeads, 1.0f, &rng), true);
  Var values(Tensor::Uniform(edges, kHeads * kHeadDim, 1.0f, &rng), true);
  std::vector<int32_t> dst(edges);
  for (auto& d : dst) d = static_cast<int32_t>(rng.NextBounded(nodes));
  for (auto _ : state) {
    scores.ZeroGrad();
    values.ZeroGrad();
    Var att = SegmentSoftmax(scores, dst, nodes);
    Var messages;
    for (int64_t h = 0; h < kHeads; ++h) {
      Var v_h = SliceCols(values, h * kHeadDim, kHeadDim);
      Var att_h = SliceCols(att, h, 1);
      Var msg_h = MulColBroadcast(v_h, att_h);
      messages = messages.defined() ? ConcatCols(messages, msg_h) : msg_h;
    }
    Var loss = Sum(ScatterAddRows(messages, dst, nodes));
    loss.Backward();
    benchmark::DoNotOptimize(scores.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_AttentionAggregateComposed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SegmentSoftmax(benchmark::State& state) {
  int64_t edges = state.range(0);
  Rng rng(3);
  Var scores(Tensor::Uniform(edges, 4, 1.0f, &rng), false);
  std::vector<int32_t> segments(edges);
  int64_t num_segments = edges / 3 + 1;
  for (int64_t e = 0; e < edges; ++e) {
    segments[e] = static_cast<int32_t>(rng.NextBounded(num_segments));
  }
  for (auto _ : state) {
    Var att = SegmentSoftmax(scores, segments, num_segments);
    benchmark::DoNotOptimize(att.value().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ScatterGather(benchmark::State& state) {
  int64_t edges = state.range(0);
  int64_t nodes = edges / 2 + 1;
  Rng rng(4);
  Var h(Tensor::Uniform(nodes, 32, 1.0f, &rng), false);
  std::vector<int32_t> src(edges), dst(edges);
  for (int64_t e = 0; e < edges; ++e) {
    src[e] = static_cast<int32_t>(rng.NextBounded(nodes));
    dst[e] = static_cast<int32_t>(rng.NextBounded(nodes));
  }
  for (auto _ : state) {
    Var agg = ScatterAddRows(IndexRows(h, src), dst, nodes);
    benchmark::DoNotOptimize(agg.value().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_ScatterGather)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MlpTrainStep(benchmark::State& state) {
  int64_t batch = state.range(0);
  Rng rng(5);
  Mlp mlp(96, 32, 2, 0.2f, &rng);
  Var x(Tensor::Uniform(batch, 96, 1.0f, &rng), false);
  std::vector<int> labels(batch);
  for (auto& l : labels) l = rng.NextBernoulli(0.05);
  for (auto _ : state) {
    mlp.ZeroGrad();
    Var loss = CrossEntropy(mlp.Forward(x, true, &rng), labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpTrainStep)->Arg(256)->Arg(1024);

void BM_LayerNormForward(benchmark::State& state) {
  int64_t rows = state.range(0);
  Rng rng(6);
  LayerNormModule norm(64);
  Var x(Tensor::Uniform(rows, 64, 1.0f, &rng), false);
  for (auto _ : state) {
    Var y = norm.Forward(x);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_LayerNormForward)->Arg(1024)->Arg(8192);

/// One detector+ inference batch on sim-small: 640 target transactions
/// with their 2-hop SageSampler neighbourhood (fanout 12), and a detector
/// at the default config. Built once, on first use.
struct DetectorBatch {
  Rng rng{1};
  data::SimDataset ds = data::TransactionGenerator::Make(
      data::TransactionGenerator::SimSmall(), "sim-small");
  core::XFraudDetector model{
      core::DetectorConfig{.feature_dim = ds.graph.feature_dim()}, &rng};
  sample::MiniBatch batch;

  DetectorBatch() {
    std::vector<int32_t> seeds(
        ds.test_nodes.begin(),
        ds.test_nodes.begin() + std::min<size_t>(640, ds.test_nodes.size()));
    batch = sample::SageSampler(2, 12).SampleBatch(ds.graph, seeds, &rng);
  }

  static const DetectorBatch& Get() {
    static const DetectorBatch instance;
    return instance;
  }
};

/// Inference forward with the tape kept: a constant features_override is
/// not pure inference, so every op records parents and a closure.
void BM_DetectorForwardTape(benchmark::State& state) {
  const DetectorBatch& b = DetectorBatch::Get();
  Var features = Constant(b.batch.features);
  core::ForwardOptions opts;
  opts.features_override = &features;
  for (auto _ : state) {
    Var logits = b.model.Forward(b.batch, opts);
    benchmark::DoNotOptimize(logits.value().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(b.batch.target_locals.size()));
}
BENCHMARK(BM_DetectorForwardTape)->UseRealTime();

/// The same forward as pure inference: GnnModel::Forward opens a
/// NoGradScope, so no op keeps parents, a closure or an index copy.
void BM_DetectorForwardNoGrad(benchmark::State& state) {
  const DetectorBatch& b = DetectorBatch::Get();
  for (auto _ : state) {
    Var logits = b.model.Forward(b.batch, core::ForwardOptions{});
    benchmark::DoNotOptimize(logits.value().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(b.batch.target_locals.size()));
}
BENCHMARK(BM_DetectorForwardNoGrad)->UseRealTime();

}  // namespace
}  // namespace xfraud::nn

int main(int argc, char** argv) {
  const char* threads = std::getenv("XFRAUD_KERNEL_THREADS");
  if (threads != nullptr) {
    xfraud::nn::kernels::SetNumThreads(std::atoi(threads));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
