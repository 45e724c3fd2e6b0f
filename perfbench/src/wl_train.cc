// Workloads `train` and `ddp`: the detector trained for a fixed number of
// epochs on one thread (train::Trainer::Train), and the same task over two
// socket ranks forked through dist::RunProcessCluster. Both then run the
// paper's Table 3 inference measurement: the model forward per 640-
// transaction batch over the labeled transactions.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "xfraud/xfraud.h"
#include "xfraud/dist/launcher.h"
#include "xfraud/dist/partition.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/nn/serialize.h"

namespace perfbench {
namespace {

using namespace xfraud;  // NOLINT: benchmark-local brevity

// The detector and sampler at the program's defaults (DetectorConfig,
// ServiceOptions: 2 hops, fanout 12); batch 128 is the TrainOptions default,
// 103 steps per epoch on sim-large.
constexpr int kHops = 2;
constexpr int kFanout = 12;
constexpr int kBatch = 128;
constexpr int kEvalBatch = 640;
constexpr int kWorld = 2;
constexpr int kNumClusters = 128;

/// Sizes of `train` and `ddp`, fixed except at smoke size.
struct TrainSizes {
  const char* scale;
  int epochs;
  size_t infer_min_batches;
  int setup_reps;
  double auc_floor;
};

TrainSizes SizesFor(const RunContext& ctx, double auc_floor) {
  TrainSizes s;
  s.scale = ctx.smoke ? "tiny" : "large";
  s.epochs = ctx.smoke ? 1 : 3;
  s.infer_min_batches = ctx.smoke ? 4 : 100;
  s.setup_reps = ctx.smoke ? 1 : 3;
  s.auc_floor = ctx.smoke ? 0.5 : auc_floor;
  // No AUC exceeds 1, so this floor must fail the gate.
  if (ctx.corrupt_expected) s.auc_floor = std::nextafter(1.0, 2.0);
  PrintConfig(ctx.workload, "scale", s.scale, "epochs", s.epochs, "batch",
              kBatch, "eval_batch", kEvalBatch, "infer_min_batches",
              s.infer_min_batches, "hops", kHops, "fanout", kFanout,
              "setup_reps", s.setup_reps, "auc_floor", s.auc_floor);
  return s;
}

core::DetectorConfig DetectorFor(const graph::HeteroGraph& g) {
  core::DetectorConfig c;
  c.feature_dim = g.feature_dim();
  return c;
}

train::TrainOptions TrainOptionsFor(const TrainSizes& s, uint64_t seed) {
  train::TrainOptions o;
  o.max_epochs = s.epochs;
  o.patience = o.max_epochs;  // fixed-epoch protocol
  o.batch_size = kBatch;
  o.lr = 2e-3f;
  o.class_weights = {1.0f, 4.0f};
  o.seed = seed;
  return o;
}

/// The Table 3 measurement: forward passes over the labeled transactions
/// in batches of kEvalBatch. One untimed pass warms the allocator and the
/// caches; timed passes then repeat until at least `min_batches` were timed
/// and `until` has passed. Returns per-batch forward seconds, and adds the
/// minor page faults the timed forwards took to `*faults`.
std::vector<double> TimeInference(const core::GnnModel& model,
                                  const sample::Sampler& sampler,
                                  const data::SimDataset& ds,
                                  size_t min_batches, uint64_t seed,
                                  double until, int64_t* faults,
                                  Outcome* out) {
  const std::vector<int32_t> labeled = ds.graph.LabeledTransactions();
  const auto batches =
      sample::BatchLoader::MakeSeedBatches(labeled, kEvalBatch);
  std::vector<double> secs;
  for (uint64_t pass = 0;
       pass == 0 || secs.size() < min_batches || Now() < until; ++pass) {
    sample::BatchLoader loader(&ds.graph, &sampler, batches,
                               Rng::StreamSeed(seed, 1000 + pass), {});
    while (auto loaded = loader.Next()) {
      ++out->attempted;
      const int64_t faults_before = SelfMinorFaults();
      const double start = Now();
      nn::Var logits = model.Forward(loaded->batch, core::ForwardOptions{});
      if (pass > 0) {
        secs.push_back(Now() - start);
        *faults += SelfMinorFaults() - faults_before;
      }
      for (double prob : core::FraudProbabilities(logits)) {
        if (!std::isfinite(prob)) {
          ++out->failed;
          out->Fail("inference produced a non-finite score");
          return secs;
        }
      }
    }
  }
  return secs;
}

void ReportInference(const std::vector<double>& secs, int64_t faults,
                     Outcome* out) {
  const double p50 = Median(secs) * 1e3;
  const double p90 = Percentile(secs, 0.90) * 1e3;
  out->e2e["p50_ms"] = {p50, "ms"};
  out->e2e["tail_ms"] = {p90, "ms"};
  out->Report("infer_batch_ms", p50, "ms");
  out->Report("infer_batch_p90_ms", p90, "ms");
  out->Report("infer_batches", static_cast<double>(secs.size()), "count");
  // Page faults are the cost an allocator change would remove.
  out->Report("infer_faults_per_batch",
              static_cast<double>(faults) / static_cast<double>(secs.size()),
              "count");
}

void GateAuc(double auc, double floor, Outcome* out) {
  out->Report("test_auc", auc, "auc");
  if (!(auc >= floor)) {
    out->Fail("test_auc " + std::to_string(auc) + " below floor " +
              std::to_string(floor));
  }
}

/// Traced training loop: the benchmark drives the layers itself so each
/// public call gets its own span. Even steps run the decomposed step
/// (forward / loss+backward / clip+AdamW), odd steps Trainer::TrainStep.
void TracedTraining(train::Trainer* trainer, core::GnnModel* model,
                    const sample::Sampler& sampler,
                    const data::SimDataset& ds, const TrainSizes& sizes,
                    uint64_t seed, Outcome* out) {
  Rng order_rng(Rng::StreamSeed(seed, 0x5452));
  Rng dropout_rng(Rng::StreamSeed(seed, 0x44524f50));
  std::vector<int32_t> nodes = ds.train_nodes;
  std::vector<double> rows;
  nn::AdamW& optimizer = trainer->optimizer();
  const std::vector<float> weights = {1.0f, 4.0f};
  for (int epoch = 0; epoch < sizes.epochs; ++epoch) {
    order_rng.Shuffle(&nodes);
    sample::BatchLoader loader(
        &ds.graph, &sampler,
        sample::BatchLoader::MakeSeedBatches(nodes, kBatch),
        Rng::StreamSeed(seed, static_cast<uint64_t>(epoch)), {});
    for (int step = 0;; ++step) {
      std::optional<sample::LoadedBatch> loaded;
      {
        Span span("sample.next");
        loaded = loader.Next();
      }
      if (!loaded.has_value()) break;
      const sample::MiniBatch& batch = loaded->batch;
      TraceSample("sample.subgraph_nodes",
                  static_cast<double>(batch.num_nodes()));
      rows.push_back(static_cast<double>(batch.num_nodes()));
      ++out->attempted;
      if (step % 2 == 1) {
        Span span("train.step");
        trainer->TrainStep(batch);
        continue;
      }
      const AllocCounts before = ReadAllocCounts();
      SetAllocCounting(true);
      core::ForwardOptions fwd;
      fwd.training = true;
      fwd.rng = &dropout_rng;
      nn::Var logits;
      {
        Span span("core.forward");
        logits = model->Forward(batch, fwd);
      }
      {
        Span span("nn.backward");
        nn::Var loss = nn::CrossEntropy(logits, batch.target_labels, weights);
        optimizer.ZeroGrad();
        loss.Backward();
      }
      {
        Span span("nn.optim");
        optimizer.ClipGradNorm(train::TrainOptions{}.clip);
        optimizer.Step();
      }
      SetAllocCounting(false);
      const AllocCounts after = ReadAllocCounts();
      if (AllocCountingAvailable()) {
        TraceSample("nn.allocs_per_step",
                    static_cast<double>(after.count - before.count));
        TraceSample("nn.alloc_mb_per_step",
                    static_cast<double>(after.bytes - before.bytes) /
                        (1024.0 * 1024.0));
      }
    }
  }
  GemmShape shape;
  shape.rows = static_cast<int64_t>(Median(rows));
  shape.in = ds.graph.feature_dim();
  shape.out = core::DetectorConfig{}.hidden_dim;
  MeasureGemms(shape, 0.6, out);
}

/// Seed transactions one epoch trains across all ranks: each rank runs the
/// busiest partition's batch count of `batch`-seed batches (the same plan
/// dist/worker.cc derives from the same partition).
int64_t DdpSeedsPerEpoch(const data::SimDataset& ds, int world,
                         const train::TrainOptions& topt) {
  Rng prng(topt.seed * 0x2545F491ULL + 0xBEEF);
  const std::vector<int> worker_of =
      dist::PartitionForWorkers(ds.graph, kNumClusters, world, &prng);
  std::vector<int64_t> train_count(static_cast<size_t>(world), 0);
  for (int32_t v : ds.train_nodes) {
    ++train_count[static_cast<size_t>(worker_of[static_cast<size_t>(v)])];
  }
  int64_t max_train = 1;
  for (int64_t n : train_count) max_train = std::max(max_train, n);
  const int64_t steps = (max_train + topt.batch_size - 1) / topt.batch_size;
  return steps * topt.batch_size * world;
}

/// dist.allreduce_ms: AllReduceSum of the detector's parameter count over a
/// two-rank socket ring (one thread per rank).
void MeasureAllReduce(int64_t param_count, int reps, Outcome* out) {
  const std::string dir = "allreduce-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  Result<dist::Endpoint> ep = dist::ParseEndpoint("unix:" + dir + "/rdzv.sock");
  if (!ep.ok()) {
    out->Fail("allreduce endpoint: " + ep.status().ToString());
    return;
  }
  auto host = dist::RendezvousHost::Create(ep.value(), 2);
  if (!host.ok()) {
    out->Fail("allreduce rendezvous: " + host.status().ToString());
    return;
  }
  Status status[2];
  auto rank_main = [&](int rank) {
    dist::SocketCommOptions copt;
    copt.rank = rank;
    copt.world = 2;
    copt.rendezvous = ep.value();
    auto comm = dist::SocketCommunicator::Connect(
        copt, rank == 0 ? host.value().get() : nullptr);
    if (!comm.ok()) {
      status[rank] = comm.status();
      return;
    }
    std::vector<float> grad(static_cast<size_t>(param_count), 1.0f);
    for (int i = 0; i < reps && status[rank].ok(); ++i) {
      std::fill(grad.begin(), grad.end(), 1.0f);
      Span span(rank == 0 ? "dist.allreduce" : "dist.allreduce_peer");
      status[rank] = comm.value()->AllReduceSum(std::span<float>(grad));
    }
    if (status[rank].ok() && grad[0] != 2.0f) {
      status[rank] = Status::Corruption("allreduce sum is not 2");
    }
  };
  std::thread peer(rank_main, 1);
  rank_main(0);
  peer.join();
  for (const Status& s : status) {
    if (!s.ok()) out->Fail("allreduce: " + s.ToString());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

Outcome RunTrain(const RunContext& ctx) {
  const TrainSizes sizes = SizesFor(ctx, 0.93);
  Outcome out;
  struct State {
    data::SimDataset ds;
    std::unique_ptr<core::XFraudDetector> model;
    std::unique_ptr<sample::SageSampler> sampler;
    std::unique_ptr<train::Trainer> trainer;
  };
  double setup_s = 0.0;
  std::unique_ptr<State> state = SetUpRepeatedly(
      sizes.setup_reps,
      [&] {
        auto st = std::make_unique<State>();
        st->ds = data::TransactionGenerator::Make(
            ScaleConfig(sizes.scale, ctx.seed), "train");
        Rng model_rng(ctx.seed);
        st->model = std::make_unique<core::XFraudDetector>(
            DetectorFor(st->ds.graph), &model_rng);
        st->sampler = std::make_unique<sample::SageSampler>(kHops, kFanout);
        st->trainer = std::make_unique<train::Trainer>(
            st->model.get(), st->sampler.get(),
            TrainOptionsFor(sizes, ctx.seed));
        return st;
      },
      &setup_s);
  const data::SimDataset& ds = state->ds;
  core::XFraudDetector& model = *state->model;
  const sample::SageSampler& sampler = *state->sampler;
  train::Trainer& trainer = *state->trainer;

  const double start = Now();
  if (ctx.trace) {
    TracedTraining(&trainer, &model, sampler, ds, sizes, ctx.seed, &out);
  } else {
    const int64_t faults_before = SelfMinorFaults();
    train::TrainResult result = trainer.Train(ds);
    out.Report("train_faults_per_step",
               static_cast<double>(SelfMinorFaults() - faults_before) /
                   static_cast<double>(
                       std::max<int64_t>(1, result.total_batches)),
               "count");
    const double wall = Now() - start;
    if (!result.error.ok()) {
      ++out.failed;
      out.Fail("Train: " + result.error.ToString());
    }
    if (static_cast<int>(result.history.size()) != sizes.epochs) {
      out.Fail("Train ran " + std::to_string(result.history.size()) +
               " epochs");
    }
    out.attempted += result.total_batches;
    // Per epoch: the training pass only (EpochStats.seconds stops before
    // the validation pass); the median epoch sets the rate.
    std::vector<double> epoch_s;
    for (const train::EpochStats& e : result.history) {
      epoch_s.push_back(e.seconds);
    }
    const double rate =
        static_cast<double>(ds.train_nodes.size()) / Median(epoch_s);
    out.e2e["txn_per_s"] = {rate, "txn/s"};
    out.Report("train_txn_per_s", rate, "txn/s");
    out.Report("train_wall_s", wall, "s");
  }
  if (ctx.companion) return out;

  train::EvalResult test =
      trainer.Evaluate(ds.graph, ds.test_nodes, kEvalBatch);
  out.attempted +=
      (static_cast<int64_t>(ds.test_nodes.size()) + kEvalBatch - 1) /
      kEvalBatch;
  GateAuc(test.auc, sizes.auc_floor, &out);
  if (!ctx.trace) {
    int64_t faults = 0;
    const std::vector<double> secs =
        TimeInference(model, sampler, ds, sizes.infer_min_batches, ctx.seed,
                      start + ctx.seconds, &faults, &out);
    ReportInference(secs, faults, &out);
  }
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["peak_rss_mb"] = {SelfPeakRssMb(), "MiB"};
  out.Report("graph_nodes", static_cast<double>(ds.graph.num_nodes()),
             "count");
  out.Report("train_nodes", static_cast<double>(ds.train_nodes.size()),
             "count");
  return out;
}

Outcome RunDdp(const RunContext& ctx) {
  const TrainSizes sizes = SizesFor(ctx, 0.9);
  Outcome out;
  const train::TrainOptions topt = TrainOptionsFor(sizes, ctx.seed);
  // The repeatable part of set-up: data and the partition plan (the fork,
  // rendezvous and the ranks' own partitioning happen inside the cluster
  // call and are added once below).
  struct State {
    data::SimDataset ds;
    int64_t seeds_per_epoch = 0;
  };
  double pre_cluster_s = 0.0;
  std::unique_ptr<State> state = SetUpRepeatedly(
      sizes.setup_reps,
      [&] {
        auto st = std::make_unique<State>();
        st->ds = data::TransactionGenerator::Make(
            ScaleConfig(sizes.scale, ctx.seed), "ddp");
        st->seeds_per_epoch = DdpSeedsPerEpoch(st->ds, kWorld, topt);
        return st;
      },
      &pre_cluster_s);
  const data::SimDataset& ds = state->ds;
  const int64_t seeds_per_epoch = state->seeds_per_epoch;
  dist::ProcessClusterOptions options;
  options.worker.world = kWorld;
  options.worker.detector = DetectorFor(ds.graph);
  options.worker.model_seed = ctx.seed;
  options.worker.dist.num_workers = kWorld;
  options.worker.dist.num_clusters = kNumClusters;
  options.worker.dist.train = topt;
  options.worker.checkpoint_dir = "ddp-" + std::to_string(::getpid());
  options.worker.sampler_hops = kHops;
  options.worker.sampler_fanout = kFanout;
  options.overall_timeout_s = 150.0;
  std::filesystem::remove_all(options.worker.checkpoint_dir);

  const double start = Now();
  Result<dist::ProcessClusterReport> report = [&] {
    Span span("dist.cluster");
    return dist::RunProcessCluster(ds, options);
  }();
  const double cluster_wall = Now() - start;
  if (!report.ok()) {
    ++out.failed;
    out.Fail("RunProcessCluster: " + report.status().ToString());
    std::filesystem::remove_all(options.worker.checkpoint_dir);
    return out;
  }
  const dist::DistributedResult& result = report.value().result;
  if (static_cast<int>(result.history.size()) != sizes.epochs) {
    out.Fail("cluster ran " + std::to_string(result.history.size()) +
             " epochs");
  }
  if (report.value().restarts != 0) out.Fail("a rank restarted");
  double epoch_wall = 0.0;
  std::vector<double> epoch_s;
  for (const dist::DistributedEpoch& e : result.history) {
    epoch_wall += e.wall_seconds;
    epoch_s.push_back(e.wall_seconds);
    TraceSample("dist.comm_s_per_epoch", e.measured_comm_seconds);
    TraceSample("dist.compute_s_per_epoch", e.max_worker_compute_seconds);
    TraceSample("dist.sample_s_per_epoch", e.max_worker_sample_seconds);
  }
  // Rank 0's epoch wall (the ranks are in lockstep); the median epoch sets
  // the rate, summed over ranks.
  const double rate =
      static_cast<double>(seeds_per_epoch) / Median(epoch_s);
  out.attempted += seeds_per_epoch / kBatch *
                   static_cast<int64_t>(result.history.size());
  out.e2e["txn_per_s"] = {rate, "txn/s"};
  out.Report("train_txn_per_s", rate, "txn/s");
  out.Report("ddp_epoch_wall_s", epoch_wall, "s");

  // The trained replica, loaded from rank 0's final checkpoint.
  Rng model_rng(ctx.seed);
  core::XFraudDetector model(options.worker.detector, &model_rng);
  std::vector<nn::NamedParameter> params = model.Parameters();
  Status loaded = nn::LoadParameters(
      options.worker.checkpoint_dir + "/final_model.ckpt", &params);
  std::filesystem::remove_all(options.worker.checkpoint_dir);
  if (!loaded.ok()) {
    out.Fail("final model: " + loaded.ToString());
    return out;
  }
  if (ctx.trace) {
    int64_t param_count = 0;
    for (const nn::NamedParameter& np : params) {
      param_count += np.var.value().size();
    }
    MeasureAllReduce(param_count, ctx.smoke ? 20 : 200, &out);
  }
  if (ctx.companion) return out;

  sample::SageSampler sampler(kHops, kFanout);
  train::Trainer evaluator(&model, &sampler, topt);
  train::EvalResult test =
      evaluator.Evaluate(ds.graph, ds.test_nodes, kEvalBatch);
  GateAuc(test.auc, sizes.auc_floor, &out);
  if (!ctx.trace) {
    int64_t faults = 0;
    const std::vector<double> secs =
        TimeInference(model, sampler, ds, sizes.infer_min_batches, ctx.seed,
                      start + ctx.seconds, &faults, &out);
    ReportInference(secs, faults, &out);
  }
  // Set-up is everything but the timed epochs: data, partition plan, fork,
  // rendezvous, and the ranks' own partitioning and final save.
  out.e2e["setup_s"] = {pre_cluster_s + cluster_wall - epoch_wall, "s"};
  out.e2e["peak_rss_mb"] = {SelfPeakRssMb() + ChildPeakRssMb(), "MiB"};
  return out;
}

}  // namespace perfbench
