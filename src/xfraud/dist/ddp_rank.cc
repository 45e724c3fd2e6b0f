#include "xfraud/dist/ddp_rank.h"

#include <algorithm>
#include <string>
#include <utility>

#include "xfraud/common/check.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"
#include "xfraud/dist/partition.h"
#include "xfraud/graph/subgraph.h"
#include "xfraud/nn/ops.h"
#include "xfraud/nn/optim.h"
#include "xfraud/train/metrics.h"

namespace xfraud::dist {

namespace {

// Roots of the per-(epoch, rank) training streams and the eval stream.
constexpr uint64_t kDistSampleTag = 0x44495354ULL;  // "DIST"
constexpr uint64_t kDistEvalTag = 0x4456414CULL;    // "DVAL"

}  // namespace

DdpPartition PartitionRanks(const data::SimDataset& ds,
                            const DistributedOptions& options) {
  const graph::HeteroGraph& g = ds.graph;
  DdpPartition part;
  xfraud::Rng rng(options.train.seed * 0x2545F491ULL + 0xBEEF);
  const std::vector<int> worker_of =
      PartitionForWorkers(g, options.num_clusters, options.num_workers, &rng);
  part.nodes.resize(options.num_workers);
  int64_t cut = 0;
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    part.nodes[worker_of[v]].push_back(v);
    for (int64_t e = g.InDegreeBegin(v); e < g.InDegreeEnd(v); ++e) {
      cut += worker_of[g.neighbors()[e]] != worker_of[v];
    }
  }
  part.edge_cut_fraction =
      g.num_edges() > 0 ? static_cast<double>(cut) / g.num_edges() : 0.0;

  part.in_train.assign(g.num_nodes(), 0);
  for (int32_t v : ds.train_nodes) part.in_train[v] = 1;
  size_t max_train = 1;
  for (const std::vector<int32_t>& nodes : part.nodes) {
    part.partition_nodes.push_back(static_cast<int64_t>(nodes.size()));
    size_t train = 0;
    for (int32_t v : nodes) train += part.in_train[v];
    max_train = std::max(max_train, train);
  }
  const size_t batch = static_cast<size_t>(options.train.batch_size);
  part.steps_per_epoch = static_cast<int64_t>((max_train + batch - 1) / batch);
  return part;
}

DdpRank::DdpRank(const data::SimDataset& ds, const DdpPartition& partition,
                 int rank, const train::TrainOptions& train,
                 const core::GnnModel* model, const sample::Sampler* sampler)
    : rank_(rank),
      world_(static_cast<int>(partition.nodes.size())),
      steps_per_epoch_(partition.steps_per_epoch),
      train_(train),
      model_(model),
      optimizer_(model->Parameters(),
                 nn::AdamWOptions{.lr = train.lr,
                                  .weight_decay = train.weight_decay}),
      sampler_(sampler),
      rng_(train.seed + 1000 + static_cast<uint64_t>(rank)) {
  XF_CHECK(rank >= 0 && rank < world_);
  std::vector<int32_t> local_to_global;
  graph_ = graph::InducedGraph(ds.graph, partition.nodes[rank],
                               &local_to_global);
  for (size_t local = 0; local < local_to_global.size(); ++local) {
    if (partition.in_train[local_to_global[local]]) {
      order_.push_back(static_cast<int32_t>(local));
    }
  }
  rng_.Shuffle(&order_);
}

void DdpRank::PlanEpoch(int epoch, const kv::FeatureStore* features) {
  cost_ = RankEpochCost{};
  loader_ = nullptr;
  if (order_.empty()) return;
  std::vector<std::vector<int32_t>> plan;
  for (int64_t step = 0; step < steps_per_epoch_; ++step) {
    std::vector<int32_t> seeds;
    for (int b = 0; b < train_.batch_size; ++b) {
      if (cursor_ >= order_.size()) {
        cursor_ = 0;
        rng_.Shuffle(&order_);
      }
      seeds.push_back(order_[cursor_++]);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    plan.push_back(std::move(seeds));
  }
  loader_ = std::make_unique<sample::BatchLoader>(
      &graph_, sampler_, std::move(plan),
      xfraud::Rng::StreamSeed(
          xfraud::Rng::StreamSeed(train_.seed, kDistSampleTag),
          static_cast<uint64_t>(epoch) * world_ + rank_),
      sample::LoaderOptions{.num_workers = train_.num_sample_workers,
                            .prefetch_depth = train_.prefetch_depth,
                            .feature_store = features});
}

double DdpRank::Train(const sample::LoadedBatch& batch, bool zero_grad) {
  cost_.sample_seconds += batch.sample_seconds;
  WallTimer t;
  core::ForwardOptions fwd;
  fwd.training = true;
  fwd.rng = &rng_;
  nn::Var logits = model_->Forward(batch.batch, fwd);
  nn::Var loss = nn::CrossEntropy(logits, batch.batch.target_labels,
                                  train_.class_weights);
  if (zero_grad) optimizer_.ZeroGrad();
  loss.Backward();
  cost_.loss_sum += loss.item();
  ++cost_.steps;
  return t.ElapsedSeconds();
}

std::optional<sample::LoadedBatch> DdpRank::NextBatch() {
  if (loader_ == nullptr) return std::nullopt;
  std::optional<sample::LoadedBatch> batch = loader_->Next();
  if (!batch.has_value()) loader_ = nullptr;  // release sampler threads
  return batch;
}

void DdpRank::Step() {
  if (order_.empty()) {
    optimizer_.ZeroGrad();
    return;
  }
  std::optional<sample::LoadedBatch> loaded = NextBatch();
  XF_CHECK(loaded.has_value());
  cost_.compute_seconds += Train(*loaded, /*zero_grad=*/true);
}

double DdpRank::Absorb(const sample::LoadedBatch& batch) {
  return Train(batch, /*zero_grad=*/false);
}

void DdpRank::Update() {
  optimizer_.ClipGradNorm(train_.clip);
  optimizer_.Step();
}

void DdpRank::RestoreWalk(const Walk& walk) {
  rng_.SetState(walk.rng);
  cursor_ = walk.cursor;
  order_ = walk.order;
  loader_ = nullptr;
}

double ValidationAuc(const core::GnnModel& model, const data::SimDataset& ds,
                     const train::TrainOptions& train) {
  sample::SageSampler sampler(2, 12);
  sample::BatchLoader loader(
      &ds.graph, &sampler,
      sample::BatchLoader::MakeSeedBatches(ds.val_nodes, 640),
      xfraud::Rng::StreamSeed(train.seed, kDistEvalTag),
      sample::LoaderOptions{.num_workers = train.num_sample_workers,
                            .prefetch_depth = train.prefetch_depth});
  std::vector<double> scores;
  std::vector<int> labels;
  core::ForwardOptions fwd;
  while (auto loaded = loader.Next()) {
    std::vector<double> probs =
        train::FraudProbabilities(model.Forward(loaded->batch, fwd));
    scores.insert(scores.end(), probs.begin(), probs.end());
    labels.insert(labels.end(), loaded->batch.target_labels.begin(),
                  loaded->batch.target_labels.end());
  }
  return train::RocAuc(scores, labels);
}

void RecordEpoch(DistributedEpoch stats,
                 const std::vector<RankEpochCost>& ranks,
                 double measured_comm_seconds, double modeled_sync_seconds,
                 const train::TrainOptions& train, DistributedResult* result) {
  const bool pipelined = train.num_sample_workers > 0;
  double slowest = 0.0;
  for (const RankEpochCost& r : ranks) {
    const double sample = r.sample_seconds, compute = r.compute_seconds;
    slowest = std::max(slowest, pipelined ? std::max(sample, compute)
                                          : sample + compute);
    stats.max_worker_sample_seconds =
        std::max(stats.max_worker_sample_seconds, sample);
    stats.max_worker_compute_seconds =
        std::max(stats.max_worker_compute_seconds, compute);
  }
  if (measured_comm_seconds > 0.0) {
    stats.measured_comm_seconds = measured_comm_seconds;
  } else {
    stats.modeled_sync_seconds = modeled_sync_seconds;
  }
  stats.simulated_cluster_seconds = slowest + stats.sync_seconds();
  if (train.verbose) {
    XF_LOG(Info) << "dist(" << ranks.size() << ") epoch " << stats.epoch
                 << " loss " << stats.train_loss << " val_auc " << stats.val_auc
                 << " sim " << stats.simulated_cluster_seconds << "s";
  }
  result->history.push_back(stats);
}

bool StopEarly(double val_auc, int patience, double* best, int* stale) {
  if (val_auc > *best) {
    *best = val_auc;
    *stale = 0;
    return false;
  }
  return ++*stale >= patience;
}

void SetResultMeans(DistributedResult* result) {
  if (result->history.empty()) return;
  for (const DistributedEpoch& e : result->history) {
    result->mean_wall_epoch_seconds += e.wall_seconds;
    result->mean_simulated_epoch_seconds += e.simulated_cluster_seconds;
  }
  result->mean_wall_epoch_seconds /= result->history.size();
  result->mean_simulated_epoch_seconds /= result->history.size();
}

Status ValidateKillPlan(const fault::FaultPlan& plan, int world) {
  if (plan.kill_worker >= world) {
    return Status::InvalidArgument(
        "kill_worker=" + std::to_string(plan.kill_worker) +
        " names no rank of a " + std::to_string(world) + "-worker run");
  }
  if (plan.kill_worker >= 0 && world == 1) {
    return Status::InvalidArgument(
        "kill_worker needs at least 2 workers: a 1-worker run has no "
        "survivor to recover from");
  }
  return Status::OK();
}

}  // namespace xfraud::dist
