#ifndef XFRAUD_DIST_DDP_RANK_H_
#define XFRAUD_DIST_DDP_RANK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "xfraud/dist/distributed.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/nn/optim.h"
#include "xfraud/sample/batch_loader.h"

namespace xfraud::dist {

// The DDP rank recipe (paper §3.3.2, §4.1) that both trainers run: the
// serial DistributedTrainer plays every rank, RunDistWorker is one rank of
// a socket cluster. Everything that decides a run's bits lives here once,
// so a fault-free socket run matches the in-process run by construction.

/// The κ-way PIC partition of a dataset; every rank derives the same one.
struct DdpPartition {
  std::vector<std::vector<int32_t>> nodes;  // global ids per rank, ascending
  std::vector<int8_t> in_train;             // by global node id
  int64_t steps_per_epoch = 0;  // the busiest rank's batches; others wrap
  double edge_cut_fraction = 0.0;  // directed edges crossing ranks
  std::vector<int64_t> partition_nodes;
};

/// PIC, then options.num_workers balanced groups (dist/partition.h).
DdpPartition PartitionRanks(const data::SimDataset& ds,
                            const DistributedOptions& options);

/// A rank's running cost over one epoch.
struct RankEpochCost {
  double sample_seconds = 0.0;
  double compute_seconds = 0.0;  // forward + backward
  double loss_sum = 0.0;
  int64_t steps = 0;
};

/// One rank: its model replica and AdamW optimizer, its shard (the induced
/// partition graph) and its walk over the shard's train seeds (shuffled by
/// Rng(seed + 1000 + rank); reshuffled on wrap).
class DdpRank {
 public:
  /// What must be restored to re-run an epoch exactly.
  struct Walk {
    xfraud::Rng::State rng;
    uint64_t cursor = 0;
    std::vector<int32_t> order;
  };

  /// `model` and `sampler` (not owned) must outlive the rank.
  DdpRank(const data::SimDataset& ds, const DdpPartition& partition,
          int rank, const train::TrainOptions& train,
          const core::GnnModel* model, const sample::Sampler* sampler);
  DdpRank(const DdpRank&) = delete;
  DdpRank& operator=(const DdpRank&) = delete;

  /// Plans `epoch` up front (cursor walk, in-batch dedup) into a BatchLoader
  /// on the (epoch, rank) stream and resets cost(). `features`, when set,
  /// serves the batches' feature rows.
  void PlanEpoch(int epoch, const kv::FeatureStore* features = nullptr);
  /// The next planned batch; nullopt once exhausted or never planned.
  std::optional<sample::LoadedBatch> NextBatch();
  /// Drops the epoch's loader and its sampler threads.
  void EndEpoch() { loader_ = nullptr; }

  /// This step's gradient from the next planned batch: training forward
  /// (dropout draws from the walk's rng), class-weighted CrossEntropy,
  /// ZeroGrad, Backward. A rank without train seeds has a zero gradient.
  void Step();
  /// Elastic recovery: the same on another rank's batch, without the
  /// ZeroGrad, so it accumulates onto this step's gradient. Returns its
  /// compute seconds (sample time and loss are charged to cost()).
  double Absorb(const sample::LoadedBatch& batch);
  /// Applies the (all-reduced) gradient: clip, then the AdamW step.
  void Update();

  Walk walk() const { return {rng_.GetState(), cursor_, order_}; }
  /// Rewinds to a saved walk and drops any planned epoch.
  void RestoreWalk(const Walk& walk);

  const graph::HeteroGraph& graph() const { return graph_; }
  const RankEpochCost& cost() const { return cost_; }
  nn::AdamW& optimizer() { return optimizer_; }

 private:
  double Train(const sample::LoadedBatch& batch, bool zero_grad);

  int rank_;
  int world_;
  int64_t steps_per_epoch_;
  train::TrainOptions train_;
  const core::GnnModel* model_;
  nn::AdamW optimizer_;
  const sample::Sampler* sampler_;
  graph::HeteroGraph graph_;
  std::vector<int32_t> order_;
  xfraud::Rng rng_;
  uint64_t cursor_ = 0;
  std::unique_ptr<sample::BatchLoader> loader_;
  RankEpochCost cost_;
};

/// Rank 0's validation AUC on the full graph: SageSampler(2, 12) over
/// 640-seed batches of ds.val_nodes on the run's eval stream.
double ValidationAuc(const core::GnnModel& model, const data::SimDataset& ds,
                     const train::TrainOptions& train);

/// Completes an epoch record with the cluster's costs and appends it to
/// result->history. A rank's epoch costs max(sample, compute) when its
/// sampling is pipelined, their sum otherwise; the cluster time is the
/// slowest rank's plus the sync cost — the measured comm when nonzero,
/// else the modeled sync, never both.
void RecordEpoch(DistributedEpoch stats,
                 const std::vector<RankEpochCost>& ranks,
                 double measured_comm_seconds, double modeled_sync_seconds,
                 const train::TrainOptions& train, DistributedResult* result);

/// True once `patience` epochs in a row failed to beat *best.
bool StopEarly(double val_auc, int patience, double* best, int* stale);

/// Sets the result's per-epoch means from its history.
void SetResultMeans(DistributedResult* result);

/// Refuses a kill plan no run can recover from: a kill of a rank outside
/// [0, world), or any kill in a one-worker run.
Status ValidateKillPlan(const fault::FaultPlan& plan, int world);

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_DDP_RANK_H_
