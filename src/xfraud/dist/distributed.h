#ifndef XFRAUD_DIST_DISTRIBUTED_H_
#define XFRAUD_DIST_DISTRIBUTED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "xfraud/common/retry.h"
#include "xfraud/core/gnn_model.h"
#include "xfraud/data/generator.h"
#include "xfraud/dist/communicator.h"
#include "xfraud/sample/sampler.h"
#include "xfraud/train/trainer.h"

namespace xfraud::fault {
class FaultInjector;
}  // namespace xfraud::fault

namespace xfraud::dist {

/// What the cluster does when a worker dies mid-epoch (the fault model a
/// production DDP job needs; injected deterministically via
/// fault::FaultInjector for tests).
enum class FailureRecovery {
  /// Survivors absorb the dead worker's remaining batches this epoch
  /// (elastic, kappa-1 semantics); the dead replica re-syncs parameters and
  /// optimizer state from a survivor at the epoch boundary.
  kElastic,
  /// Roll every replica back to the epoch-start snapshot and re-run the
  /// epoch without the dead worker's failure (it "restarted").
  kRestartEpoch,
};

/// Options of the distributed-training simulation (paper §3.3, §4).
struct DistributedOptions {
  int num_workers = 8;    // kappa
  int num_clusters = 128;  // PIC subgraphs before grouping
  /// Shared training protocol. train.num_sample_workers /
  /// train.prefetch_depth configure each replica's BatchLoader pipeline
  /// (every replica prefetches batches from its partition with that many
  /// sampler threads).
  train::TrainOptions train;
  /// Modeled per-step all-reduce latency added to the simulated cluster
  /// epoch time (gradient exchange is not free on a real cluster).
  double sync_overhead_seconds = 0.002;
  /// Optional chaos source (not owned). Its plan's kill_worker@epoch:step
  /// kills that worker mid-epoch; with kv_backed_loaders it also injects
  /// KV faults into every worker's feature reads.
  fault::FaultInjector* fault_injector = nullptr;
  /// Recovery policy when fault_injector kills a worker.
  FailureRecovery recovery = FailureRecovery::kElastic;
  /// Serve each worker's batch features from a per-worker KV-backed
  /// FeatureStore built over its partition (the paper's §3.3.3 serving
  /// topology: one KV loader per worker; partitions use local node ids, so
  /// stores cannot be shared). Required for KV fault injection to reach the
  /// distributed path.
  bool kv_backed_loaders = false;
  /// Retry policy of every worker's feature reads (see common/retry.h).
  /// Defaults to a single attempt; raise max_attempts to ride out injected
  /// or real transient KV errors.
  RetryPolicy kv_retry;
  /// Collective backend, one endpoint per rank (communicators[w] must have
  /// rank() == w and size() == num_workers). Not owned. Empty means the
  /// trainer builds its own phased InProcessGroup, which reproduces the
  /// historical shared-memory semantics bit-identically.
  std::vector<Communicator*> communicators;
};

/// Per-epoch record of the distributed run.
struct DistributedEpoch {
  int epoch = 0;
  double train_loss = 0.0;
  double val_auc = 0.0;
  /// Measured wall-clock of this epoch (all workers ran on this machine).
  double wall_seconds = 0.0;
  /// Slowest worker's neighbourhood-sampling cost this epoch (measured in
  /// the BatchLoader, wherever it ran).
  double max_worker_sample_seconds = 0.0;
  /// Slowest worker's gradient-compute (forward+backward) cost this epoch.
  double max_worker_compute_seconds = 0.0;
  /// Sync cost of this epoch, split by provenance so the two are never
  /// summed: exactly one of the pair is nonzero. `modeled_sync_seconds` is
  /// the in-process model (sync_overhead_seconds × steps);
  /// `measured_comm_seconds` is the slowest rank's measured time inside
  /// collectives when the backend is a real transport
  /// (Communicator::comm_seconds() > 0, i.e. the socket ring).
  double modeled_sync_seconds = 0.0;
  double measured_comm_seconds = 0.0;
  /// The epoch's sync cost: measured when the backend measures, else the
  /// model.
  double sync_seconds() const {
    return measured_comm_seconds > 0.0 ? measured_comm_seconds
                                       : modeled_sync_seconds;
  }
  /// Simulated cluster wall-clock: max over workers of their measured
  /// epoch cost plus sync_seconds() — what a kappa-machine cluster
  /// would take, since workers compute concurrently there. A worker's
  /// epoch cost is sample+compute on the serial path, and
  /// max(sample, compute) when sampler workers pipeline batches ahead of
  /// the gradient step (train.num_sample_workers > 0), since sampling then
  /// overlaps compute. (The kappa workers outnumber the host's cores, so
  /// thread wall-clock would not show the paper's speedup; the per-worker
  /// costs are measured for real, only the overlap is modeled. See
  /// DESIGN.md §1.)
  double simulated_cluster_seconds = 0.0;
  /// Fault accounting: which worker died this epoch (-1 = none), how many
  /// of its batches survivors absorbed (elastic), whether the epoch was
  /// rolled back and re-run (restart), and what the recovery itself cost in
  /// wall-clock seconds (extra forward/backward on survivors + the rejoin
  /// parameter/optimizer sync, or the snapshot restore).
  int killed_worker = -1;
  int64_t redistributed_batches = 0;
  bool restarted = false;
  double recovery_seconds = 0.0;
};

struct DistributedResult {
  std::vector<DistributedEpoch> history;
  double best_val_auc = 0.0;
  double mean_wall_epoch_seconds = 0.0;
  double mean_simulated_epoch_seconds = 0.0;
  /// Node counts of each worker's partition (balance diagnostics).
  std::vector<int64_t> partition_nodes;
  /// Fraction of directed edges cut by the partitioning.
  double edge_cut_fraction = 0.0;
};

/// DistributedDataParallel simulation (paper §3.3.2): `num_workers` model
/// replicas with identical initial weights, each training on its own PIC
/// partition of the graph. Every step, each replica computes gradients on a
/// mini-batch drawn from its partition; gradients are averaged across
/// replicas (the DDP all-reduce) and the identical update is applied to
/// every replica, keeping them synchronized — exactly PyTorch DDP's
/// semantics. Because each worker only sees its partition's induced
/// subgraph, neighbourhoods are restrained, reproducing the paper's
/// quality/efficiency trade-off (§4.1: more machines, faster epochs, lower
/// AUC).
class DistributedTrainer {
 public:
  /// `replicas` must be identically-initialized models (same seed).
  DistributedTrainer(std::vector<core::GnnModel*> replicas,
                     const sample::Sampler* sampler,
                     DistributedOptions options);

  /// Partitions ds.graph, trains, and evaluates replica 0 against the
  /// global validation split each epoch.
  DistributedResult Train(const data::SimDataset& ds);

 private:
  std::vector<core::GnnModel*> replicas_;
  const sample::Sampler* sampler_;
  DistributedOptions options_;
};

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_DISTRIBUTED_H_
