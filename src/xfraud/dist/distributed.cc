#include "xfraud/dist/distributed.h"

#include <algorithm>

#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"
#include "xfraud/dist/ddp_rank.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/faulty_kv.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/nn/optim.h"
#include "xfraud/obs/registry.h"
#include "xfraud/obs/trace.h"

namespace xfraud::dist {

DistributedTrainer::DistributedTrainer(std::vector<core::GnnModel*> replicas,
                                       const sample::Sampler* sampler,
                                       DistributedOptions options)
    : replicas_(std::move(replicas)),
      sampler_(sampler),
      options_(options) {
  XF_CHECK_EQ(replicas_.size(), static_cast<size_t>(options_.num_workers));
}

DistributedResult DistributedTrainer::Train(const data::SimDataset& ds) {
  const int kappa = options_.num_workers;
  DistributedResult result;

  // ---- Partition: PIC -> 128 clusters -> kappa balanced groups ----------
  const DdpPartition partition = PartitionRanks(ds, options_);
  result.partition_nodes = partition.partition_nodes;
  result.edge_cut_fraction = partition.edge_cut_fraction;

  // Each worker materializes its induced partition graph (its whole world).
  struct Worker {
    std::unique_ptr<DdpRank> ddp;
    // KV serving path (kv_backed_loaders): the worker's partition ingested
    // into its own store — partitions use local node ids, so stores cannot
    // be shared across workers — optionally fronted by a fault decorator.
    std::unique_ptr<kv::MemKvStore> kv;
    std::unique_ptr<fault::FaultyKvStore> faulty_kv;
    std::unique_ptr<kv::FeatureStore> features;
  };
  fault::FaultInjector* injector = options_.fault_injector;
  std::vector<Worker> workers(kappa);
  for (int w = 0; w < kappa; ++w) {
    workers[w].ddp = std::make_unique<DdpRank>(
        ds, partition, w, options_.train, replicas_[w], sampler_);
    if (options_.kv_backed_loaders) {
      workers[w].kv = std::make_unique<kv::MemKvStore>();
      // Ingest through the raw store — faults belong to the serving path,
      // not to the one-time bulk load of a frozen per-worker partition.
      kv::FeatureStore ingest(workers[w].kv.get());
      // xfraud-analyze: allow(ingest-bypass)
      Status ingested = ingest.Ingest(workers[w].ddp->graph());
      XF_CHECK(ingested.ok());
      kv::KvStore* serving = workers[w].kv.get();
      if (injector != nullptr) {
        workers[w].faulty_kv = std::make_unique<fault::FaultyKvStore>(
            workers[w].kv.get(), injector);
        serving = workers[w].faulty_kv.get();
      }
      workers[w].features = std::make_unique<kv::FeatureStore>(serving);
      workers[w].features->set_retry_policy(options_.kv_retry);
    }
  }

  std::vector<std::vector<nn::NamedParameter>> params(kappa);
  for (int w = 0; w < kappa; ++w) params[w] = replicas_[w]->Parameters();

  // Collective backend. With no injected communicators the trainer owns a
  // phased InProcessGroup: each rank's collective call deposits its buffer
  // and returns, and the last rank's call executes the operation — the
  // pattern a serial driver needs (a blocking collective would deadlock the
  // single thread playing every rank in turn).
  std::unique_ptr<InProcessGroup> owned_group;
  std::vector<Communicator*> comm = options_.communicators;
  if (comm.empty()) {
    owned_group = std::make_unique<InProcessGroup>(kappa);
    for (int w = 0; w < kappa; ++w) {
      comm.push_back(owned_group->communicator(w));
    }
  }
  XF_CHECK_EQ(comm.size(), static_cast<size_t>(kappa));
  for (int w = 0; w < kappa; ++w) {
    XF_CHECK_EQ(comm[w]->rank(), w);
    XF_CHECK_EQ(comm[w]->size(), kappa);
  }

  // Simulated comms accounting: a ring all-reduce over kappa workers moves
  // 2*(kappa-1) gradient-buffer copies across the cluster per round (the
  // reduce-scatter plus the all-gather). Measured as modeled volume — this
  // host runs the replicas serially, but byte counts are what a real
  // cluster's NICs would carry.
  auto& obs_registry = obs::Registry::Global();
  obs::Counter* allreduce_rounds = obs_registry.counter("dist/allreduce_rounds");
  obs::Counter* allreduce_bytes = obs_registry.counter("dist/allreduce_bytes");
  obs::Histogram* round_bytes = obs_registry.histogram("dist/round_bytes");
  obs::Counter* worker_kills = obs_registry.counter("dist/worker_kills");
  obs::Counter* redistributed_ctr =
      obs_registry.counter("dist/redistributed_batches");
  obs::Counter* epoch_restarts = obs_registry.counter("dist/epoch_restarts");
  obs_registry.gauge("dist/workers")->Set(static_cast<double>(kappa));
  int64_t param_floats = 0;
  for (const auto& p : params[0]) param_floats += p.var.value().size();
  const int64_t ring_bytes_per_round =
      2 * static_cast<int64_t>(kappa - 1) * param_floats *
      static_cast<int64_t>(sizeof(float));

  // Epoch-start state for FailureRecovery::kRestartEpoch: enough to re-run
  // the epoch exactly (replicas are synchronized, so one parameter/optimizer
  // image covers all of them; the shuffle walk is per-worker).
  struct EpochSnapshot {
    std::vector<nn::Tensor> params;
    std::vector<nn::Tensor> opt_m;
    std::vector<nn::Tensor> opt_v;
    int64_t opt_step = 0;
    std::vector<DdpRank::Walk> walks;
  };

  int stale = 0;
  for (int epoch = 0; epoch < options_.train.max_epochs; ++epoch) {
    obs::ScopedSpan epoch_span("dist/epoch");
    WallTimer epoch_timer;
    std::vector<double> comm_seconds_at_start(kappa);
    for (int w = 0; w < kappa; ++w) {
      comm_seconds_at_start[w] = comm[w]->comm_seconds();
    }
    const bool may_kill_this_epoch =
        injector != nullptr && injector->plan().kill_worker >= 0 &&
        injector->plan().kill_epoch == epoch;
    EpochSnapshot snap;
    if (may_kill_this_epoch &&
        options_.recovery == FailureRecovery::kRestartEpoch) {
      for (const auto& p : params[0]) snap.params.push_back(p.var.value());
      snap.opt_m = workers[0].ddp->optimizer().first_moments();
      snap.opt_v = workers[0].ddp->optimizer().second_moments();
      snap.opt_step = workers[0].ddp->optimizer().step_count();
      for (int w = 0; w < kappa; ++w) {
        snap.walks.push_back(workers[w].ddp->walk());
      }
    }

    int killed_this_epoch = -1;  // reported in DistributedEpoch
    int killed = -1;             // elastic: dead for the rest of this epoch
    int64_t redistributed = 0;
    double recovery_seconds = 0.0;
    bool epoch_restarted = false;
    bool suppress_kill = false;
    bool rerun;
    do {
      rerun = false;
      killed = -1;
      redistributed = 0;
      // Every worker plans its epoch up front, so sampler threads can
      // prefetch ahead of the gradient steps.
      for (int w = 0; w < kappa; ++w) {
        workers[w].ddp->PlanEpoch(epoch, workers[w].features.get());
      }
      for (int64_t step = 0; step < partition.steps_per_epoch; ++step) {
        // Phase 1: every worker computes gradients on its own partition.
        // (Run serially: the kappa workers outnumber the host's cores, so
        // each worker's sampling and compute times are measured
        // individually and the concurrent cluster is modeled.)
        int extra_this_step = 0;
        for (int w = 0; w < kappa; ++w) {
          if (!suppress_kill && injector != nullptr &&
              injector->ShouldKillWorker(w, epoch, step)) {
            XF_CHECK(kappa >= 2);  // a dead lone worker has no recovery
            worker_kills->Increment();
            killed_this_epoch = w;
            if (options_.recovery == FailureRecovery::kRestartEpoch) {
              rerun = true;
              break;
            }
            killed = w;
          }
          if (w == killed) {
            // A dead (like a partition-less) worker contributes zero
            // gradient; clearing every step also discards the mean the
            // all-reduce copy-back wrote into this replica's buffers.
            workers[w].ddp->optimizer().ZeroGrad();
          } else {
            workers[w].ddp->Step();
          }
        }
        if (rerun) break;

        // Elastic recovery: one survivor per step absorbs the next of the
        // dead worker's planned batches (its loader still holds them — a
        // MiniBatch is self-contained, so any replica can train on it).
        // The extra backward accumulates onto the survivor's own gradient
        // (no ZeroGrad between the two), exactly like DDP gradient
        // accumulation.
        if (killed >= 0) {
          if (auto extra = workers[killed].ddp->NextBatch()) {
            int s = static_cast<int>(
                (static_cast<int64_t>(killed) + 1 + step) % kappa);
            if (s == killed) s = (s + 1) % kappa;
            recovery_seconds += workers[s].ddp->Absorb(*extra);
            redistributed_ctr->Increment();
            ++redistributed;
            extra_this_step = 1;
          }
        }

        // Phase 2: DDP all-reduce — average gradients across replicas and
        // write the mean back into every replica's gradient buffers. The
        // denominator is the number of batch-gradients contributed this
        // step: kappa normally, one less when a worker is dead, plus one
        // when a survivor absorbed a redistributed batch.
        allreduce_rounds->Increment();
        allreduce_bytes->Add(ring_bytes_per_round);
        round_bytes->Record(static_cast<double>(ring_bytes_per_round));
        const int contributions =
            kappa - (killed >= 0 ? 1 : 0) + extra_this_step;
        const float inv_contributions =
            1.0f / static_cast<float>(contributions);
        for (size_t p = 0; p < params[0].size(); ++p) {
          for (int w = 0; w < kappa; ++w) {
            nn::Tensor& g = params[w][p].var.grad();
            Status reduced = comm[w]->AllReduceSum(
                std::span<float>(g.data(), static_cast<size_t>(g.size())));
            XF_CHECK(reduced.ok()) << reduced.message();
          }
          // Every rank scales its own copy of the (bit-identical) sum by
          // the same scalar, which lands on the same bits the historical
          // scale-then-copy produced.
          for (int w = 0; w < kappa; ++w) {
            params[w][p].var.grad().ScaleInPlace(inv_contributions);
          }
        }

        // Phase 3: identical optimizer step on every live replica (states
        // match, so they stay synchronized; a dead replica freezes until
        // its end-of-epoch rejoin).
        for (int w = 0; w < kappa; ++w) {
          if (w != killed) workers[w].ddp->Update();
        }
      }
      if (rerun) {
        // Roll every replica back to the epoch-start image and re-run the
        // epoch with the failure suppressed (the worker "restarted").
        WallTimer t;
        for (int w = 0; w < kappa; ++w) {
          for (size_t p = 0; p < params[w].size(); ++p) {
            params[w][p].var.mutable_value() = snap.params[p];
          }
          Status restored = workers[w].ddp->optimizer().SetState(
              snap.opt_m, snap.opt_v, snap.opt_step);
          XF_CHECK(restored.ok());
          workers[w].ddp->RestoreWalk(snap.walks[w]);
        }
        recovery_seconds += t.ElapsedSeconds();
        epoch_restarted = true;
        suppress_kill = true;
        epoch_restarts->Increment();
      }
    } while (rerun);

    // Elastic rejoin: the dead replica re-enters the next epoch with a
    // survivor's parameters and optimizer state, moved as Broadcast
    // collectives rooted at a survivor so the rejoin protocol is the same
    // whatever the backend. Survivors broadcast-receive values identical to
    // what they already hold (replicas are synchronized), so only the dead
    // rank observes a change.
    if (killed >= 0) {
      WallTimer t;
      const int src = killed == 0 ? 1 : 0;
      for (size_t p = 0; p < params[0].size(); ++p) {
        for (int w = 0; w < kappa; ++w) {
          nn::Tensor& v = params[w][p].var.mutable_value();
          Status synced = comm[w]->Broadcast(
              std::span<float>(v.data(), static_cast<size_t>(v.size())), src);
          XF_CHECK(synced.ok()) << synced.message();
        }
      }
      // Optimizer state travels through per-rank staging buffers: moments
      // are broadcast tensor-by-tensor, then installed with SetState on
      // every rank (a no-op on survivors, the rejoin on the dead rank).
      std::vector<std::vector<nn::Tensor>> moments_m(kappa);
      std::vector<std::vector<nn::Tensor>> moments_v(kappa);
      std::vector<std::vector<double>> step_buf(
          kappa, std::vector<double>(1, 0.0));
      for (int w = 0; w < kappa; ++w) {
        const nn::AdamW& optimizer = workers[w].ddp->optimizer();
        moments_m[w] = optimizer.first_moments();
        moments_v[w] = optimizer.second_moments();
        step_buf[w][0] = static_cast<double>(optimizer.step_count());
      }
      for (size_t p = 0; p < params[0].size(); ++p) {
        for (int w = 0; w < kappa; ++w) {
          nn::Tensor& m = moments_m[w][p];
          Status synced = comm[w]->Broadcast(
              std::span<float>(m.data(), static_cast<size_t>(m.size())), src);
          XF_CHECK(synced.ok()) << synced.message();
        }
        for (int w = 0; w < kappa; ++w) {
          nn::Tensor& v2 = moments_v[w][p];
          Status synced = comm[w]->Broadcast(
              std::span<float>(v2.data(), static_cast<size_t>(v2.size())),
              src);
          XF_CHECK(synced.ok()) << synced.message();
        }
      }
      for (int w = 0; w < kappa; ++w) {
        Status synced =
            comm[w]->Broadcast(std::span<double>(step_buf[w]), src);
        XF_CHECK(synced.ok()) << synced.message();
      }
      for (int w = 0; w < kappa; ++w) {
        Status installed = workers[w].ddp->optimizer().SetState(
            moments_m[w], moments_v[w],
            static_cast<int64_t>(step_buf[w][0]));
        XF_CHECK(installed.ok()) << installed.message();
      }
      recovery_seconds += t.ElapsedSeconds();
    }

    DistributedEpoch stats;
    stats.epoch = epoch;
    stats.wall_seconds = epoch_timer.ElapsedSeconds();
    std::vector<RankEpochCost> costs;
    double loss_sum = 0.0;
    int64_t loss_steps = 0;
    for (auto& w : workers) {
      costs.push_back(w.ddp->cost());
      loss_sum += w.ddp->cost().loss_sum;
      loss_steps += w.ddp->cost().steps;
      w.ddp->EndEpoch();  // epoch plan exhausted; release sampler threads
    }
    stats.train_loss = loss_steps > 0 ? loss_sum / loss_steps : 0.0;
    stats.val_auc = ValidationAuc(*replicas_[0], ds, options_.train);
    // Sync cost: measured when the backend measures (slowest rank's time
    // inside collectives this epoch), modeled otherwise — never both.
    double measured_comm = 0.0;
    for (int w = 0; w < kappa; ++w) {
      measured_comm = std::max(
          measured_comm, comm[w]->comm_seconds() - comm_seconds_at_start[w]);
    }
    stats.killed_worker = killed_this_epoch;
    stats.redistributed_batches = redistributed;
    stats.restarted = epoch_restarted;
    stats.recovery_seconds = recovery_seconds;
    RecordEpoch(stats, costs, measured_comm,
                options_.sync_overhead_seconds * partition.steps_per_epoch,
                options_.train, &result);
    if (StopEarly(stats.val_auc, options_.train.patience,
                  &result.best_val_auc, &stale)) {
      break;
    }
  }
  SetResultMeans(&result);
  return result;
}

}  // namespace xfraud::dist
