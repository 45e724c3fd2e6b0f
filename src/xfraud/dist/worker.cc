#include "xfraud/dist/worker.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"
#include "xfraud/dist/ddp_rank.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/nn/optim.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/train/checkpoint.h"

namespace xfraud::dist {

namespace {

// ---- Worker checkpoint ("XFDC") -------------------------------------------
//
// Written at every epoch boundary, so it is both the rollback image for
// comm-failure recovery (survivors reload it in-process) and the resume
// image for a SIGKILLed rank (the launcher's restarted process loads it at
// startup). Same CRC-footer discipline as the trainer checkpoint, whose
// RNG-state and parameter blocks it shares (train/checkpoint.h).

constexpr std::string_view kCkptMagic = "XFDC";
constexpr uint32_t kCkptVersion = 1;

constexpr std::string_view kResultMagic = "XFDR";
constexpr uint32_t kResultVersion = 1;

// One result.bin history entry: i32 epoch, eight f64 fields, i32 killed
// worker, i64 redistributed batches, u8 restarted, f64 recovery seconds.
constexpr size_t kDistEpochBytes = 4 + 8 * 8 + 4 + 8 + 1 + 8;

/// The non-parameter part of a rank's epoch-boundary state.
struct WorkerState {
  int32_t next_epoch = 0;
  double best_val_auc = 0.0;
  int32_t stale = 0;
  DdpRank::Walk walk;
};

Status SaveWorkerCheckpoint(const std::string& path, uint64_t seed,
                            const WorkerState& st,
                            const std::vector<nn::NamedParameter>& params,
                            const nn::AdamW& optimizer) {
  const std::vector<nn::Tensor>& m = optimizer.first_moments();
  const std::vector<nn::Tensor>& v = optimizer.second_moments();
  if (m.size() != params.size() || v.size() != params.size()) {
    return Status::InvalidArgument(
        "worker checkpoint: optimizer state count != parameter count");
  }
  std::string image;
  ByteWriter out(&image);
  out.PutBytes(kCkptMagic);
  out.Put(kCkptVersion);
  out.Put(seed);
  out.Put(st.next_epoch);
  out.Put(st.best_val_auc);
  out.Put(st.stale);
  const DdpRank::Walk& walk = st.walk;
  train::WriteRngState(walk.rng, &out);
  out.Put(walk.cursor);
  out.PutVector(walk.order);
  out.Put(static_cast<int64_t>(params.size()));
  for (size_t i = 0; i < params.size(); ++i) {
    train::WriteParameterEntry(params[i].name, params[i].var.value(), m[i],
                               v[i], &out);
  }
  out.Put(optimizer.step_count());
  return AtomicWriteFileWithCrc(path, image);
}

Status LoadWorkerCheckpoint(const std::string& path, uint64_t seed,
                            WorkerState* st,
                            std::vector<nn::NamedParameter>* params,
                            nn::AdamW* optimizer) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) return raw.status();
  ByteReader in(raw.value());
  const std::string context = "worker checkpoint " + path;
  in.ExpectMagic(kCkptMagic);
  if (in.Get<uint32_t>() != kCkptVersion) in.Fail("unsupported version");
  const uint64_t saved_seed = in.Get<uint64_t>();
  XF_RETURN_IF_ERROR(in.status(context));
  if (saved_seed != seed) {
    return Status::InvalidArgument(
        "worker checkpoint " + path + " was written by a run with seed " +
        std::to_string(saved_seed) + ", not " + std::to_string(seed));
  }
  DdpRank::Walk& walk = st->walk;
  if (in.Get(&st->next_epoch) && st->next_epoch < 0) {
    in.Fail("negative epoch");
  }
  in.Get(&st->best_val_auc);
  in.Get(&st->stale);
  train::ReadRngState(&in, &walk.rng);
  in.Get(&walk.cursor);
  in.GetVector(&walk.order);
  if (in.Get<int64_t>() != static_cast<int64_t>(params->size())) {
    in.Fail("parameter count disagrees with the model");
  }
  XF_RETURN_IF_ERROR(in.status(context));
  std::vector<nn::Tensor> m(params->size());
  std::vector<nn::Tensor> v(params->size());
  for (size_t i = 0; i < params->size(); ++i) {
    std::string name;
    nn::Tensor value;
    if (!train::ReadParameterEntry(&in, &name, &value, &m[i], &v[i])) {
      return in.status(context);
    }
    if (name != (*params)[i].name ||
        !value.SameShape((*params)[i].var.value())) {
      return Status::InvalidArgument(
          "worker checkpoint parameter " + name +
          " does not match the constructed model in " + path);
    }
    (*params)[i].var.mutable_value() = std::move(value);
  }
  const int64_t step = in.Get<int64_t>();
  XF_RETURN_IF_ERROR(in.status(context));
  return optimizer->SetState(std::move(m), std::move(v), step);
}

}  // namespace

Status SaveDistResult(const DistributedResult& result,
                      const std::string& path) {
  std::string image;
  ByteWriter out(&image);
  out.PutBytes(kResultMagic);
  out.Put(kResultVersion);
  out.Put(result.best_val_auc);
  out.Put(result.mean_wall_epoch_seconds);
  out.Put(result.mean_simulated_epoch_seconds);
  out.Put(result.edge_cut_fraction);
  out.PutVector(result.partition_nodes);
  out.Put(static_cast<int64_t>(result.history.size()));
  for (const DistributedEpoch& e : result.history) {
    out.Put<int32_t>(e.epoch);
    out.Put(e.train_loss);
    out.Put(e.val_auc);
    out.Put(e.wall_seconds);
    out.Put(e.max_worker_sample_seconds);
    out.Put(e.max_worker_compute_seconds);
    out.Put(e.modeled_sync_seconds);
    out.Put(e.measured_comm_seconds);
    out.Put(e.simulated_cluster_seconds);
    out.Put<int32_t>(e.killed_worker);
    out.Put(e.redistributed_batches);
    out.Put(static_cast<uint8_t>(e.restarted ? 1 : 0));
    out.Put(e.recovery_seconds);
  }
  return AtomicWriteFileWithCrc(path, image);
}

Result<DistributedResult> LoadDistResult(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) return raw.status();
  ByteReader in(raw.value());
  in.ExpectMagic(kResultMagic);
  if (in.Get<uint32_t>() != kResultVersion) in.Fail("unsupported version");
  DistributedResult result;
  in.Get(&result.best_val_auc);
  in.Get(&result.mean_wall_epoch_seconds);
  in.Get(&result.mean_simulated_epoch_seconds);
  in.Get(&result.edge_cut_fraction);
  in.GetVector(&result.partition_nodes);
  size_t count = 0;
  if (in.GetCount(kDistEpochBytes, &count)) {
    result.history.resize(count);
    for (DistributedEpoch& e : result.history) {
      e.epoch = in.Get<int32_t>();
      in.Get(&e.train_loss);
      in.Get(&e.val_auc);
      in.Get(&e.wall_seconds);
      in.Get(&e.max_worker_sample_seconds);
      in.Get(&e.max_worker_compute_seconds);
      in.Get(&e.modeled_sync_seconds);
      in.Get(&e.measured_comm_seconds);
      in.Get(&e.simulated_cluster_seconds);
      e.killed_worker = in.Get<int32_t>();
      in.Get(&e.redistributed_batches);
      e.restarted = in.Get<uint8_t>() != 0;
      in.Get(&e.recovery_seconds);
    }
  }
  XF_RETURN_IF_ERROR(in.status("dist result " + path));
  return result;
}

Result<DistributedResult> RunDistWorker(const data::SimDataset& ds,
                                        const DistWorkerOptions& options) {
  const int rank = options.rank;
  const int world = options.world;
  XF_CHECK(rank >= 0 && rank < world);
  XF_CHECK_EQ(options.dist.num_workers, world);
  XF_CHECK(!options.dist.kv_backed_loaders)
      << "kv_backed_loaders is not supported in multi-process mode";
  XF_RETURN_IF_ERROR(ValidateKillPlan(options.fault_plan, world));
  if (options.fault_plan.kill_worker == 0) {
    return Status::InvalidArgument(
        "multi-process mode cannot kill rank 0: it hosts the rendezvous and "
        "owns the run's history (see DESIGN.md §12)");
  }
  const train::TrainOptions& topt = options.dist.train;

  // The model is identical on every rank (same init stream). Every rank
  // recomputes the full deterministic partition (same seed, same PIC/k-means
  // draws), then materializes only its own shard.
  xfraud::Rng model_rng(options.model_seed);
  core::XFraudDetector model(options.detector, &model_rng);
  std::vector<nn::NamedParameter> params = model.Parameters();
  const DdpPartition partition = PartitionRanks(ds, options.dist);
  sample::SageSampler train_sampler(options.sampler_hops,
                                    options.sampler_fanout);
  DdpRank ddp(ds, partition, rank, topt, &model, &train_sampler);
  nn::AdamW& optimizer = ddp.optimizer();

  // Resume: a restarted rank picks up from its last epoch-boundary image.
  // `state` also carries the early-stopping record through the run.
  const std::string ckpt_path =
      options.checkpoint_dir + "/rank-" + std::to_string(rank) + ".ckpt";
  WorkerState state;
  Status resumed =
      LoadWorkerCheckpoint(ckpt_path, topt.seed, &state, &params, &optimizer);
  if (resumed.ok()) {
    ddp.RestoreWalk(state.walk);
    XF_LOG(Info) << "dist worker " << rank << " resumed at epoch "
                 << state.next_epoch << " from " << ckpt_path;
  } else if (!resumed.IsNotFound()) {
    return resumed;
  }

  fault::FaultInjector injector(options.fault_plan);

  // ---- Transport ----------------------------------------------------------
  Endpoint rdzv_ep;
  if (world > 1) {
    Result<Endpoint> parsed = ParseEndpoint(options.rendezvous);
    if (!parsed.ok()) return parsed.status();
    rdzv_ep = parsed.value();
  }
  std::unique_ptr<RendezvousHost> host;
  if (world > 1 && rank == 0) {
    Result<std::unique_ptr<RendezvousHost>> created =
        RendezvousHost::Create(rdzv_ep, world);
    if (!created.ok()) return created.status();
    host = std::move(created).value();
  }
  uint64_t generation = 0;
  std::unique_ptr<SocketCommunicator> comm;
  auto connect = [&]() -> Status {
    SocketCommOptions copt;
    copt.rank = rank;
    copt.world = world;
    copt.rendezvous = rdzv_ep;
    copt.connect_timeout_s = options.connect_timeout_s;
    copt.op_timeout_s = options.op_timeout_s;
    copt.rendezvous_timeout_s = options.rendezvous_timeout_s;
    copt.generation = generation;
    Result<std::unique_ptr<SocketCommunicator>> connected =
        SocketCommunicator::Connect(copt, host.get());
    if (!connected.ok()) return connected.status();
    comm = std::move(connected).value();
    generation = comm->generation();
    return Status::OK();
  };
  XF_RETURN_IF_ERROR(connect());

  DistributedResult result;
  if (rank == 0) {
    result.partition_nodes = partition.partition_nodes;
    result.edge_cut_fraction = partition.edge_cut_fraction;
  }

  // ---- Epoch loop ---------------------------------------------------------
  int recovery_rounds = 0;
  const float inv_world = 1.0f / static_cast<float>(world);
  for (int epoch = state.next_epoch; epoch < topt.max_epochs; ++epoch) {
    state.next_epoch = epoch;
    state.walk = ddp.walk();
    XF_RETURN_IF_ERROR(
        SaveWorkerCheckpoint(ckpt_path, topt.seed, state, params, optimizer));

    WallTimer epoch_timer;
    bool restarted_this_epoch = false;
    double recovery_seconds = 0.0;
    double train_loss = 0.0;
    double val_auc = 0.0;
    std::vector<std::vector<float>> gathered;

    for (;;) {
      const double comm_at_start = comm->comm_seconds();
      const bool suppress = options.suppress_kill || restarted_this_epoch;
      Status attempt = [&]() -> Status {
        ddp.PlanEpoch(epoch);
        for (int64_t step = 0; step < partition.steps_per_epoch; ++step) {
          if (!suppress && injector.ShouldKillWorker(rank, epoch, step)) {
            XF_LOG(Info) << "dist worker " << rank
                         << " executing planned SIGKILL at epoch " << epoch
                         << " step " << step;
            fault::KillCurrentProcess();
          }
          // A partition-less rank contributes zero gradient but still
          // participates in every collective.
          ddp.Step();
          for (auto& p : params) {
            nn::Tensor& g = p.var.grad();
            XF_RETURN_IF_ERROR(comm->AllReduceSum(std::span<float>(
                g.data(), static_cast<size_t>(g.size()))));
            // Same scalar on every rank over the bit-identical sum — the
            // DDP gradient mean. World is the denominator even under chaos:
            // recovery re-runs the epoch at full strength, never elastic.
            g.ScaleInPlace(inv_world);
          }
          ddp.Update();
        }
        ddp.EndEpoch();
        // Cluster loss: the ring's ascending-rank fold reproduces the
        // serial driver's worker-order accumulation bit for bit.
        const RankEpochCost& cost = ddp.cost();
        double loss_buf[2] = {cost.loss_sum, static_cast<double>(cost.steps)};
        XF_RETURN_IF_ERROR(
            comm->AllReduceSum(std::span<double>(loss_buf, 2)));
        train_loss = loss_buf[1] > 0.0 ? loss_buf[0] / loss_buf[1] : 0.0;
        double val_buf[1] = {0.0};
        if (rank == 0) val_buf[0] = ValidationAuc(model, ds, topt);
        XF_RETURN_IF_ERROR(
            comm->Broadcast(std::span<double>(val_buf, 1), 0));
        val_auc = val_buf[0];
        const float my_stats[3] = {
            static_cast<float>(cost.sample_seconds),
            static_cast<float>(cost.compute_seconds),
            static_cast<float>(comm->comm_seconds() - comm_at_start)};
        gathered.clear();
        return comm->Gather(std::span<const float>(my_stats, 3), 0,
                            rank == 0 ? &gathered : nullptr);
      }();
      if (attempt.ok()) break;
      // A peer died or a collective timed out. Tear the ring down (waking
      // neighbours with EOF), roll back to the epoch-start image, and
      // reassemble under the next generation — the launcher meanwhile
      // restarts the dead rank, which resumes from its own checkpoint.
      if (++recovery_rounds > options.max_recovery_rounds) return attempt;
      XF_LOG(Info) << "dist worker " << rank << " epoch " << epoch
                   << " comm failure (" << attempt.message()
                   << "); rolling back and rejoining as generation "
                   << generation + 1;
      WallTimer recovery_timer;
      comm->Shutdown();
      comm = nullptr;
      XF_RETURN_IF_ERROR(LoadWorkerCheckpoint(ckpt_path, topt.seed, &state,
                                              &params, &optimizer));
      XF_CHECK_EQ(state.next_epoch, epoch);
      ddp.RestoreWalk(state.walk);
      ++generation;
      XF_RETURN_IF_ERROR(connect());
      restarted_this_epoch = true;
      recovery_seconds += recovery_timer.ElapsedSeconds();
    }

    if (rank == 0) {
      XF_CHECK_EQ(gathered.size(), static_cast<size_t>(world));
      DistributedEpoch stats;
      stats.epoch = epoch;
      stats.train_loss = train_loss;
      stats.val_auc = val_auc;
      stats.wall_seconds = epoch_timer.ElapsedSeconds();
      std::vector<RankEpochCost> costs;
      double measured_comm = 0.0;
      for (const std::vector<float>& g : gathered) {
        XF_CHECK_EQ(g.size(), static_cast<size_t>(3));
        costs.push_back({.sample_seconds = g[0], .compute_seconds = g[1]});
        measured_comm = std::max(measured_comm, static_cast<double>(g[2]));
      }
      stats.restarted = restarted_this_epoch;
      stats.recovery_seconds = recovery_seconds;
      // The socket backend measures its sync cost, so modeled_sync_seconds
      // stays zero — the split DistributedEpoch documents.
      RecordEpoch(stats, costs, measured_comm, /*modeled_sync_seconds=*/0.0,
                  topt, &result);
    }

    // Early stopping, decided identically on every rank from the broadcast
    // val AUC.
    if (StopEarly(val_auc, topt.patience, &state.best_val_auc, &state.stale)) {
      break;
    }
  }

  result.best_val_auc = state.best_val_auc;
  if (rank == 0) {
    SetResultMeans(&result);
    XF_RETURN_IF_ERROR(nn::SaveParameters(
        params, options.checkpoint_dir + "/final_model.ckpt"));
    XF_RETURN_IF_ERROR(
        SaveDistResult(result, options.checkpoint_dir + "/result.bin"));
  }
  return result;
}

}  // namespace xfraud::dist
