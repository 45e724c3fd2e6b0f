#ifndef XFRAUD_DIST_WORKER_H_
#define XFRAUD_DIST_WORKER_H_

#include <cstdint>
#include <string>

#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/dist/distributed.h"
#include "xfraud/fault/fault_plan.h"

namespace xfraud::dist {

/// One rank of a socket-backed multi-process cluster. Unlike the in-process
/// simulation, a "worker" here is this whole process: kill_worker in the
/// fault plan is a real SIGKILL of this process, and recovery is a real
/// restart that resumes from the rank's CRC checkpoint.
struct DistWorkerOptions {
  int rank = 0;
  int world = 1;
  /// Rendezvous endpoint spec (`unix:<path>` or `tcp:host:port`). Rank 0
  /// hosts it; everyone else dials it.
  std::string rendezvous;
  /// Replica architecture + init seed: every rank builds the same model
  /// from Rng(model_seed), which is what keeps replicas synchronized from
  /// step zero.
  core::DetectorConfig detector;
  uint64_t model_seed = 7;
  /// Training protocol (num_workers must equal `world`). kv_backed_loaders
  /// is not supported in multi-process mode; fault_injector is ignored in
  /// favour of `fault_plan` below (each process builds its own injector).
  DistributedOptions dist;
  /// Deterministic chaos plan; kill_worker=<rank>@<epoch>:<step> SIGKILLs
  /// this process at that point.
  fault::FaultPlan fault_plan;
  /// Suppress the planned kill (set by the launcher on the restarted
  /// process so the kill fires exactly once).
  bool suppress_kill = false;
  /// Directory of the per-rank checkpoints (`rank-<r>.ckpt`), rank 0's
  /// result file (`result.bin`) and final model (`final_model.ckpt`).
  std::string checkpoint_dir;
  /// Neighbourhood sampler of the training loaders (evaluation uses the
  /// same fixed SageSampler(2, 12) as the in-process path).
  int sampler_hops = 2;
  int sampler_fanout = 8;
  /// Transport budgets (see SocketCommOptions).
  double op_timeout_s = 60.0;
  double rendezvous_timeout_s = 60.0;
  double connect_timeout_s = 10.0;
  /// Comm-failure recovery rounds (rollback + re-rendezvous) before the
  /// rank gives up.
  int max_recovery_rounds = 3;
};

/// Runs one rank of the DDP recipe DistributedTrainer also runs
/// (dist/ddp_rank.h; a fault-free socket run is bit-identical to the
/// in-process run) over the socket ring, writes a checkpoint at every epoch
/// boundary, and on a collective failure rolls back to that checkpoint,
/// re-rendezvouses under the next generation, and re-runs the epoch
/// (restart-epoch recovery). A kill plan ValidateKillPlan refuses, or one
/// that kills rank 0, is an InvalidArgument.
///
/// Rank 0 additionally evaluates on the full graph each epoch, decides
/// early stopping (broadcast to all ranks), writes `result.bin` and
/// `final_model.ckpt` into checkpoint_dir, and returns the populated
/// DistributedResult; other ranks return an empty result.
Result<DistributedResult> RunDistWorker(const data::SimDataset& ds,
                                        const DistWorkerOptions& options);

/// result.bin (de)serialization — written by rank 0, read by the launcher.
Status SaveDistResult(const DistributedResult& result,
                      const std::string& path);
Result<DistributedResult> LoadDistResult(const std::string& path);

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_WORKER_H_
