#ifndef XFRAUD_TRAIN_CHECKPOINT_H_
#define XFRAUD_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xfraud/common/bytes.h"
#include "xfraud/common/rng.h"
#include "xfraud/common/status.h"
#include "xfraud/nn/tensor.h"
#include "xfraud/train/trainer.h"

namespace xfraud::train {

/// Complete Trainer state at an epoch boundary — everything needed for a
/// resumed run to be bit-identical to one that never stopped:
///  - model parameters (by name),
///  - AdamW moments + step count (the bias-correction schedule),
///  - the training Rng (shuffles + dropout draws continue mid-stream),
///  - the current train-node permutation (epoch shuffles are cumulative:
///    epoch k shuffles the order epoch k-1 left behind, so restoring the
///    Rng without the order would permute a different base),
///  - early-stopping state and the epoch history.
struct TrainerCheckpoint {
  uint64_t seed = 0;  // TrainOptions::seed, verified on resume
  int next_epoch = 0;
  int stale = 0;
  int best_epoch = -1;
  double best_val_auc = 0.0;
  Rng::State rng;
  std::vector<int32_t> train_node_order;
  std::vector<EpochStats> history;
  std::vector<std::pair<std::string, nn::Tensor>> params;
  std::vector<nn::Tensor> opt_m;
  std::vector<nn::Tensor> opt_v;
  int64_t opt_step = 0;
};

/// Blocks shared by the trainer checkpoint ("XFTC") and the DDP rank
/// checkpoint ("XFDC", dist/worker.cc). Readers fail sticky in `in`.
///
/// RNG-state block: u64 s[4], u8 has_cached_gaussian, f64 cached_gaussian.
void WriteRngState(const Rng::State& state, ByteWriter* out);
bool ReadRngState(ByteReader* in, Rng::State* state);

/// Parameter block: i64 count, then per parameter {u32 name length, name,
/// value, AdamW m, AdamW v}, each tensor an nn/serialize.h tensor record.
void WriteParameterEntry(std::string_view name, const nn::Tensor& value,
                         const nn::Tensor& m, const nn::Tensor& v,
                         ByteWriter* out);
bool ReadParameterEntry(ByteReader* in, std::string* name, nn::Tensor* value,
                        nn::Tensor* m, nn::Tensor* v);

/// Canonical checkpoint file inside a --checkpoint-dir.
std::string TrainerCheckpointPath(const std::string& dir);

/// Atomically writes the checkpoint (tmp + rename) with a CRC32 footer.
Status SaveTrainerCheckpoint(const TrainerCheckpoint& ckpt,
                             const std::string& path);

/// Loads and CRC-verifies a checkpoint. NotFound if the file does not
/// exist; Corruption for torn/truncated/bit-flipped files.
Result<TrainerCheckpoint> LoadTrainerCheckpoint(const std::string& path);

}  // namespace xfraud::train

#endif  // XFRAUD_TRAIN_CHECKPOINT_H_
