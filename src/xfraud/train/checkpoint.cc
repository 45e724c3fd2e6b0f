#include "xfraud/train/checkpoint.h"

#include "xfraud/common/atomic_file.h"
#include "xfraud/nn/serialize.h"

namespace xfraud::train {

namespace {

constexpr std::string_view kMagic = "XFTC";
constexpr uint32_t kVersion = 1;

// One history entry: i32 epoch, then five f64 fields.
constexpr size_t kEpochStatsBytes = 4 + 5 * 8;
// The smallest parameter entry: an empty name and three empty tensors.
constexpr size_t kMinParameterEntryBytes = 4 + 3 * 16;

}  // namespace

void WriteRngState(const Rng::State& state, ByteWriter* out) {
  for (uint64_t s : state.s) out->Put(s);
  out->Put(static_cast<uint8_t>(state.has_cached_gaussian ? 1 : 0));
  out->Put(state.cached_gaussian);
}

bool ReadRngState(ByteReader* in, Rng::State* state) {
  for (uint64_t& s : state->s) in->Get(&s);
  state->has_cached_gaussian = in->Get<uint8_t>() != 0;
  return in->Get(&state->cached_gaussian);
}

void WriteParameterEntry(std::string_view name, const nn::Tensor& value,
                         const nn::Tensor& m, const nn::Tensor& v,
                         ByteWriter* out) {
  out->PutString(name);
  nn::PutTensor(value, out);
  nn::PutTensor(m, out);
  nn::PutTensor(v, out);
}

bool ReadParameterEntry(ByteReader* in, std::string* name, nn::Tensor* value,
                        nn::Tensor* m, nn::Tensor* v) {
  return in->GetString(name) && nn::GetTensor(in, value) &&
         nn::GetTensor(in, m) && nn::GetTensor(in, v);
}

std::string TrainerCheckpointPath(const std::string& dir) {
  return dir + "/trainer.ckpt";
}

Status SaveTrainerCheckpoint(const TrainerCheckpoint& ckpt,
                             const std::string& path) {
  if (ckpt.opt_m.size() != ckpt.params.size() ||
      ckpt.opt_v.size() != ckpt.params.size()) {
    return Status::InvalidArgument(
        "checkpoint optimizer state count != parameter count");
  }
  std::string image;
  ByteWriter out(&image);
  out.PutBytes(kMagic);
  out.Put(kVersion);
  out.Put(ckpt.seed);
  out.Put<int32_t>(ckpt.next_epoch);
  out.Put<int32_t>(ckpt.stale);
  out.Put<int32_t>(ckpt.best_epoch);
  out.Put(ckpt.best_val_auc);
  WriteRngState(ckpt.rng, &out);

  out.PutVector(ckpt.train_node_order);

  out.Put(static_cast<int64_t>(ckpt.history.size()));
  for (const EpochStats& e : ckpt.history) {
    out.Put<int32_t>(e.epoch);
    out.Put(e.train_loss);
    out.Put(e.val_auc);
    out.Put(e.seconds);
    out.Put(e.sample_seconds);
    out.Put(e.compute_seconds);
  }

  out.Put(static_cast<int64_t>(ckpt.params.size()));
  for (size_t i = 0; i < ckpt.params.size(); ++i) {
    WriteParameterEntry(ckpt.params[i].first, ckpt.params[i].second,
                        ckpt.opt_m[i], ckpt.opt_v[i], &out);
  }
  out.Put(ckpt.opt_step);
  return AtomicWriteFileWithCrc(path, image);
}

Result<TrainerCheckpoint> LoadTrainerCheckpoint(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) return raw.status();
  ByteReader in(raw.value());
  in.ExpectMagic(kMagic);
  if (in.Get<uint32_t>() != kVersion) in.Fail("unsupported version");

  TrainerCheckpoint ckpt;
  in.Get(&ckpt.seed);
  ckpt.next_epoch = in.Get<int32_t>();
  ckpt.stale = in.Get<int32_t>();
  ckpt.best_epoch = in.Get<int32_t>();
  in.Get(&ckpt.best_val_auc);
  ReadRngState(&in, &ckpt.rng);

  in.GetVector(&ckpt.train_node_order);
  size_t count = 0;
  if (in.GetCount(kEpochStatsBytes, &count)) {
    ckpt.history.resize(count);
    for (EpochStats& e : ckpt.history) {
      e.epoch = in.Get<int32_t>();
      in.Get(&e.train_loss);
      in.Get(&e.val_auc);
      in.Get(&e.seconds);
      in.Get(&e.sample_seconds);
      in.Get(&e.compute_seconds);
    }
  }
  if (in.GetCount(kMinParameterEntryBytes, &count)) {
    ckpt.params.resize(count);
    ckpt.opt_m.resize(count);
    ckpt.opt_v.resize(count);
    for (size_t i = 0; i < count && in.ok(); ++i) {
      ReadParameterEntry(&in, &ckpt.params[i].first, &ckpt.params[i].second,
                         &ckpt.opt_m[i], &ckpt.opt_v[i]);
    }
  }
  if (in.Get(&ckpt.opt_step) && ckpt.opt_step < 0) {
    in.Fail("negative optimizer step count");
  }
  XF_RETURN_IF_ERROR(in.status("trainer checkpoint " + path));
  return ckpt;
}

}  // namespace xfraud::train
