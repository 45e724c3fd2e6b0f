#include "xfraud/nn/serialize.h"

#include <cstdint>
#include <unordered_map>

#include "xfraud/common/atomic_file.h"

namespace xfraud::nn {

namespace {
constexpr std::string_view kMagic = "XFCK";
}  // namespace

void PutTensor(const Tensor& t, ByteWriter* out) {
  out->Put(t.rows());
  out->Put(t.cols());
  out->PutArray(t.data(), static_cast<size_t>(t.size()));
}

bool GetTensor(ByteReader* in, Tensor* t) {
  const int64_t rows = in->Get<int64_t>();
  const int64_t cols = in->Get<int64_t>();
  std::vector<float> data;
  if (!in->CheckShape(rows, cols, sizeof(float)) ||
      !in->GetArray(static_cast<uint64_t>(rows * cols), &data)) {
    return false;
  }
  *t = Tensor(rows, cols, std::move(data));
  return true;
}

Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path) {
  // Serialize into memory, then publish with tmp-file + rename + CRC32
  // footer: a crash mid-save leaves the previous checkpoint intact, and a
  // torn/bit-flipped file is rejected at load instead of misparsed.
  std::string image;
  ByteWriter out(&image);
  out.PutBytes(kMagic);
  out.Put(static_cast<uint32_t>(params.size()));
  for (const auto& p : params) {
    out.PutString(p.name);
    PutTensor(p.var.value(), &out);
  }
  return AtomicWriteFileWithCrc(path, image);
}

Status LoadParameters(const std::string& path,
                      std::vector<NamedParameter>* params) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) {
      return Status::IoError("cannot open for read: " + path);
    }
    return raw.status();
  }
  ByteReader in(raw.value());
  in.ExpectMagic(kMagic);
  const uint32_t count = in.Get<uint32_t>();
  std::unordered_map<std::string, Tensor> loaded;
  for (uint32_t i = 0; i < count && in.ok(); ++i) {
    std::string name;
    Tensor t;
    if (in.GetString(&name) && GetTensor(&in, &t)) {
      loaded.emplace(std::move(name), std::move(t));
    }
  }
  XF_RETURN_IF_ERROR(in.status("parameter checkpoint " + path));
  for (auto& p : *params) {
    auto it = loaded.find(p.name);
    if (it == loaded.end()) {
      return Status::NotFound("checkpoint missing parameter: " + p.name);
    }
    if (!it->second.SameShape(p.var.value())) {
      return Status::InvalidArgument("shape mismatch for " + p.name);
    }
    p.var.mutable_value() = it->second;
  }
  return Status::OK();
}

Status CopyParameters(const std::vector<NamedParameter>& src,
                      std::vector<NamedParameter>* dst) {
  if (src.size() != dst->size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (!src[i].var.value().SameShape((*dst)[i].var.value())) {
      return Status::InvalidArgument("shape mismatch at " + src[i].name);
    }
    (*dst)[i].var.mutable_value() = src[i].var.value();
  }
  return Status::OK();
}

}  // namespace xfraud::nn
