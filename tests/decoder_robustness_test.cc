// Untrusted-input robustness of every public decoder. The file loaders are
// fed images whose CRC footer is valid (resealed after each edit), so the
// footer cannot save them: each truncation, byte mutation or lying header
// must come back as a Status, never as an exception, an abort or an
// allocation larger than the input could describe.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/frame.h"
#include "xfraud/common/rng.h"
#include "xfraud/dist/worker.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/graph/serialize.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/serve/wire.h"
#include "xfraud/train/checkpoint.h"

// Allocation probe: while a decode runs, every operator new on the calling
// thread is compared with the limit that decode's input allows. The
// sanitizer runtimes own operator new, so there the probe is compiled out
// and those builds check only for throws and aborts.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define XFRAUD_ALLOC_PROBE 1
namespace {
thread_local size_t t_alloc_limit = std::numeric_limits<size_t>::max();
thread_local size_t t_alloc_largest_over = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (n > t_alloc_limit) {
    t_alloc_largest_over = std::max(t_alloc_largest_over, n);
  }
  for (;;) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
#endif

namespace xfraud {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Appends one little-endian field to a hand-built image.
template <typename T>
void Le(std::string* out, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(bytes, bytes + sizeof(T));
  }
  out->append(bytes, sizeof(T));
}

// Runs `decode` and fails the test on any exception, and (where the probe
// is compiled in) on any single allocation above 16x the input size plus a
// small constant — the most any format here expands a byte into.
void ExpectBounded(const std::string& what, size_t input_bytes,
                   const std::function<void()>& decode) {
#ifdef XFRAUD_ALLOC_PROBE
  t_alloc_largest_over = 0;
  t_alloc_limit = 16 * input_bytes + 4096;
#endif
  try {
    decode();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what();
  }
#ifdef XFRAUD_ALLOC_PROBE
  t_alloc_limit = std::numeric_limits<size_t>::max();
  EXPECT_EQ(t_alloc_largest_over, 0u)
      << what << ": allocated beyond what " << input_bytes
      << " input bytes allow";
#endif
}

// Strips the 8-byte CRC footer of a file AtomicWriteFileWithCrc wrote.
std::string ImageOf(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  return raw.ok() ? raw.value() : std::string();
}

// Deterministic damaged variants of `image`: every proper prefix, then
// `mutations` copies with one to three bytes overwritten.
struct Variant {
  std::string bytes;
  bool truncated;
};

std::vector<Variant> Damaged(const std::string& image, int mutations,
                             uint64_t seed) {
  std::vector<Variant> out;
  for (size_t len = 0; len < image.size(); ++len) {
    out.push_back({image.substr(0, len), true});
  }
  Rng rng(seed);
  for (int m = 0; m < mutations && !image.empty(); ++m) {
    std::string bytes = image;
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      const size_t at = rng.NextBounded(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.NextBounded(255)));
    }
    out.push_back({std::move(bytes), false});
  }
  return out;
}

constexpr int kMutations = 300;

// Reseals each damaged image with a valid CRC footer and loads it.
// `load` returns the loader's Status; a truncated image must not load.
void SweepFile(const std::string& name, const std::string& image,
               const std::function<Status(const std::string&)>& load) {
  const std::string path = TempPath(name);
  for (const Variant& v : Damaged(image, kMutations, 20261019)) {
    ASSERT_TRUE(AtomicWriteFileWithCrc(path, v.bytes).ok());
    Status s;
    ExpectBounded(name, v.bytes.size(), [&] { s = load(path); });
    if (v.truncated) {
      EXPECT_FALSE(s.ok()) << name << " loaded a " << v.bytes.size()
                           << "-byte prefix of a " << image.size()
                           << "-byte image";
    }
  }
}

// A two-node graph: transaction 0 (fraud, two features) and buyer 1.
graph::HeteroGraph TinyGraph() {
  using graph::NodeType;
  return graph::HeteroGraph(
      {NodeType::kTxn, NodeType::kBuyer}, {0, 1, 2}, {1, 0},
      {graph::EntityToTxnEdge(NodeType::kBuyer),
       graph::TxnToEntityEdge(NodeType::kBuyer)},
      nn::Tensor(1, 2, std::vector<float>{1.5f, -2.0f}), {0, -1},
      {graph::kLabelFraud, graph::kLabelUnknown});
}

std::vector<nn::NamedParameter> TinyParams() {
  std::vector<nn::NamedParameter> params;
  params.push_back(
      {"w", nn::Var(nn::Tensor(1, 2, std::vector<float>{1.0f, -0.5f}))});
  params.push_back({"b", nn::Var(nn::Tensor(1, 1, 0.25f))});
  return params;
}

train::TrainerCheckpoint TinyCheckpoint() {
  train::TrainerCheckpoint ckpt;
  ckpt.seed = 3;
  ckpt.next_epoch = 2;
  ckpt.rng = Rng(5).GetState();
  ckpt.train_node_order = {2, 0, 1};
  train::EpochStats e;
  e.epoch = 1;
  e.val_auc = 0.5;
  ckpt.history = {e};
  ckpt.params = {{"w", nn::Tensor(1, 2, 1.0f)}};
  ckpt.opt_m = {nn::Tensor(1, 2, 0.5f)};
  ckpt.opt_v = {nn::Tensor(1, 2, 0.25f)};
  ckpt.opt_step = 4;
  return ckpt;
}

dist::DistributedResult TinyDistResult() {
  dist::DistributedResult result;
  result.best_val_auc = 0.8;
  result.partition_nodes = {10, 12};
  dist::DistributedEpoch e;
  e.epoch = 0;
  e.killed_worker = 1;
  e.restarted = true;
  result.history = {e};
  return result;
}

// The fixed prefix of a trainer checkpoint up to its train-node count:
// magic, version, seed, next_epoch, stale, best_epoch, best_val_auc and the
// RNG-state block.
std::string TrainerCheckpointHeader() {
  std::string img = "XFTC";
  Le<uint32_t>(&img, 1);
  Le<uint64_t>(&img, 3);
  Le<int32_t>(&img, 0);
  Le<int32_t>(&img, 0);
  Le<int32_t>(&img, -1);
  Le<double>(&img, 0.0);
  for (int i = 0; i < 4; ++i) Le<uint64_t>(&img, 1);
  Le<uint8_t>(&img, 0);
  Le<double>(&img, 0.0);
  return img;
}

// ---- Lying headers: CRC-valid images whose counts describe far more data
// than the file holds. Each used to throw out of the loader. ---------------

TEST(LyingHeaderTest, GraphNodeCount) {
  std::string img = "XFGR";
  Le<uint32_t>(&img, 1);
  Le<int64_t>(&img, int64_t{1} << 62);  // num_nodes
  Le<int64_t>(&img, 0);                 // num_edges
  Le<int64_t>(&img, 0);                 // feature rows
  Le<int64_t>(&img, 0);                 // feature dim
  const std::string path = TempPath("lying_graph.xfgr");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, img).ok());
  Result<graph::HeteroGraph> g(Status::Internal("not run"));
  ExpectBounded("graph", img.size(), [&] { g = graph::LoadGraph(path); });
  EXPECT_TRUE(g.status().IsCorruption()) << g.status().ToString();
}

TEST(LyingHeaderTest, ParameterShape) {
  std::string img = "XFCK";
  Le<uint32_t>(&img, 1);  // one entry
  Le<uint32_t>(&img, 1);
  img += "w";
  Le<int64_t>(&img, int64_t{1} << 31);  // rows
  Le<int64_t>(&img, int64_t{1} << 31);  // cols
  const std::string path = TempPath("lying_params.xfck");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, img).ok());
  std::vector<nn::NamedParameter> params = TinyParams();
  Status s;
  ExpectBounded("params", img.size(),
                [&] { s = nn::LoadParameters(path, &params); });
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(LyingHeaderTest, TrainerCheckpointNodeCount) {
  std::string img = TrainerCheckpointHeader();
  Le<int64_t>(&img, int64_t{1} << 61);  // train-node count
  const std::string path = TempPath("lying_nodes.ckpt");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, img).ok());
  Result<train::TrainerCheckpoint> ckpt(Status::Internal("not run"));
  ExpectBounded("trainer checkpoint", img.size(),
                [&] { ckpt = train::LoadTrainerCheckpoint(path); });
  EXPECT_TRUE(ckpt.status().IsCorruption()) << ckpt.status().ToString();
}

TEST(LyingHeaderTest, TrainerCheckpointTensorShapeOverflow) {
  std::string img = TrainerCheckpointHeader();
  Le<int64_t>(&img, 0);  // train-node count
  Le<int64_t>(&img, 0);  // history count
  Le<int64_t>(&img, 1);  // parameter count
  Le<uint32_t>(&img, 1);
  img += "w";
  // rows × cols = 3 · 2^62 overflows int64_t.
  Le<int64_t>(&img, int64_t{1} << 62);
  Le<int64_t>(&img, 3);
  const std::string path = TempPath("lying_shape.ckpt");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, img).ok());
  Result<train::TrainerCheckpoint> ckpt(Status::Internal("not run"));
  ExpectBounded("trainer checkpoint", img.size(),
                [&] { ckpt = train::LoadTrainerCheckpoint(path); });
  EXPECT_TRUE(ckpt.status().IsCorruption()) << ckpt.status().ToString();
}

TEST(LyingHeaderTest, DistResultPartitionCount) {
  std::string img = "XFDR";
  Le<uint32_t>(&img, 1);
  for (int i = 0; i < 4; ++i) Le<double>(&img, 0.0);
  Le<int64_t>(&img, int64_t{1} << 61);  // partitions
  const std::string path = TempPath("lying_result.bin");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, img).ok());
  Result<dist::DistributedResult> result(Status::Internal("not run"));
  ExpectBounded("dist result", img.size(),
                [&] { result = dist::LoadDistResult(path); });
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
}

// ---- Truncation and mutation sweep over every public decoder. ------------

TEST(DecoderSweepTest, GraphFile) {
  const std::string path = TempPath("sweep_src.xfgr");
  ASSERT_TRUE(graph::SaveGraph(TinyGraph(), path).ok());
  SweepFile("sweep.xfgr", ImageOf(path), [](const std::string& p) {
    return graph::LoadGraph(p).status();
  });
}

TEST(DecoderSweepTest, ParameterFile) {
  const std::string path = TempPath("sweep_src.xfck");
  ASSERT_TRUE(nn::SaveParameters(TinyParams(), path).ok());
  SweepFile("sweep.xfck", ImageOf(path), [](const std::string& p) {
    std::vector<nn::NamedParameter> params = TinyParams();
    return nn::LoadParameters(p, &params);
  });
}

TEST(DecoderSweepTest, TrainerCheckpointFile) {
  const std::string path = TempPath("sweep_src.ckpt");
  ASSERT_TRUE(train::SaveTrainerCheckpoint(TinyCheckpoint(), path).ok());
  SweepFile("sweep.ckpt", ImageOf(path), [](const std::string& p) {
    return train::LoadTrainerCheckpoint(p).status();
  });
}

TEST(DecoderSweepTest, DistResultFile) {
  const std::string path = TempPath("sweep_src.bin");
  ASSERT_TRUE(dist::SaveDistResult(TinyDistResult(), path).ok());
  SweepFile("sweep_result.bin", ImageOf(path), [](const std::string& p) {
    return dist::LoadDistResult(p).status();
  });
}

TEST(DecoderSweepTest, LogKvRecovery) {
  // No file CRC here: LogKv records carry their own, and recovery keeps the
  // valid prefix, so a damaged log must open or fail with a Status.
  const std::string src = TempPath("sweep_src.log");
  std::filesystem::remove(src);
  {
    auto store = kv::LogKvStore::Open(src);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put("k1", "value-one").ok());
    ASSERT_TRUE(store.value()->PublishEpoch().ok());
    ASSERT_TRUE(store.value()->Delete("k1").ok());
    ASSERT_TRUE(store.value()->Put("k2", "v2").ok());
  }
  Result<std::string> image = ReadFileToString(src);
  ASSERT_TRUE(image.ok());
  const std::string path = TempPath("sweep.log");
  for (const Variant& v : Damaged(image.value(), kMutations, 7)) {
    ASSERT_TRUE(AtomicWriteFile(path, v.bytes).ok());
    ExpectBounded("log", v.bytes.size(), [&] {
      auto store = kv::LogKvStore::Open(path);
      if (store.ok()) {
        std::string value;
        (void)store.value()->Get("k2", &value);  // either outcome is fine
      }
    });
  }
}

TEST(DecoderSweepTest, FrameHeader) {
  FrameHeader header;
  header.type = FrameType::kGather;
  header.rank = 2;
  header.seq = 77;
  header.payload_bytes = 24;
  header.payload_crc = 0x12345678u;
  unsigned char encoded[kFrameHeaderBytes];
  EncodeFrameHeader(header, encoded);
  const std::string image(reinterpret_cast<const char*>(encoded),
                          sizeof(encoded));
  for (const Variant& v : Damaged(image, kMutations, 11)) {
    if (v.truncated) continue;  // the decoder reads a fixed 32-byte block
    ExpectBounded("frame", v.bytes.size(), [&] {
      Result<FrameHeader> got = DecodeFrameHeader(
          reinterpret_cast<const unsigned char*>(v.bytes.data()));
      if (got.ok()) {
        EXPECT_LE(got.value().payload_bytes,
                  MaxFramePayload(got.value().type));
      }
    });
  }
}

TEST(DecoderSweepTest, ServeWirePayloads) {
  serve::ScoreRequestWire req;
  req.epoch = 5;
  req.deadline_s = 0.5;
  req.txn_node = 12;
  serve::ScoreReplyWire reply;
  reply.status = Status::Unavailable("shed under load");
  reply.response.score = 0.25;
  serve::HealthWire health;
  health.generation = 3;
  health.requests_served = 40;
  struct Codec {
    std::string image;
    std::function<Status(const std::string&)> decode;
  };
  const std::vector<Codec> codecs = {
      {serve::EncodeScoreRequest(req),
       [](const std::string& b) {
         return serve::DecodeScoreRequest(b.data(), b.size()).status();
       }},
      {serve::EncodeScoreReply(reply),
       [](const std::string& b) {
         return serve::DecodeScoreReply(b.data(), b.size()).status();
       }},
      {serve::EncodeHealth(health),
       [](const std::string& b) {
         return serve::DecodeHealth(b.data(), b.size()).status();
       }},
  };
  for (const Codec& codec : codecs) {
    for (const Variant& v : Damaged(codec.image, kMutations, 13)) {
      Status s;
      ExpectBounded("wire", v.bytes.size(), [&] { s = codec.decode(v.bytes); });
      if (v.truncated) {
        EXPECT_FALSE(s.ok());
      }
    }
  }
}

TEST(DecoderSweepTest, FeatureStoreRecords) {
  kv::MemKvStore clean;
  ASSERT_TRUE(kv::FeatureStore(&clean).Ingest(TinyGraph()).ok());
  for (const std::string key : {"m", "n0", "f0", "a0", "a1"}) {
    std::string record;
    ASSERT_TRUE(clean.Get(key, &record).ok());
    for (const Variant& v : Damaged(record, kMutations, 17)) {
      kv::MemKvStore store;
      ASSERT_TRUE(kv::FeatureStore(&store).Ingest(TinyGraph()).ok());
      ASSERT_TRUE(store.Put(key, v.bytes).ok());
      const kv::FeatureStore features(&store);
      ExpectBounded("feature store " + key, v.bytes.size(), [&] {
        (void)features.NumNodes();
        (void)features.FeatureDim();
        graph::NodeType type = graph::NodeType::kTxn;
        int8_t label = 0;
        (void)features.ReadNode(0, &type, &label);
        std::vector<float> row;
        (void)features.ReadFeatures(0, &row);
        std::vector<int32_t> neighbors;
        std::vector<uint8_t> etypes;
        (void)features.ReadNeighbors(0, &neighbors, &etypes);
        (void)features.ReadNeighbors(1, &neighbors, &etypes);
      });
      ExpectBounded("feature store batch " + key, 64, [&] {
        Rng rng(1);
        (void)features.LoadBatch({0}, 2, -1, &rng, kv::kHeadEpoch);
      });
    }
  }
}

}  // namespace
}  // namespace xfraud
