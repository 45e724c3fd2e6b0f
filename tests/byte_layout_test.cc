// Byte-layout pins: each persisted or transmitted format encodes a small
// fixed value and is compared byte for byte with a hex literal. The
// literals were captured from the original hand-written encoders, so any
// drift in magic, field order, width or endianness fails here.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/frame.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/serve/wire.h"

namespace xfraud {
namespace {

std::string Hex(const void* data, size_t n) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const auto* p = static_cast<const unsigned char*>(data);
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[p[i] >> 4]);
    out.push_back(kDigits[p[i] & 0xf]);
  }
  return out;
}

std::string Hex(const std::string& bytes) {
  return Hex(bytes.data(), bytes.size());
}

std::string FreshPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

TEST(ByteLayoutTest, FrameHeader) {
  FrameHeader header;
  header.type = FrameType::kScoreRequest;
  header.flags = 0x0102;
  header.rank = 3;
  header.seq = 0x1122334455667788ULL;
  header.payload_bytes = 20;
  header.payload_crc = 0xdeadbeefu;
  unsigned char buf[kFrameHeaderBytes];
  EncodeFrameHeader(header, buf);
  EXPECT_EQ(Hex(buf, sizeof(buf)),
            "5846524d090002010300000088776655443322111400000000000000efbeadde");
}

TEST(ByteLayoutTest, ScoreRequest) {
  serve::ScoreRequestWire req;
  req.epoch = 7;
  req.deadline_s = 0.25;
  req.txn_node = -5;
  EXPECT_EQ(Hex(serve::EncodeScoreRequest(req)),
            "070000000000000090d0030000000000fbffffff");
}

TEST(ByteLayoutTest, ScoreReplyWithMessage) {
  serve::ScoreReplyWire reply;
  reply.status = Status::Unavailable("shed");
  reply.response.score = 0.75;
  reply.response.imputed_rows = 2;
  reply.response.latency_s = 0.5;
  reply.response.deadline_slack_s = -0.125;
  reply.response.degraded = true;
  reply.response.from_prefilter = false;
  EXPECT_EQ(Hex(serve::EncodeScoreReply(reply)),
            "09000000000000000000e83f020000000000000000000000"
            "0000e03f000000000000c0bf01000400000073686564");
}

TEST(ByteLayoutTest, Health) {
  serve::HealthWire health;
  health.generation = 9;
  health.requests_served = 1234;
  EXPECT_EQ(Hex(serve::EncodeHealth(health)),
            "0900000000000000d204000000000000");
}

TEST(ByteLayoutTest, LogKvPutAndEpochRecords) {
  const std::string path = FreshPath("byte_layout.log");
  {
    auto store = kv::LogKvStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Put("k1", "v").ok());
    ASSERT_TRUE(store.value()->PublishEpoch().ok());
  }
  Result<std::string> image = ReadFileToString(path);
  ASSERT_TRUE(image.ok());
  // Put record, then the epoch-1 commit marker.
  EXPECT_EQ(Hex(image.value()),
            "0fcfd2250102000000010000006b3176"
            "59dcd3500300000000080000000100000000000000");
}

TEST(ByteLayoutTest, FeatureStoreRecords) {
  // Two nodes: transaction 0 (fraud, features {1.5, -2}) linked to buyer 1.
  using graph::NodeType;
  graph::HeteroGraph g(
      {NodeType::kTxn, NodeType::kBuyer}, {0, 1, 2}, {1, 0},
      {graph::EntityToTxnEdge(NodeType::kBuyer),
       graph::TxnToEntityEdge(NodeType::kBuyer)},
      nn::Tensor(1, 2, std::vector<float>{1.5f, -2.0f}), {0, -1},
      {graph::kLabelFraud, graph::kLabelUnknown});
  kv::MemKvStore store;
  ASSERT_TRUE(kv::FeatureStore(&store).Ingest(g).ok());
  auto record = [&](const std::string& key) {
    std::string value;
    EXPECT_TRUE(store.Get(key, &value).ok()) << key;
    return Hex(value);
  };
  EXPECT_EQ(record("m"), "02000000000000000200000000000000");
  EXPECT_EQ(record("n0"), "000101");
  EXPECT_EQ(record("n1"), "04ff00");
  EXPECT_EQ(record("f0"), "0000c03f000000c0");
  EXPECT_EQ(record("a0"), "0100000007");
  EXPECT_EQ(record("a1"), "0000000006");
}

TEST(ByteLayoutTest, ParameterFileImage) {
  const std::string path = FreshPath("byte_layout.xfck");
  std::vector<nn::NamedParameter> params;
  params.push_back(
      {"w", nn::Var(nn::Tensor(1, 2, std::vector<float>{1.0f, -0.5f}))});
  ASSERT_TRUE(nn::SaveParameters(params, path).ok());
  Result<std::string> image = ReadFileToString(path);
  ASSERT_TRUE(image.ok());
  // Includes the 8-byte CRC footer AtomicWriteFileWithCrc appends.
  EXPECT_EQ(Hex(image.value()),
            "5846434b01000000010000007701000000000000000200000000000000"
            "0000803f000000bfad29b1f058464352");
}

}  // namespace
}  // namespace xfraud
