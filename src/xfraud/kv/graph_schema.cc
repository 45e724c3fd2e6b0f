#include "xfraud/kv/graph_schema.h"

#include "xfraud/common/bytes.h"

namespace xfraud::kv {

namespace {

std::string Key(char prefix, int32_t id) {
  std::string key(1, prefix);
  key += std::to_string(id);
  return key;
}

constexpr size_t kAdjacencyEntryBytes = sizeof(int32_t) + sizeof(uint8_t);

}  // namespace

std::string NodeKey(int32_t id) { return Key('n', id); }
std::string FeatKey(int32_t id) { return Key('f', id); }
std::string AdjKey(int32_t id) { return Key('a', id); }

std::string EncodeMeta(int64_t num_nodes, int64_t feature_dim) {
  std::string raw;
  ByteWriter out(&raw);
  out.Put(num_nodes);
  out.Put(feature_dim);
  return raw;
}

Status DecodeMeta(std::string_view raw, int64_t* num_nodes,
                  int64_t* feature_dim) {
  ByteReader in(raw);
  in.Get(num_nodes);
  in.Get(feature_dim);
  return in.status("metadata record");
}

std::string EncodeNode(graph::NodeType type, int8_t label, bool has_features) {
  std::string raw;
  ByteWriter out(&raw);
  out.Put(static_cast<uint8_t>(type));
  out.Put(label);
  out.Put(static_cast<uint8_t>(has_features ? 1 : 0));
  return raw;
}

Status DecodeNode(std::string_view raw, graph::NodeType* type, int8_t* label) {
  ByteReader in(raw);
  const uint8_t type_byte = in.Get<uint8_t>();
  in.Get(label);
  in.Get<uint8_t>();  // has_features
  if (in.ok() && type_byte >= graph::kNumNodeTypes) {
    in.Fail("bad node type byte");
  }
  *type = static_cast<graph::NodeType>(type_byte);
  return in.status("node record");
}

std::string EncodeFeatures(const float* row, size_t dim) {
  std::string raw;
  ByteWriter(&raw).PutArray(row, dim);
  return raw;
}

Status DecodeFeatures(std::string_view raw, std::vector<float>* row) {
  ByteReader in(raw);
  if (raw.size() % sizeof(float) != 0) in.Fail("partial float");
  in.GetArray(raw.size() / sizeof(float), row);
  return in.status("feature record");
}

void AppendAdjacency(int32_t neighbor, graph::EdgeType type,
                     std::string* record) {
  ByteWriter out(record);
  out.Put(neighbor);
  out.Put(static_cast<uint8_t>(type));
}

Status DecodeAdjacency(std::string_view raw, std::vector<int32_t>* neighbors,
                       std::vector<uint8_t>* edge_types) {
  ByteReader in(raw);
  if (raw.size() % kAdjacencyEntryBytes != 0) in.Fail("partial entry");
  const size_t count = raw.size() / kAdjacencyEntryBytes;
  neighbors->resize(count);
  edge_types->resize(count);
  for (size_t i = 0; i < count && in.ok(); ++i) {
    in.Get(&(*neighbors)[i]);
    if (in.Get(&(*edge_types)[i]) &&
        (*edge_types)[i] >= graph::kNumEdgeTypes) {
      in.Fail("bad edge type byte");
    }
  }
  return in.status("adjacency record");
}

}  // namespace xfraud::kv
