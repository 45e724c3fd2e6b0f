#ifndef XFRAUD_KV_GRAPH_SCHEMA_H_
#define XFRAUD_KV_GRAPH_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xfraud/common/status.h"
#include "xfraud/graph/hetero_graph.h"

namespace xfraud::kv {

/// The FeatureStore serving schema: the keys and record encodings a graph
/// is stored under in a KvStore. FeatureStore (bulk Ingest and every read)
/// and stream::GraphIngestor (incremental flushes and Attach) both go
/// through here, so the layout has one owner.
///
///   "m"     -> {num_nodes: i64, feature_dim: i64}
///   "n<id>" -> {type: u8, label: i8, has_features: u8}
///   "f<id>" -> f32[feature_dim] (transaction nodes only)
///   "a<id>" -> (i32 neighbor, u8 edge_type)[in_degree]
///
/// Decoders return Corruption for a record of the wrong size or with an
/// out-of-range type byte.

inline constexpr char kMetaKey[] = "m";
std::string NodeKey(int32_t id);
std::string FeatKey(int32_t id);
std::string AdjKey(int32_t id);

std::string EncodeMeta(int64_t num_nodes, int64_t feature_dim);
Status DecodeMeta(std::string_view raw, int64_t* num_nodes,
                  int64_t* feature_dim);

std::string EncodeNode(graph::NodeType type, int8_t label, bool has_features);
/// has_features is implied by the presence of an "f" record; not returned.
Status DecodeNode(std::string_view raw, graph::NodeType* type, int8_t* label);

std::string EncodeFeatures(const float* row, size_t dim);
Status DecodeFeatures(std::string_view raw, std::vector<float>* row);

/// Appends one in-edge to an adjacency record.
void AppendAdjacency(int32_t neighbor, graph::EdgeType type,
                     std::string* record);
Status DecodeAdjacency(std::string_view raw, std::vector<int32_t>* neighbors,
                       std::vector<uint8_t>* edge_types);

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_GRAPH_SCHEMA_H_
