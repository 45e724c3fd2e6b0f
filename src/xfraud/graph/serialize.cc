#include "xfraud/graph/serialize.h"

#include <vector>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"

namespace xfraud::graph {

namespace {

constexpr std::string_view kMagic = "XFGR";
constexpr uint32_t kVersion = 1;

}  // namespace

Status SaveGraph(const HeteroGraph& g, const std::string& path) {
  // Serialize into memory, then publish via tmp-file + rename with a CRC32
  // footer over the whole image (the in-format checksum only covers the
  // payload arrays, not the header): crash-safe and torn-file-proof.
  std::string image;
  ByteWriter out(&image);
  out.PutBytes(kMagic);
  out.Put(kVersion);
  int64_t num_nodes = g.num_nodes();
  int64_t num_edges = g.num_edges();
  // Count feature rows.
  int64_t feature_rows = 0;
  for (int32_t v = 0; v < num_nodes; ++v) feature_rows += g.HasFeatures(v);
  int64_t feature_dim = g.feature_dim();
  out.Put(num_nodes);
  out.Put(num_edges);
  out.Put(feature_rows);
  out.Put(feature_dim);

  // Node types, labels, feature-row map.
  std::vector<uint8_t> types(num_nodes);
  std::vector<int8_t> labels(num_nodes);
  std::vector<int32_t> feature_row(num_nodes, -1);
  std::vector<float> features;
  features.reserve(feature_rows * feature_dim);
  int32_t next_row = 0;
  for (int32_t v = 0; v < num_nodes; ++v) {
    types[v] = static_cast<uint8_t>(g.node_type(v));
    labels[v] = g.label(v);
    if (g.HasFeatures(v)) {
      feature_row[v] = next_row++;
      const float* row = g.Features(v);
      features.insert(features.end(), row, row + feature_dim);
    }
  }
  std::vector<int64_t> offsets(num_nodes + 1);
  for (int32_t v = 0; v < num_nodes; ++v) offsets[v] = g.InDegreeBegin(v);
  offsets[num_nodes] = num_edges;
  std::vector<uint8_t> edge_types(num_edges);
  for (int64_t e = 0; e < num_edges; ++e) {
    edge_types[e] = static_cast<uint8_t>(g.edge_types()[e]);
  }

  const size_t payload_begin = image.size();
  out.PutArray(types.data(), types.size());
  out.PutArray(labels.data(), labels.size());
  out.PutArray(feature_row.data(), feature_row.size());
  out.PutArray(offsets.data(), offsets.size());
  out.PutArray(g.neighbors().data(), g.neighbors().size());
  out.PutArray(edge_types.data(), edge_types.size());
  out.PutArray(features.data(), features.size());
  out.Put(Crc32(image.data() + payload_begin, image.size() - payload_begin));
  return AtomicWriteFileWithCrc(path, image);
}

Result<HeteroGraph> LoadGraph(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) {
      return Status::IoError("cannot open for read: " + path);
    }
    return raw.status();
  }
  const std::string& image = raw.value();
  ByteReader in(image);
  in.ExpectMagic(kMagic);
  if (in.Get<uint32_t>() != kVersion) in.Fail("unsupported version");
  const int64_t num_nodes = in.Get<int64_t>();
  const int64_t num_edges = in.Get<int64_t>();
  const int64_t feature_rows = in.Get<int64_t>();
  const int64_t feature_dim = in.Get<int64_t>();
  // A negative or oversized count fails its read below (as a huge u64).
  const uint64_t feature_values =
      in.CheckShape(feature_rows, feature_dim, sizeof(float))
          ? static_cast<uint64_t>(feature_rows * feature_dim)
          : 0;

  const size_t payload_begin = in.position();
  std::vector<uint8_t> types;
  std::vector<int8_t> labels;
  std::vector<int32_t> feature_row;
  std::vector<int64_t> offsets;
  std::vector<int32_t> neighbors;
  std::vector<uint8_t> edge_types;
  std::vector<float> features;
  in.GetArray(num_nodes, &types);
  in.GetArray(num_nodes, &labels);
  in.GetArray(num_nodes, &feature_row);
  in.GetArray(static_cast<uint64_t>(num_nodes) + 1, &offsets);
  in.GetArray(num_edges, &neighbors);
  in.GetArray(num_edges, &edge_types);
  in.GetArray(feature_values, &features);
  const size_t payload_end = in.position();
  if (in.Get<uint32_t>() != Crc32(image.data() + payload_begin,
                                  payload_end - payload_begin)) {
    in.Fail("graph payload checksum mismatch");
  }
  XF_RETURN_IF_ERROR(in.status("graph " + path));
  XF_RETURN_IF_ERROR(
      HeteroGraph::CheckCsr(offsets, neighbors, feature_row, feature_rows));

  std::vector<NodeType> node_types(num_nodes);
  for (int64_t v = 0; v < num_nodes; ++v) {
    if (types[v] >= kNumNodeTypes) {
      return Status::Corruption("bad node type in " + path);
    }
    node_types[v] = static_cast<NodeType>(types[v]);
  }
  std::vector<EdgeType> etypes(num_edges);
  for (int64_t e = 0; e < num_edges; ++e) {
    if (edge_types[e] >= kNumEdgeTypes) {
      return Status::Corruption("bad edge type in " + path);
    }
    etypes[e] = static_cast<EdgeType>(edge_types[e]);
  }
  nn::Tensor feature_tensor(feature_rows, feature_dim, std::move(features));
  return HeteroGraph(std::move(node_types), std::move(offsets),
                     std::move(neighbors), std::move(etypes),
                     std::move(feature_tensor), std::move(feature_row),
                     std::move(labels));
}

}  // namespace xfraud::graph
