#ifndef XFRAUD_GRAPH_HETERO_GRAPH_H_
#define XFRAUD_GRAPH_HETERO_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xfraud/common/check.h"
#include "xfraud/common/status.h"
#include "xfraud/nn/tensor.h"

namespace xfraud::graph {

/// The five node types of the xFraud transaction graph (paper §3.1):
/// A := {txn, pmt, email, addr, buyer}.
enum class NodeType : uint8_t {
  kTxn = 0,
  kPmt = 1,
  kEmail = 2,
  kAddr = 3,
  kBuyer = 4,
};

inline constexpr int kNumNodeTypes = 5;

/// Directed edge types. Edges only connect transactions with linking
/// entities, in both directions, giving 2 x 4 relation types.
enum class EdgeType : uint8_t {
  kTxnToPmt = 0,
  kPmtToTxn = 1,
  kTxnToEmail = 2,
  kEmailToTxn = 3,
  kTxnToAddr = 4,
  kAddrToTxn = 5,
  kTxnToBuyer = 6,
  kBuyerToTxn = 7,
};

inline constexpr int kNumEdgeTypes = 8;

/// Human-readable names (for visualizations and tables).
const char* NodeTypeName(NodeType type);
const char* EdgeTypeName(EdgeType type);

/// Returns the directed edge type for txn -> entity and entity -> txn.
EdgeType TxnToEntityEdge(NodeType entity);
EdgeType EntityToTxnEdge(NodeType entity);

/// Label constants for transaction nodes.
inline constexpr int8_t kLabelUnknown = -1;
inline constexpr int8_t kLabelBenign = 0;
inline constexpr int8_t kLabelFraud = 1;

/// An immutable heterogeneous transaction graph in CSR form.
///
/// Only transaction nodes carry input features (paper §3.2.1); linking
/// entities start empty and acquire representations through convolution.
/// Directed edges are stored in a single CSR over *incoming* neighbours:
/// for a target node v, In(v) lists the sources that send messages to v —
/// the orientation message passing consumes. Every linkage produces both
/// directions, so the reverse adjacency is the same structure with swapped
/// edge types.
class HeteroGraph {
 public:
  HeteroGraph() = default;

  /// Builder-facing constructor; prefer GraphBuilder for assembly.
  HeteroGraph(std::vector<NodeType> node_types, std::vector<int64_t> offsets,
              std::vector<int32_t> neighbors, std::vector<EdgeType> edge_types,
              nn::Tensor txn_features, std::vector<int32_t> feature_row,
              std::vector<int8_t> labels);

  /// The CSR contract the constructor enforces (offsets from 0, monotone, to
  /// the edge count; neighbours are node ids; feature rows are -1 or inside
  /// `feature_rows`), as a Status a deserializer checks before constructing.
  static Status CheckCsr(const std::vector<int64_t>& offsets,
                         const std::vector<int32_t>& neighbors,
                         const std::vector<int32_t>& feature_row,
                         int64_t feature_rows);

  int64_t num_nodes() const { return static_cast<int64_t>(node_types_.size()); }
  /// Number of directed edges (2x the number of linkages).
  int64_t num_edges() const { return static_cast<int64_t>(neighbors_.size()); }

  NodeType node_type(int32_t v) const {
    XF_DCHECK_BOUNDS(v, num_nodes());
    return node_types_[v];
  }
  const std::vector<NodeType>& node_types() const { return node_types_; }

  /// In-neighbour range of v: indices into neighbors()/edge_types().
  int64_t InDegreeBegin(int32_t v) const {
    XF_DCHECK_BOUNDS(v, num_nodes());
    return offsets_[v];
  }
  int64_t InDegreeEnd(int32_t v) const {
    XF_DCHECK_BOUNDS(v, num_nodes());
    return offsets_[v + 1];
  }
  int64_t InDegree(int32_t v) const {
    XF_DCHECK_BOUNDS(v, num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }

  const std::vector<int32_t>& neighbors() const { return neighbors_; }
  const std::vector<EdgeType>& edge_types() const { return edge_types_; }

  /// Feature dimensionality of transaction nodes.
  int64_t feature_dim() const { return txn_features_.cols(); }

  /// True when v is a transaction with a feature row.
  bool HasFeatures(int32_t v) const {
    XF_DCHECK_BOUNDS(v, num_nodes());
    return feature_row_[v] >= 0;
  }

  /// Feature row pointer for a transaction node v (pre: HasFeatures(v)).
  const float* Features(int32_t v) const {
    XF_DCHECK(HasFeatures(v)) << "node " << v << " has no feature row";
    return txn_features_.Row(feature_row_[v]);
  }

  /// Label of node v (kLabelUnknown for entities and unlabeled txns).
  int8_t label(int32_t v) const {
    XF_DCHECK_BOUNDS(v, num_nodes());
    return labels_[v];
  }
  const std::vector<int8_t>& labels() const { return labels_; }

  /// All transaction node ids with a known label.
  std::vector<int32_t> LabeledTransactions() const;

  /// All node ids of a given type.
  std::vector<int32_t> NodesOfType(NodeType type) const;

  /// Per-type node counts (Table 6).
  std::vector<int64_t> NodeTypeCounts() const;

  /// Fraction of labeled transactions flagged fraud (Table 2's Fraud%).
  double FraudRate() const;

  /// Average directed degree = num_edges()/num_nodes(), i.e. 2x the
  /// undirected edges-per-node statistic of Table 5.
  double AvgDegree() const;

 private:
  std::vector<NodeType> node_types_;
  std::vector<int64_t> offsets_;     // size num_nodes+1
  std::vector<int32_t> neighbors_;   // source node of each incoming edge
  std::vector<EdgeType> edge_types_;
  nn::Tensor txn_features_;          // [num_txn_with_features, F]
  std::vector<int32_t> feature_row_;  // node -> row in txn_features_, or -1
  std::vector<int8_t> labels_;
};

}  // namespace xfraud::graph

#endif  // XFRAUD_GRAPH_HETERO_GRAPH_H_
