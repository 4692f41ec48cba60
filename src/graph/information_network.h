// The Twitter information network G = {U, E} of Section III.
//
// Nodes are users; a directed edge (u, v) exists iff v follows u, so content
// flows along edges: a tweet by u is visible to all out-neighbors of u
// ("followers"). Storage is CSR in both directions (followers and
// followees), immutable after construction.

#ifndef RETINA_GRAPH_INFORMATION_NETWORK_H_
#define RETINA_GRAPH_INFORMATION_NETWORK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"

namespace retina::graph {

using NodeId = uint32_t;

/// Sentinel distance for unreachable nodes.
inline constexpr int kUnreachable = -1;

/// \brief Immutable directed information network in CSR form.
class InformationNetwork {
 public:
  /// An empty network (0 nodes); populate via FromEdges.
  InformationNetwork() : offsets_(1, 0), rev_offsets_(1, 0) {}

  /// Builds the network from an edge list. Self-loops and duplicate edges
  /// are dropped. Returns InvalidArgument if any endpoint is >= num_nodes.
  static Result<InformationNetwork> FromEdges(
      size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges);

  size_t NumNodes() const { return offsets_.size() - 1; }
  size_t NumEdges() const { return targets_.size(); }

  /// Users who follow `u` (receive u's tweets). Sorted ascending.
  std::span<const NodeId> Followers(NodeId u) const;

  /// Users whom `u` follows (u receives their tweets). Sorted ascending.
  std::span<const NodeId> Followees(NodeId u) const;

  size_t FollowerCount(NodeId u) const { return Followers(u).size(); }
  size_t FolloweeCount(NodeId u) const { return Followees(u).size(); }

  /// True iff the edge (u, v) exists, i.e. v follows u. O(log deg(u)).
  bool HasEdge(NodeId u, NodeId v) const;

  /// BFS distances from src to all nodes within `cutoff` hops
  /// (kUnreachable beyond). O(V+E) but early-exits at the cutoff ring.
  std::vector<int> BfsDistances(NodeId src, int cutoff) const;

 private:
  // Forward CSR: followers.
  std::vector<size_t> offsets_;
  std::vector<NodeId> targets_;
  // Reverse CSR: followees.
  std::vector<size_t> rev_offsets_;
  std::vector<NodeId> rev_targets_;
};

}  // namespace retina::graph

#endif  // RETINA_GRAPH_INFORMATION_NETWORK_H_
