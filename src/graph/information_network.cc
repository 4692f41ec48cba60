#include "graph/information_network.h"

#include <algorithm>
#include <queue>

namespace retina::graph {

Result<InformationNetwork> InformationNetwork::FromEdges(
    size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  for (const auto& [u, v] : edges) {
    if (u >= num_nodes || v >= num_nodes) {
      return Status::InvalidArgument(
          "InformationNetwork::FromEdges: endpoint out of range");
    }
  }
  // Sort + dedup, dropping self-loops.
  std::vector<std::pair<NodeId, NodeId>> clean;
  clean.reserve(edges.size());
  for (const auto& e : edges) {
    if (e.first != e.second) clean.push_back(e);
  }
  std::sort(clean.begin(), clean.end());
  clean.erase(std::unique(clean.begin(), clean.end()), clean.end());

  InformationNetwork net;
  net.offsets_.assign(num_nodes + 1, 0);
  net.targets_.resize(clean.size());
  for (const auto& [u, v] : clean) ++net.offsets_[u + 1];
  for (size_t i = 1; i <= num_nodes; ++i) net.offsets_[i] += net.offsets_[i - 1];
  {
    std::vector<size_t> cursor(net.offsets_.begin(), net.offsets_.end() - 1);
    for (const auto& [u, v] : clean) net.targets_[cursor[u]++] = v;
  }

  // Reverse CSR.
  net.rev_offsets_.assign(num_nodes + 1, 0);
  net.rev_targets_.resize(clean.size());
  for (const auto& [u, v] : clean) ++net.rev_offsets_[v + 1];
  for (size_t i = 1; i <= num_nodes; ++i)
    net.rev_offsets_[i] += net.rev_offsets_[i - 1];
  {
    std::vector<size_t> cursor(net.rev_offsets_.begin(),
                               net.rev_offsets_.end() - 1);
    for (const auto& [u, v] : clean) net.rev_targets_[cursor[v]++] = u;
  }
  // CSR fill in sorted edge order keeps each adjacency list sorted for the
  // forward direction; sort reverse lists explicitly.
  for (size_t v = 0; v < num_nodes; ++v) {
    std::sort(net.rev_targets_.begin() + net.rev_offsets_[v],
              net.rev_targets_.begin() + net.rev_offsets_[v + 1]);
  }
  return net;
}

std::span<const NodeId> InformationNetwork::Followers(NodeId u) const {
  return {targets_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::span<const NodeId> InformationNetwork::Followees(NodeId u) const {
  return {rev_targets_.data() + rev_offsets_[u],
          rev_offsets_[u + 1] - rev_offsets_[u]};
}

bool InformationNetwork::HasEdge(NodeId u, NodeId v) const {
  auto f = Followers(u);
  return std::binary_search(f.begin(), f.end(), v);
}

std::vector<int> InformationNetwork::BfsDistances(NodeId src,
                                                  int cutoff) const {
  std::vector<int> dist(NumNodes(), kUnreachable);
  dist[src] = 0;
  std::queue<NodeId> frontier;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (dist[u] >= cutoff) continue;
    for (NodeId v : Followers(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

}  // namespace retina::graph
