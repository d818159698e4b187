#include "percolation/chemical_distance.hpp"

#include <algorithm>

#include "graph/bfs_scratch.hpp"
#include "percolation/open_edges.hpp"

namespace faultroute {

namespace {

template <typename Edges>
ChemicalPathResult chemical_path_bfs(const Edges& edges, VertexId u, VertexId v,
                                     std::uint64_t max_vertices) {
  ChemicalPathResult result;
  detail::BfsScratch& scratch = detail::bfs_scratch();
  scratch.begin(edges.num_vertices());
  scratch.marks.emplace(u, u);
  scratch.dist_queue.emplace_back(u, 0);
  std::uint64_t discovered = 1;
  std::size_t head = 0;
  while (head < scratch.dist_queue.size()) {
    const auto [x, dx] = scratch.dist_queue[head++];
    const std::uint64_t end = edges.row_end(x);
    for (std::uint64_t pos = edges.row_begin(x); pos < end; ++pos) {
      const VertexId y = edges.neighbor(x, pos);
      if (scratch.marks.contains(y)) continue;
      if (!edges.is_open(x, pos)) continue;
      scratch.marks.emplace(y, x);
      ++discovered;
      if (y == v) {
        result.distance = dx + 1;
        for (VertexId z = v;; z = scratch.marks.at(z)) {
          result.path.push_back(z);
          if (z == u) break;
        }
        std::reverse(result.path.begin(), result.path.end());
        return result;
      }
      if (max_vertices != 0 && discovered >= max_vertices) return result;  // unknown
      scratch.dist_queue.emplace_back(y, dx + 1);
    }
  }
  result.distance = std::nullopt;  // exhausted the cluster: disconnected
  return result;
}

}  // namespace

ChemicalPathResult chemical_path(const Topology& graph, const EdgeSampler& sampler,
                                 VertexId u, VertexId v, std::uint64_t max_vertices,
                                 std::uint64_t flat_budget_vertices) {
  if (u == v) {
    ChemicalPathResult result;
    result.distance = 0;
    result.path = {u};
    return result;
  }
  return detail::with_open_edges(graph, sampler, flat_budget_vertices, [&](const auto& edges) {
    return chemical_path_bfs(edges, u, v, max_vertices);
  });
}

std::optional<std::uint64_t> chemical_distance(const Topology& graph,
                                               const EdgeSampler& sampler, VertexId u,
                                               VertexId v, std::uint64_t max_vertices,
                                               std::uint64_t flat_budget_vertices) {
  return chemical_path(graph, sampler, u, v, max_vertices, flat_budget_vertices).distance;
}

}  // namespace faultroute
