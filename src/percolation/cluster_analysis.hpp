#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/explicit_graph.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/union_find.hpp"

namespace faultroute {

/// Summary of the open-cluster structure of a percolated finite graph.
struct ComponentSummary {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_open_edges = 0;
  std::uint64_t num_components = 0;
  std::uint64_t largest = 0;        // size of the largest open cluster
  std::uint64_t second_largest = 0; // size of the runner-up (0 if none)

  /// Fraction of vertices in the largest cluster — the giant-component
  /// indicator of [AKS82] and of percolation theory.
  [[nodiscard]] double largest_fraction() const {
    return num_vertices == 0 ? 0.0
                             : static_cast<double>(largest) / static_cast<double>(num_vertices);
  }
};

/// Full cluster decomposition: summary plus a union-find for same-cluster
/// queries. Materialises every edge once — O(V + E) time, O(V) memory — so
/// only use on graphs small enough to enumerate (<= ~10^8 edges).
///
/// `flat_budget_vertices` selects the adjacency backend the edge sweep runs
/// over (resolve_adjacency in graph/flat_adjacency.hpp): CSR rows with
/// indexed sampler queries when the graph fits it, the virtual interface
/// otherwise. Results are identical; the
/// flat sweep is faster.
class ClusterDecomposition {
 public:
  ClusterDecomposition(const Topology& graph, const EdgeSampler& sampler,
                       std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

  [[nodiscard]] const ComponentSummary& summary() const { return summary_; }

  [[nodiscard]] bool same_cluster(VertexId u, VertexId v) { return dsu_.same(u, v); }
  [[nodiscard]] std::uint64_t cluster_size(VertexId v) { return dsu_.size_of(v); }

  /// True iff v lies in the (unique) largest cluster.
  [[nodiscard]] bool in_largest_cluster(VertexId v);

 private:
  ComponentSummary summary_;
  UnionFind dsu_;
  std::uint64_t largest_root_;
};

/// Convenience: just the summary (no same-cluster queries needed).
[[nodiscard]] ComponentSummary analyze_components(
    const Topology& graph, const EdgeSampler& sampler,
    std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// BFS over open edges from `source`, stopping once `max_vertices` vertices
/// have been reached (0 = unbounded). Returns the visited vertices in BFS
/// order. Adjacency per `flat_budget_vertices`: CSR rows when the graph
/// fits it, the implicit interface otherwise — the latter is what makes
/// huge implicit graphs affordable, which is exactly what the default
/// budget preserves. The visited set is per-thread VertexMarks
/// (graph/vertex_marks.hpp), so repeated sweeps allocate nothing for the
/// marks within its dense budget.
[[nodiscard]] std::vector<VertexId> open_cluster_of(
    const Topology& graph, const EdgeSampler& sampler, VertexId source,
    std::uint64_t max_vertices = 0,
    std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// Ground-truth connectivity test used to condition experiments on {u ~ v}:
/// BFS from u over open edges until v is found or the cluster is exhausted
/// (or `max_vertices` visited, in which case std::nullopt = "unknown").
[[nodiscard]] std::optional<bool> open_connected(
    const Topology& graph, const EdgeSampler& sampler, VertexId u, VertexId v,
    std::uint64_t max_vertices = 0,
    std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// Materialises the percolated subgraph (all vertices, only open edges) as an
/// ExplicitGraph. Small graphs only.
[[nodiscard]] ExplicitGraph materialize_open_subgraph(
    const Topology& graph, const EdgeSampler& sampler,
    std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

}  // namespace faultroute
