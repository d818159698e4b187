#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {

/// Chemical (percolation) distance D(u, v): the length of the shortest open
/// path between u and v in G_p. Returns nullopt when they are not connected
/// *or* when the search visited `max_vertices` vertices without resolving
/// (0 = unbounded; use open_connected for a three-valued answer).
///
/// Lemma 8 of the paper (Antal-Pisztora) asserts that above criticality
/// D(x, y) <= rho * d(x, y) up to exponentially unlikely exceptions; the
/// chemical-distance experiments (E9, E10) measure exactly this ratio.
///
/// `flat_budget_vertices` selects the adjacency backend (resolve_adjacency
/// in graph/flat_adjacency.hpp): CSR rows when it gives one, else the
/// family's closed form or the virtual interface (the only option for huge
/// implicit graphs of the other families).
/// Either way the parents live in per-thread VertexMarks
/// (graph/vertex_marks.hpp). Identical distances and paths.
[[nodiscard]] std::optional<std::uint64_t> chemical_distance(
    const Topology& graph, const EdgeSampler& sampler, VertexId u, VertexId v,
    std::uint64_t max_vertices = 0,
    std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// As above, but also returns a shortest open path (empty if disconnected).
struct ChemicalPathResult {
  std::optional<std::uint64_t> distance;
  std::vector<VertexId> path;  // u .. v when distance.has_value()
};

[[nodiscard]] ChemicalPathResult chemical_path(
    const Topology& graph, const EdgeSampler& sampler, VertexId u, VertexId v,
    std::uint64_t max_vertices = 0,
    std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

}  // namespace faultroute
