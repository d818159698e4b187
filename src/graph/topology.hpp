#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace faultroute {

class ChannelIndex;
class FlatAdjacency;

/// Vertex identifier. Every topology numbers its vertices contiguously in
/// [0, num_vertices()), so analyses may use vertex-indexed arrays.
using VertexId = std::uint64_t;

/// Canonical undirected edge identifier. Both endpoints of an edge must
/// compute the same key; distinct edges (including parallel edges, which some
/// topologies such as the wrapped butterfly allow) must have distinct keys.
using EdgeKey = std::uint64_t;

/// The unordered endpoint pair of an edge (order unspecified).
struct EdgeEndpoints {
  VertexId a = 0;
  VertexId b = 0;
};

/// Abstract interface for an implicit undirected graph.
///
/// Topologies are *implicit*: adjacency is computed, never stored, so a
/// hypercube with 2^n vertices costs nothing until touched. This is what lets
/// the probe model of the paper be simulated exactly — a routing algorithm
/// pays only for the edges it queries.
///
/// Contract:
///  * vertices are 0 .. num_vertices()-1;
///  * `neighbor(v, i)` for i in [0, degree(v)) enumerates the incident edges;
///  * `edge_key(v, i)` is symmetric: if neighbor(v, i) == w and
///    neighbor(w, j) == v refer to the same physical edge, then
///    edge_key(v, i) == edge_key(w, j);
///  * the default `distance` / `shortest_path` run a BFS on the implicit
///    graph and are therefore only suitable for small instances; topologies
///    with a closed-form metric override them;
///  * a family with closed-form edge ids (`has_closed_form_edge_ids`)
///    returns from `edge_id(v, i)` exactly the first-appearance numbering
///    ChannelIndex's table holds.
class Topology {
 public:
  Topology();
  /// Copy-construction shares nothing: the lazily-built channel-index cache
  /// stays with the original and is rebuilt on demand by the copy.
  /// Copy-assignment is deleted outright — a once-built cache cannot be
  /// invalidated (std::once_flag is not resettable), so assigning a
  /// different graph over a topology that already built its index would
  /// leave a stale index behind.
  Topology(const Topology&);
  Topology& operator=(const Topology&) = delete;
  virtual ~Topology();

  /// Number of vertices.
  [[nodiscard]] virtual std::uint64_t num_vertices() const = 0;

  /// Number of undirected edges.
  [[nodiscard]] virtual std::uint64_t num_edges() const = 0;

  /// Degree of vertex v (number of incident edges, counting parallel edges).
  [[nodiscard]] virtual int degree(VertexId v) const = 0;

  /// The degree of every vertex when the family is regular (hypercube,
  /// torus, complete graph, butterfly, CCC, cycle-matching), else 0.
  /// ChannelIndex then lays its offsets out arithmetically instead of asking
  /// degree() once per vertex.
  [[nodiscard]] virtual int regular_degree() const { return 0; }

  /// The i-th neighbor of v, for i in [0, degree(v)).
  [[nodiscard]] virtual VertexId neighbor(VertexId v, int i) const = 0;

  /// Canonical key of the i-th incident edge of v.
  [[nodiscard]] virtual EdgeKey edge_key(VertexId v, int i) const = 0;

  /// The two endpoints of the edge with canonical key `key`. Every topology
  /// in this library uses an invertible key encoding, which is what lets
  /// the shared probe cache recover endpoints at probe time on implicit
  /// graphs. The key must have been produced by edge_key() of this topology.
  [[nodiscard]] virtual EdgeEndpoints endpoints(EdgeKey key) const = 0;

  /// Human-readable topology name, e.g. "hypercube(n=12)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Graph distance between u and v in the fault-free topology.
  /// Default: BFS (small graphs only). Returns num_vertices() if unreachable.
  [[nodiscard]] virtual std::uint64_t distance(VertexId u, VertexId v) const;

  /// The fault-free distance from every neighbor of x to `target`: out[i] =
  /// distance(neighbor(x, i), target) for i in [0, degree(x)), so `out`
  /// must hold degree(x) entries. In a graph metric each entry is within
  /// one of distance(x, target), which is what lets the metric routers
  /// (core/routers/greedy_router.hpp) take their probe order from the row
  /// without sorting it. Default: one distance() call per slot.
  virtual void neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const;

  /// True iff this family overrides distance(), shortest_path() and
  /// neighbor_distances() with a closed form (hypercube Hamming distance,
  /// mesh L1, complete graph); false iff all three are the defaults. Two
  /// callers rely on that contract: the routing phase skips precomputing
  /// distance-oracle columns (graph/distance_oracle.hpp) for closed forms,
  /// so a metric router reads their rows from neighbor_distances(), and the CSR
  /// shortest_path of graph/flat_adjacency.hpp hands closed forms to the
  /// override, because the override picks its own path, while it runs the
  /// default BFS over CSR rows for every other family. A family that
  /// overrode shortest_path() without returning true here would get a
  /// different landmark path on the flat path than on the implicit one
  /// (tests/test_flat_adjacency.cpp pins the agreement for every family).
  [[nodiscard]] virtual bool has_closed_form_metric() const { return false; }

  /// True iff this family overrides edge_id() below with a closed form
  /// (hypercube, mesh/torus, complete graph, double tree). ChannelIndex then answers
  /// edge ids and their count without building its channel -> edge-id
  /// table, so the implicit path pays no per-channel bytes for them.
  [[nodiscard]] virtual bool has_closed_form_edge_ids() const { return false; }

  /// Closed-form dense undirected-edge id of slot i of v. Contract: equal
  /// to ChannelIndex's first-appearance numbering — walking channels in
  /// ascending id order (vertices ascending, slots ascending), each edge
  /// takes the next id where it first appears — for every slot, so
  /// snapshot files and reports do not depend on which side computed an
  /// id (tests/helpers/reference_edge_ids.hpp pins both). Defined wherever
  /// the topology's ChannelIndex exists (fewer than 2^32 channels); call it
  /// through ChannelIndex::edge_id, which falls back to the table for other
  /// families. The default throws std::logic_error.
  [[nodiscard]] virtual std::uint32_t edge_id(VertexId v, int i) const;

  /// Some shortest path from u to v in the fault-free topology, as a vertex
  /// sequence beginning with u and ending with v. Default: BFS.
  /// Returns an empty vector if v is unreachable from u.
  [[nodiscard]] virtual std::vector<VertexId> shortest_path(VertexId u, VertexId v) const;

  /// Printable label for a vertex (default: its numeric id). Topologies with
  /// structured vertices (mesh coordinates, butterfly (level,row)) override.
  [[nodiscard]] virtual std::string vertex_label(VertexId v) const;

  /// The dense directed-channel index of this topology (see
  /// graph/channel_index.hpp): channel = one direction of one undirected
  /// edge, ids contiguous in [0, degree sum). Built lazily on first use and
  /// cached — O(num_vertices()) once, O(1) thereafter — so repeated traffic
  /// runs over the same topology (scenario sweeps) share one index.
  /// Thread-safe under const access, like the rest of the interface.
  [[nodiscard]] const ChannelIndex& channel_index() const;

  /// The flat CSR adjacency snapshot of this topology (see
  /// graph/flat_adjacency.hpp): per-channel neighbor / edge-key arrays plus
  /// the channel index's offset and edge-id tables, so hot paths resolve
  /// adjacency with array loads instead of virtual dispatch. Built lazily on
  /// first use and cached — O(channels) once, O(1) thereafter. Costs ~20
  /// bytes per directed channel; huge implicit topologies should not call
  /// this (resolve_adjacency's vertex budget sees to that, and it never
  /// asks the hypercube). Thread-safe under const access.
  [[nodiscard]] const FlatAdjacency& flat_adjacency() const;

 private:
  mutable std::once_flag channel_index_once_;
  mutable std::unique_ptr<ChannelIndex> channel_index_;
  mutable std::once_flag flat_adjacency_once_;
  mutable std::unique_ptr<FlatAdjacency> flat_adjacency_;
};

/// Finds the incident-edge index i such that neighbor(u, i) == v,
/// or -1 if u and v are not adjacent. Linear in degree(u); when parallel
/// edges exist the lowest matching index is returned.
[[nodiscard]] int edge_index_of(const Topology& g, VertexId u, VertexId v);

/// Throws std::runtime_error naming the topology-sized `structure` that
/// could not be allocated (the CSR adjacency, a channel-index table), the
/// topology, and the bytes it asked for — in place of a bare
/// std::bad_alloc that names none of them.
[[noreturn]] void throw_allocation_failure(const Topology& graph, const std::string& structure,
                                           std::uint64_t bytes);

/// Collects all canonical edge keys incident to v (ascending i).
[[nodiscard]] std::vector<EdgeKey> incident_edge_keys(const Topology& g, VertexId v);

}  // namespace faultroute
