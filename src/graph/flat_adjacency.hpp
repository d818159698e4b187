#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "graph/topology.hpp"

namespace faultroute {

class DistanceOracle;
class MappedSnapshot;

/// One-shot CSR (compressed-sparse-row) snapshot of a Topology's adjacency.
///
/// The implicit Topology interface is what lets a 2^n-vertex hypercube exist
/// for free, but it charges three virtual calls (degree/neighbor/edge_key)
/// plus a key recomputation for every adjacency query on the hot paths —
/// probes, router BFS scans, path validation, percolation BFS. This snapshot
/// materializes the answers once: vertex v's incident slots occupy the
/// contiguous row [row_begin(v), row_end(v)) of three parallel arrays
/// (neighbor, canonical edge key, dense undirected-edge id), laid out in
/// ChannelIndex order — the flat position of slot i of v IS the directed
/// channel id channel_of(v, i), so no separate channel array is stored.
/// After the build, a probe or hop resolves with two array loads and zero
/// virtual dispatch or key arithmetic.
///
/// The snapshot borrows the topology's ChannelIndex offset table and edge-id
/// table (the index must outlive the snapshot, which
/// Topology::flat_adjacency() — the intended way to obtain one — guarantees
/// by caching both on the topology). Memory cost: 16 bytes per directed
/// channel of its own (neighbor + key), on top of the index's 4 per channel
/// and 8 per vertex, which is why huge implicit topologies keep the virtual
/// path: resolve_adjacency (below) materializes only when num_vertices()
/// fits a budget, and never for the hypercube, whose closed-form accessor
/// (ClosedFormRows, below) is faster than the snapshot at any size.
///
/// Besides the owning build above, a snapshot can be a *non-owning view*
/// over a memory-mapped on-disk snapshot (graph/snapshot.hpp): the view
/// constructor points the same hot-path arrays into the mapped region, so
/// every accessor below is oblivious to the storage mode and a warm start
/// pages the CSR in instead of rebuilding it. A view performs no
/// materialization work at all — it neither builds the ChannelIndex nor
/// counts a graph.flat_adjacency.materializations.
///
/// All methods are const, O(1), and thread-safe; every value is a pure
/// function of the topology, equal slot-for-slot to the virtual interface
/// (held by tests/test_flat_adjacency.cpp across every topology family).
class FlatAdjacency {
 public:
  /// Builds the snapshot via graph.channel_index() (reusing its traversal
  /// for offsets and edge ids). Prefer Topology::flat_adjacency(), which
  /// builds lazily once and caches. `graph` must outlive the snapshot.
  explicit FlatAdjacency(const Topology& graph);
  /// Non-owning view over a verified mapped snapshot of `graph`'s adjacency
  /// (keeps the mapping alive; see graph/snapshot.hpp). Throws
  /// std::runtime_error if the snapshot's vertex count does not match
  /// `graph`. Defined in snapshot.cpp.
  FlatAdjacency(const Topology& graph, std::shared_ptr<const MappedSnapshot> snapshot);
  ~FlatAdjacency();  // out of line: DistanceOracle is incomplete here

  /// The snapshot's cached fault-free DistanceOracle (graph/distance_oracle
  /// .hpp), built lazily on first request exactly like
  /// Topology::channel_index(); subsequent calls return the same instance,
  /// so landmark and exact-column work is shared by every router, p-value,
  /// and trial that routes over this topology. Thread-safe.
  [[nodiscard]] const DistanceOracle& distance_oracle() const;

  [[nodiscard]] const Topology& graph() const { return *graph_; }
  [[nodiscard]] std::uint64_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] std::uint32_t num_channels() const { return num_channels_; }
  [[nodiscard]] std::uint32_t num_edge_ids() const { return num_edge_ids_; }
  /// True for a mapped-snapshot view, false for an owning build.
  [[nodiscard]] bool is_view() const { return snapshot_ != nullptr; }

  /// Flat positions of v's incident-slot row; position p == channel id p.
  [[nodiscard]] std::uint64_t row_begin(VertexId v) const { return offsets_[v]; }
  [[nodiscard]] std::uint64_t row_end(VertexId v) const { return offsets_[v + 1]; }
  [[nodiscard]] int degree(VertexId v) const {
    return static_cast<int>(offsets_[v + 1] - offsets_[v]);
  }

  /// Slot accessors, value-identical to the Topology virtual interface.
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const {
    return neighbors_[offsets_[v] + static_cast<std::uint64_t>(i)];
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const {
    return keys_[offsets_[v] + static_cast<std::uint64_t>(i)];
  }
  /// Dense undirected-edge id of slot i of v, == ChannelIndex::edge_id_of of
  /// the matching channel (the index the dense probe-state arrays use).
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    return edge_ids_[offsets_[v] + static_cast<std::uint64_t>(i)];
  }
  /// Directed channel id of slot i of v, == ChannelIndex::channel_of(v, i).
  [[nodiscard]] std::uint32_t channel_of(VertexId v, int i) const {
    return static_cast<std::uint32_t>(offsets_[v] + static_cast<std::uint64_t>(i));
  }

  /// Row-position accessors for callers iterating [row_begin, row_end).
  [[nodiscard]] VertexId neighbor_at(std::uint64_t pos) const { return neighbors_[pos]; }
  [[nodiscard]] EdgeKey edge_key_at(std::uint64_t pos) const { return keys_[pos]; }
  [[nodiscard]] std::uint32_t edge_id_at(std::uint64_t pos) const { return edge_ids_[pos]; }

  /// Bytes owned by the snapshot arrays (excluding the borrowed offset and
  /// edge-id tables). A mapped view owns nothing — its pages belong to the
  /// file mapping.
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return owned_.size() * sizeof(std::uint64_t);
  }

  /// Raw array views for the on-disk snapshot writer (graph/snapshot.cpp):
  /// offsets has num_vertices() + 1 entries, the rest num_channels() each.
  [[nodiscard]] const std::uint64_t* offsets_data() const { return offsets_; }
  [[nodiscard]] const VertexId* neighbors_data() const { return neighbors_; }
  [[nodiscard]] const EdgeKey* keys_data() const { return keys_; }
  [[nodiscard]] const std::uint32_t* edge_ids_data() const { return edge_ids_; }

 private:
  const Topology* graph_;
  const std::uint64_t* offsets_;  // ChannelIndex's table, or the mapped region
  std::uint64_t num_vertices_ = 0;
  std::uint32_t num_channels_ = 0;
  std::uint32_t num_edge_ids_ = 0;
  // Hot-path array views (per channel): into the owned vectors below (edge
  // ids: into the ChannelIndex's table) for a built snapshot, into the
  // mapped region for a view. The accessors above only ever touch these
  // pointers, so both modes cost the same two loads.
  const VertexId* neighbors_ = nullptr;
  const EdgeKey* keys_ = nullptr;
  const std::uint32_t* edge_ids_ = nullptr;
  // Owning storage (empty in view mode): the neighbor array, then the key
  // array (VertexId and EdgeKey are both 64-bit), in one block like the
  // mapped region. One block instead of two also lets a process that builds
  // and drops CSRs in turn (a set-up sweep over fresh topologies) reuse
  // its heap pages: glibc sets its trim threshold to twice the largest
  // block it has unmapped, so a CSR-sized block keeps the next build from
  // faulting the pages in again.
  std::vector<std::uint64_t> owned_;
  // View mode: keeps the mapping (and with it every pointer above) alive.
  std::shared_ptr<const MappedSnapshot> snapshot_;

  // Lazy distance-oracle cache (the once_flag makes the snapshot
  // non-copyable, which is right: it is always owned by its Topology or by
  // the snapshot-view holder).
  mutable std::once_flag oracle_once_;
  mutable std::unique_ptr<DistanceOracle> oracle_;
};

/// Default materialization budget for every family but the hypercube: its
/// CSR is built when the graph has at most this many vertices. At constant
/// degree d the snapshot costs ~20·2d bytes per vertex, so 2^20 vertices
/// tops out around a few hundred MB for the densest library families —
/// past that, stay implicit.
inline constexpr std::uint64_t kDefaultFlatBudgetVertices = 1ull << 20;

/// The CSR a hot path resolves queries through, or nullptr, which leaves
/// the graph on its family's ClosedFormRows accessor (below) or on the
/// virtual interface. Per family:
///  * hypercube: never a CSR, at any size or budget. Its closed form (an
///    XOR per neighbor, a byte loop per edge id) beats the CSR's loads and
///    saves 20 B per channel.
///  * mesh/torus: the CSR within the budget, its closed form past it. A
///    row's closed form decodes the vertex (one division per axis) and
///    computes each slot, several times the cost of a CSR row that sits in
///    cache; so the closed form only replaces virtual dispatch.
///  * every other family, the complete graph included (graph/complete.hpp
///    says why it keeps its CSR for now): the CSR within the budget, the
///    virtual interface past it.
/// Every observable result is bit-identical on every path; the budget
/// trades CSR memory for speed. Library paths take the default, so the
/// choice follows from the family and the vertex count; a budget of 0
/// forces the implicit side and UINT64_MAX the CSR (except on the
/// hypercube). A fall-back to virtual dispatch is counted in
/// graph.flat_adjacency.auto_fallbacks (docs/COUNTERS.md), so a sweep
/// silently losing the CSR fast path on a large graph shows up in
/// --metrics instead of only in wall clock; a family taking its closed
/// form is not a fall-back and is not counted.
[[nodiscard]] const FlatAdjacency* resolve_adjacency(
    const Topology& graph, std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// True iff resolve_adjacency(graph, flat_budget_vertices) leaves `graph`
/// on its family's closed form: the hypercube, or a mesh/torus past the
/// budget. Such a graph routes on no CSR, so an on-disk snapshot of it is
/// not consulted either (scenario runner, `faultroute traffic`).
[[nodiscard]] bool routes_on_closed_form(
    const Topology& graph, std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// The retired mode argument, kept only because pipebench/pipebench.cpp
/// still spells resolve_adjacency(graph, AdjacencyMode::kAuto): the same
/// call as the default budget. Delete both once it moves to the budget form.
enum class AdjacencyMode { kAuto };
[[nodiscard]] inline const FlatAdjacency* resolve_adjacency(const Topology& graph,
                                                            AdjacencyMode /*mode*/) {
  return resolve_adjacency(graph);
}

/// edge_index_of over a snapshot row (same contract as the Topology
/// overload in graph/topology.hpp: lowest matching slot, -1 if absent).
[[nodiscard]] int edge_index_of(const FlatAdjacency& flat, VertexId u, VertexId v);

// ------------------------------------------------------------ row accessors
//
// One accessor per adjacency backend, all with the same members, so that a
// hot loop (a router's row scan, the probe kernel, path validation, a
// percolation BFS) is written once as a template and instantiated per
// backend; AdjacencyView::visit picks the accessor once per call:
//   graph()                         the topology
//   degree(v), neighbor(v, i), edge_key(v, i)
//   edge_id(v, i)                   ChannelIndex::edge_id's value
//   edge_index_of(u, w)             lowest slot of u leading to w, or -1
// Every accessor returns the same values slot for slot
// (tests/test_flat_adjacency.cpp holds each to the virtual interface).

/// The CSR: array loads off the snapshot.
struct FlatRows {
  const FlatAdjacency* flat;

  [[nodiscard]] const Topology& graph() const { return flat->graph(); }
  [[nodiscard]] int degree(VertexId v) const { return flat->degree(v); }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return flat->neighbor(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return flat->edge_key(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const { return flat->edge_id(v, i); }
  [[nodiscard]] int edge_index_of(VertexId u, VertexId w) const {
    return faultroute::edge_index_of(*flat, u, w);
  }
};

/// A `final` family's own inline closed forms: every call resolves at
/// compile time, so nothing is dispatched. The hypercube's need no state;
/// the mesh/torus specialization below keeps one decoded row.
template <typename Family>
struct ClosedFormRows {
  const Family* family;

  [[nodiscard]] const Family& graph() const { return *family; }
  [[nodiscard]] int degree(VertexId v) const { return family->degree(v); }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return family->neighbor(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return family->edge_key(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    return family->edge_id(v, i);
  }
  [[nodiscard]] int edge_index_of(VertexId u, VertexId w) const {
    return family->slot_of(u, w);
  }
};

/// The mesh/torus keeps the last vertex it was asked about decoded in
/// `last`, so a row scan (and the probes, validation and edge ids of that
/// row) pays one coordinate decode, not one per call. `last` belongs to
/// the caller that picked the accessor (AdjacencyView::visit keeps one per
/// visit), so copies of the accessor share it and no thread shares it.
template <>
struct ClosedFormRows<Mesh> {
  const Mesh* family;
  Mesh::Decoded* last;

  [[nodiscard]] const Mesh& graph() const { return *family; }
  [[nodiscard]] const Mesh::Decoded& decoded(VertexId v) const {
    if (last->v != v) {
      family->decode(v, *last);
      family->decode_edge_ids(*last);
    }
    return *last;
  }
  [[nodiscard]] int degree(VertexId v) const { return decoded(v).degree; }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const {
    return family->neighbor(decoded(v), i);
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const {
    return family->edge_key(decoded(v), i);
  }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    return family->edge_id(decoded(v), i);
  }
  [[nodiscard]] int edge_index_of(VertexId u, VertexId w) const {
    return family->slot_of(decoded(u), w);
  }
};

/// The virtual Topology interface: families with no closed form above the
/// vertex budget (or under a budget of 0).
struct VirtualRows {
  const Topology* topology;

  [[nodiscard]] const Topology& graph() const { return *topology; }
  [[nodiscard]] int degree(VertexId v) const { return topology->degree(v); }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return topology->neighbor(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return topology->edge_key(v, i); }
  /// Builds the topology's ChannelIndex on first use.
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    return topology->channel_index().edge_id(v, i);
  }
  [[nodiscard]] int edge_index_of(VertexId u, VertexId w) const {
    return faultroute::edge_index_of(*topology, u, w);
  }
};

/// The families with a ClosedFormRows accessor, as `graph` cast to each
/// (at most one is set). The one list of them: AdjacencyView and
/// resolve_adjacency both read it.
struct ClosedFormFamily {
  const Hypercube* hypercube = nullptr;
  const Mesh* mesh = nullptr;
};
[[nodiscard]] inline ClosedFormFamily closed_form_family(const Topology& graph) {
  return {dynamic_cast<const Hypercube*>(&graph), dynamic_cast<const Mesh*>(&graph)};
}

/// Which accessor a graph routes on, picked once per call by the caller
/// that holds it (a route call, a batch's validation, a percolation
/// analysis): the CSR when one is given, else the family's closed form
/// (hypercube, mesh/torus), else the virtual interface.
class AdjacencyView {
 public:
  /// `flat`: the graph's CSR (resolve_adjacency's answer, or an externally
  /// provided snapshot), or nullptr.
  AdjacencyView(const Topology& graph, const FlatAdjacency* flat)
      : graph_(&graph),
        flat_(flat),
        family_(flat == nullptr ? closed_form_family(graph) : ClosedFormFamily{}) {}

  [[nodiscard]] const Topology& graph() const { return *graph_; }
  [[nodiscard]] const FlatAdjacency* flat() const { return flat_; }

  /// fn(rows) with the view's accessor; fn is instantiated once per
  /// accessor type and must return the same type from each.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    if (flat_ != nullptr) return fn(FlatRows{flat_});
    if (family_.hypercube != nullptr) return fn(ClosedFormRows<Hypercube>{family_.hypercube});
    if (family_.mesh != nullptr) {
      Mesh::Decoded last;
      return fn(ClosedFormRows<Mesh>{family_.mesh, &last});
    }
    return fn(VirtualRows{graph_});
  }

 private:
  const Topology* graph_;
  const FlatAdjacency* flat_;
  ClosedFormFamily family_;
};

/// Some fault-free shortest path from u to v, written to `path` (u first, v
/// last; empty if v is unreachable) — vertex for vertex the path
/// adj.graph().shortest_path(u, v) returns. Closed-form families
/// (Topology::has_closed_form_metric) and implicit views hand off to that
/// call, since the family's override picks its own path; every other family
/// runs the same BFS as Topology's default, over CSR rows instead of virtual
/// neighbor() calls. `path` is an out-parameter so callers on the routing
/// hot path can pool it.
void shortest_path(const AdjacencyView& adj, VertexId u, VertexId v,
                   std::vector<VertexId>& path);

}  // namespace faultroute
