#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/channel_index.hpp"
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
/// fits a budget.
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

/// Default materialization budget: snapshot when the graph has at most
/// this many vertices. At constant degree d the snapshot costs ~20·2d bytes
/// per vertex, so 2^20 vertices tops out around a few hundred MB for the
/// densest library families — past that, stay implicit.
inline constexpr std::uint64_t kDefaultFlatBudgetVertices = 1ull << 20;

/// The adjacency backend a hot path resolves queries through: the cached
/// snapshot iff num_vertices() fits `flat_budget_vertices`, else nullptr
/// (= the virtual Topology interface). Every observable result is
/// bit-identical either way; the budget trades CSR memory for speed.
/// Library paths take the default, so the choice follows from the vertex
/// count; a budget of 0 forces the implicit side and UINT64_MAX the CSR.
/// A fall-back to virtual dispatch is counted in
/// graph.flat_adjacency.auto_fallbacks (docs/COUNTERS.md), so a sweep
/// silently losing the CSR fast path on a large graph shows up in
/// --metrics instead of only in wall clock.
[[nodiscard]] const FlatAdjacency* resolve_adjacency(
    const Topology& graph, std::uint64_t flat_budget_vertices = kDefaultFlatBudgetVertices);

/// The retired mode argument, kept only because pipebench/pipebench.cpp
/// still spells resolve_adjacency(graph, AdjacencyMode::kAuto): the same
/// call as the default budget. Delete both once it moves to the budget form.
enum class AdjacencyMode { kAuto };
[[nodiscard]] inline const FlatAdjacency* resolve_adjacency(const Topology& graph,
                                                            AdjacencyMode /*mode*/) {
  return resolve_adjacency(graph);
}

/// A zero-cost switchable view over the two adjacency backends, for code
/// (routers, validators) that must run on either: CSR loads when a snapshot
/// is present, virtual dispatch otherwise. The branch predicate is fixed per
/// view, so the per-query cost is one predicted branch.
class AdjacencyView {
 public:
  AdjacencyView(const Topology& graph, const FlatAdjacency* flat)
      : graph_(&graph), flat_(flat) {}

  [[nodiscard]] const Topology& graph() const { return *graph_; }
  [[nodiscard]] const FlatAdjacency* flat() const { return flat_; }

  [[nodiscard]] int degree(VertexId v) const {
    return flat_ != nullptr ? flat_->degree(v) : graph_->degree(v);
  }
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const {
    return flat_ != nullptr ? flat_->neighbor(v, i) : graph_->neighbor(v, i);
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const {
    return flat_ != nullptr ? flat_->edge_key(v, i) : graph_->edge_key(v, i);
  }

  /// Lowest incident slot of u whose neighbor is v, or -1 (the
  /// edge_index_of contract, without virtual dispatch when flat).
  [[nodiscard]] int edge_index_of(VertexId u, VertexId v) const;

 private:
  const Topology* graph_;
  const FlatAdjacency* flat_;
};

/// edge_index_of over a snapshot row (same contract as the Topology
/// overload in graph/topology.hpp: lowest matching slot, -1 if absent).
[[nodiscard]] int edge_index_of(const FlatAdjacency& flat, VertexId u, VertexId v);

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
