#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "graph/topology.hpp"

namespace faultroute {

/// Dense index of the *directed channels* of a topology.
///
/// A channel is one direction of one undirected edge — the unit that queues
/// independently in store-and-forward delivery. Channels are numbered
/// contiguously in [0, num_channels()): vertex v's outgoing channels occupy
/// the slice [offset(v), offset(v) + degree(v)), in incident-slot order, so
/// the id of the channel out of v through slot i is plain arithmetic
/// (no hashing, no node-based containers on the delivery hot path).
///
/// num_channels() equals the degree sum of the graph — 2·num_edges(), with
/// parallel edges (e.g. the k=2 wrapped butterfly) contributing one channel
/// pair each. Ids are 32-bit by design: the traffic engine stores one id per
/// journey hop, and a graph with >= 2^32 directed channels is past what a
/// single delivery simulation can drive anyway; the constructor throws
/// std::length_error rather than truncate.
///
/// The index stores a prefix-sum offset table (8 bytes per vertex), plus a
/// channel -> edge-id table (4 bytes per channel) only once something asks
/// for it (see edge_ids_data), and borrows the topology, which must outlive
/// it. All methods are const and thread-safe. Build once per topology —
/// Topology::channel_index() caches exactly that.
class ChannelIndex {
 public:
  explicit ChannelIndex(const Topology& graph);

  /// Throws the constructor's std::length_error when `graph`'s
  /// 2·num_edges() directed channels cannot have 32-bit ids. O(1) and
  /// allocation-free, so a request too large to simulate can be refused
  /// before anything vertex-sized (a workload, the index itself) is built.
  static void check_capacity(const Topology& graph) {
    // By the handshake lemma the degrees sum to 2 * num_edges().
    const std::uint64_t edges = graph.num_edges();
    if (edges > std::numeric_limits<std::uint32_t>::max() / 2) {
      throw_too_many_channels(graph, 2 * edges);
    }
  }

  /// Total directed channels (== degree sum of the graph).
  [[nodiscard]] std::uint32_t num_channels() const { return num_channels_; }

  /// Id of the channel out of `v` through incident slot `i` (i in
  /// [0, degree(v))). O(1).
  [[nodiscard]] std::uint32_t channel_of(VertexId v, int i) const {
    return static_cast<std::uint32_t>(offsets_[v] + static_cast<std::uint64_t>(i));
  }

  /// The vertex the channel transmits out of. O(log V) (binary search of the
  /// offset table) — used for reporting/aggregation, never on the hot loop.
  [[nodiscard]] VertexId tail(std::uint32_t channel) const;

  /// The incident slot of the channel at its tail vertex.
  [[nodiscard]] int slot(std::uint32_t channel) const;

  /// The vertex the channel transmits into.
  [[nodiscard]] VertexId head(std::uint32_t channel) const;

  /// Canonical key of the undirected edge the channel belongs to.
  [[nodiscard]] EdgeKey edge_of(std::uint32_t channel) const;

  /// Dense id of the *undirected edge* a channel belongs to, contiguous in
  /// [0, num_edge_ids()): both directions of an edge share one id, distinct
  /// edges (including parallel edges) get distinct ids. This is the index
  /// the dense probe-state arrays and the delivery engine's per-edge loads
  /// are keyed by — edge_key() values are canonical but sparse, edge ids are
  /// canonical *and* dense.
  ///
  /// Ids are assigned in order of first appearance by ascending channel id,
  /// so they are a pure function of the topology: the numbering a key-to-id
  /// map gives (tests/helpers/reference_edge_ids.hpp), which is what
  /// snapshot files (graph/snapshot.hpp) store.
  ///
  /// edge_id(v, i) is the call for code that may run on the implicit path:
  /// for families with a closed form (Topology::has_closed_form_edge_ids:
  /// hypercube, mesh/torus, complete, double tree) it computes the id and
  /// builds nothing; for the others it reads the table below.
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    if (closed_form_) return graph_->edge_id(v, i);
    return edge_ids_data()[channel_of(v, i)];
  }

  /// The id of a channel through the channel -> edge-id table, built on
  /// first use. Code on the implicit path calls edge_id(v, i) instead, so
  /// it never forces the table; the CSR (graph/flat_adjacency.hpp) and the
  /// snapshot writer borrow the table.
  [[nodiscard]] std::uint32_t edge_id_of(std::uint32_t channel) const {
    return edge_ids_data()[channel];
  }

  /// Number of distinct undirected edges (== num_edges() of the topology,
  /// counting parallel edges separately). O(1) for closed-form families;
  /// for the others it builds the edge-id table if needed.
  [[nodiscard]] std::uint32_t num_edge_ids() const {
    if (!closed_form_) std::call_once(edge_ids_once_, [this] { build_edge_ids(); });
    return num_edge_ids_;
  }

  /// The raw channel -> edge-id table (num_channels() entries), built on
  /// first call — thread-safe, O(channels) once, 4 bytes per channel — and
  /// counted in graph.channel_index.edge_id_tables (docs/COUNTERS.md).
  /// Borrowers (FlatAdjacency, the snapshot writer) keep the pointer so a
  /// lookup is one load with no call_once fence; it is valid for the
  /// index's lifetime.
  ///
  /// Closed-form families fill it in one sequential pass: a channel v -> w
  /// with w > v is its edge's first appearance and takes the next id, and
  /// its twin takes the closed form. The others run a hash-free pairing
  /// pass: the first appearance is filed under w, and the twin w -> v, met
  /// later, finds it by binary search among the channels filed under w,
  /// comparing edge keys only between parallel edges; that pass borrows
  /// another 4 bytes per channel and 4 per vertex while it runs, and throws
  /// std::logic_error naming the topology and the channel if some channel
  /// has no twin (the neighbor / edge_key symmetry contract of
  /// graph/topology.hpp is broken, or the graph has a self-loop).
  [[nodiscard]] const std::uint32_t* edge_ids_data() const {
    std::call_once(edge_ids_once_, [this] { build_edge_ids(); });
    return edge_ids_.data();
  }

  /// The raw prefix-sum offset table (size num_vertices() + 1), for snapshot
  /// builders (graph/flat_adjacency.hpp) that want zero-indirection row
  /// bounds without duplicating 8 bytes per vertex. The pointer is valid for
  /// the index's lifetime.
  [[nodiscard]] const std::uint64_t* offsets_data() const { return offsets_.data(); }

 private:
  [[noreturn]] static void throw_too_many_channels(const Topology& graph,
                                                   std::uint64_t channels);
  void build_edge_ids() const;
  void fill_closed_form_edge_ids() const;
  void pair_edge_ids() const;

  const Topology* graph_;
  std::vector<std::uint64_t> offsets_;  // size V+1: prefix sums of degree
  std::uint32_t num_channels_ = 0;
  bool closed_form_ = false;  // graph_->has_closed_form_edge_ids()
  // Lazily-built channel -> undirected-edge-id table (see edge_ids_data).
  mutable std::once_flag edge_ids_once_;
  mutable std::vector<std::uint32_t> edge_ids_;
  // Set by the constructor for closed-form families, by the pairing pass
  // otherwise.
  mutable std::uint32_t num_edge_ids_ = 0;
};

}  // namespace faultroute
