#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {

class ChannelIndex;
class DistanceOracle;
class FlatAdjacency;

/// Whether the router is restricted to local probes (Definition 1 of the
/// paper) or may query arbitrary edges (oracle routing, Section 5).
enum class RoutingMode { kLocal, kOracle };

/// Thrown when a local router probes an edge not incident to its
/// reached-from-source set. The paper's Definition 1: "the first edge it
/// probes is adjacent to u and subsequently it probes only edges to (an end
/// point of) which it has already established a path from u".
class LocalityViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when a probe budget is exhausted. Experiments in exponential
/// regimes use budgets and report the censored fraction.
class ProbeBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Pooled per-thread storage for the dense ProbeContext backend.
///
/// A batch routes many messages on one topology, and the per-message probe
/// memo / reached set die with each message. Hash containers pay allocation
/// and hashing for that churn on every probe of every message; the arena
/// replaces them with two flat arrays — per-undirected-edge probe state
/// (indexed by ChannelIndex::edge_id_of) and per-vertex reached marks —
/// that are *epoch-stamped*: a slot is live only if its stamp equals the
/// arena's current epoch, so "clearing" between messages is one integer
/// increment, never a memset or an allocation. Steady-state routing through
/// an arena does zero allocation.
///
/// Lifecycle: create one arena per worker thread (route_all does this in
/// parallel_index_loop's make_body), then construct a ProbeContext per
/// message with a pointer to it. The ProbeContext constructor bumps the
/// epoch, invalidating every slot the previous message stamped. At most one
/// ProbeContext may use an arena at a time (they share the same slots);
/// arenas are not thread-safe and must not be shared across threads.
class ProbeArena {
 public:
  ProbeArena() = default;
  ProbeArena(const ProbeArena&) = delete;
  ProbeArena& operator=(const ProbeArena&) = delete;

 private:
  friend class ProbeContext;

  /// Sizes the arrays for `graph` (grow-only) and starts a fresh epoch. On
  /// the (once per ~4 billion messages) epoch wrap, every stamp array is
  /// zero-filled so stale stamps can never collide.
  void begin_message(const Topology& graph);

  const ChannelIndex* channels_ = nullptr;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> edge_epoch_;    // per undirected edge id
  std::vector<std::uint8_t> edge_open_;      // valid iff edge_epoch_ == epoch_
  std::vector<std::uint32_t> vertex_epoch_;  // reached iff == epoch_ (kLocal)
};

/// The probing interface a routing algorithm sees, and the referee that
/// scores it.
///
/// A ProbeContext wraps a topology and a percolation environment. Routers
/// call `probe(v, i)` to ask "is the i-th edge of v open?". The context
///  * memoises answers (the world is fixed; re-probing is free of charge in
///    the *distinct* count but still increments the *total* count),
///  * enforces locality in kLocal mode by tracking the set of vertices the
///    router has connected to the source via open probed edges,
///  * enforces an optional probe budget (distinct edges),
///  * reports the complexity statistics that the paper's Definition 2 counts.
///
/// Two backends hold the memo and the reached set:
///  * hash (default, `arena == nullptr`): per-context unordered containers
///    keyed by EdgeKey/VertexId — self-contained, right for one-off
///    contexts (single-pair experiments, `faultroute route`);
///  * dense (`arena != nullptr`): epoch-stamped flat arrays indexed by the
///    topology's ChannelIndex edge ids and by vertex id, pooled in the
///    caller's ProbeArena — the traffic engine's hot path, zero allocation
///    per message.
/// Every observable (probe answers, distinct/total counts, reach, budget
/// and locality enforcement) is bit-identical across backends; the traffic
/// differential suite holds the engine to a hash-backend reference.
class ProbeContext {
 public:
  /// `budget`: maximum number of distinct edges that may be probed
  /// (nullopt = unbounded). `arena`: selects the dense backend (see class
  /// comment); the arena must outlive the context and serve only it until
  /// the next ProbeContext takes it over. `flat`: optional CSR adjacency
  /// snapshot of `graph` (graph/flat_adjacency.hpp); when given, probes
  /// resolve neighbor / edge key / edge id with array loads instead of
  /// virtual dispatch — a pure representation change, observable-identical
  /// to the implicit path. Must be a snapshot of `graph` and outlive the
  /// context. `oracle`: optional
  /// cached fault-free DistanceOracle for `graph` (graph/distance_oracle
  /// .hpp); metric routers fetch per-target distance columns through
  /// target_distances() below. Purely an accelerator for graph.distance —
  /// column values are identical, so results never depend on its presence.
  ProbeContext(const Topology& graph, const EdgeSampler& sampler, VertexId source,
               RoutingMode mode, std::optional<std::uint64_t> budget = std::nullopt,
               ProbeArena* arena = nullptr, const FlatAdjacency* flat = nullptr,
               const DistanceOracle* oracle = nullptr);

  ProbeContext(const ProbeContext&) = delete;
  ProbeContext& operator=(const ProbeContext&) = delete;

  /// Probes the i-th incident edge of v. Returns true iff open.
  /// Throws LocalityViolation (kLocal mode, edge not incident to the reached
  /// set) or ProbeBudgetExceeded.
  bool probe(VertexId v, int i);

  /// Convenience: probes the edge {a, b} (first incident index at a whose
  /// neighbor is b). Requires adjacency; linear in degree(a) unless the
  /// caller knows the index.
  bool probe_between(VertexId a, VertexId b);

  [[nodiscard]] const Topology& graph() const { return graph_; }
  [[nodiscard]] VertexId source() const { return source_; }
  [[nodiscard]] RoutingMode mode() const { return mode_; }

  /// The CSR snapshot this context probes through, or nullptr on the
  /// implicit path. Routers use it to iterate neighbor rows without virtual
  /// dispatch (wrap it in an AdjacencyView to stay backend-agnostic).
  [[nodiscard]] const FlatAdjacency* flat_adjacency() const { return flat_; }

  /// The memoised fault-free distance column for `target` (entry x =
  /// graph().distance(x, target), unreachable = num_vertices()), or nullptr
  /// when no oracle is attached or the column is not cached — fall back to
  /// graph().distance, which returns the same values (this accessor can
  /// change speed, never routing results).
  [[nodiscard]] const std::uint32_t* target_distances(VertexId target) const;

  /// Number of distinct edges probed so far — the routing complexity of
  /// Definition 2.
  [[nodiscard]] std::uint64_t distinct_probes() const { return distinct_probes_; }

  /// Total probe calls, counting repeats.
  [[nodiscard]] std::uint64_t total_probes() const { return total_probes_; }

  /// Search-frontier expansions (vertex pops) the router reported via
  /// note_expansion() — a measure of BFS work orthogonal to probe counts.
  /// Purely observational: never affects probe answers or enforcement.
  [[nodiscard]] std::uint64_t expansions() const { return expansions_; }
  void note_expansion() { ++expansions_; }

  /// True iff the router has established an open path from the source to v
  /// through probed edges (always true for the source itself). Only
  /// maintained in kLocal mode.
  [[nodiscard]] bool is_reached(VertexId v) const;

  /// Remaining budget (nullopt = unbounded).
  [[nodiscard]] std::optional<std::uint64_t> remaining_budget() const;

 private:
  [[nodiscard]] bool reached_contains(VertexId v) const;
  void reached_insert(VertexId v);
  /// The probe bookkeeping (locality, budget, memo, reached-set growth),
  /// shared by the flat and implicit paths and parameterized only on how
  /// neighbor / edge id / edge key are resolved — one body, so the two
  /// adjacency backends cannot drift.
  template <typename Access>
  bool probe_with(const Access& access, VertexId v, int i);

  const Topology& graph_;
  const EdgeSampler& sampler_;
  VertexId source_;
  RoutingMode mode_;
  std::optional<std::uint64_t> budget_;
  std::uint64_t total_probes_ = 0;
  std::uint64_t distinct_probes_ = 0;
  std::uint64_t expansions_ = 0;

  // Dense backend (arena_ != nullptr): pooled arrays + the channel index.
  ProbeArena* arena_ = nullptr;
  const ChannelIndex* channels_ = nullptr;
  // Flat adjacency snapshot (nullptr = implicit virtual path).
  const FlatAdjacency* flat_ = nullptr;
  // Cached distance oracle (nullptr = metric routers call graph.distance).
  const DistanceOracle* oracle_ = nullptr;

  // Hash backend (arena_ == nullptr).
  std::unordered_map<EdgeKey, bool> memo_;
  std::unordered_set<VertexId> reached_;  // kLocal only
};

}  // namespace faultroute
