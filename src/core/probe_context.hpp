#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"

namespace faultroute {

class DistanceOracle;

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

/// Thrown when a dense ProbeContext is constructed on a ProbeArena that a
/// live ProbeContext still uses. Both would share the arena's memo and
/// reached set, and the newcomer's start would wipe the first one's memo.
class ProbeArenaInUse : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Pooled per-worker storage for the dense ProbeContext backend, bound to
/// the batch's SharedProbeCache.
///
/// A batch routes many messages on one topology, and the per-message probe
/// memo / reached set die with each message. Hash containers pay allocation
/// and hashing for that churn on every probe of every message; the arena
/// replaces them with flat arrays sized once for the cache's topology:
///  * the probe memo, one bit per undirected edge id
///    (ChannelIndex::edge_id_of): "probed by this message". It holds no
///    answer; a repeat probe reads the answer back from the cache byte the
///    message's first probe published. Next to the bits, a list of the edge
///    ids the current message has set, so starting the next message clears
///    exactly those bits: O(probes), never a pass over every edge;
///  * the kLocal reached set, one word per vertex: reached iff the word
///    equals the arena's epoch, so clearing it is one integer increment.
/// The list reserves a slot per edge id once and never reallocates, so
/// routing through an arena allocates nothing; its resident pages are those
/// the busiest message wrote. The memo costs 1 bit per edge plus 4 bytes per
/// edge that message probed — never more than the 4 bytes per edge of an
/// epoch-stamped word memo.
///
/// The arena also owns its worker's CacheTally: every lookup its contexts
/// make in the cache is counted there, in plain integers, and the owner
/// folds it into the cache once (route_all does so when the worker drains).
///
/// Lifecycle: create one arena per worker thread (route_all does this in
/// parallel_index_loop's make_body), then construct a dense ProbeContext per
/// message on it. The ProbeContext constructor starts a message: it clears
/// the previous message's memo bits and bumps the epoch. At most one
/// ProbeContext may use an arena at a time: constructing a second while the
/// first is alive throws ProbeArenaInUse. Arenas are not thread-safe and
/// must not be shared across threads.
class ProbeArena {
 public:
  /// Binds the arena to `cache`, which must outlive it, and sizes the memo
  /// bits and vertex stamps for the cache's topology.
  explicit ProbeArena(const SharedProbeCache& cache);
  ProbeArena(const ProbeArena&) = delete;
  ProbeArena& operator=(const ProbeArena&) = delete;

  [[nodiscard]] const SharedProbeCache& cache() const { return cache_; }

  /// Cache hits and misses of every context on this arena so far. Not yet
  /// part of cache().hits()/misses(): the owner folds it in.
  [[nodiscard]] const CacheTally& tally() const { return tally_; }

 private:
  friend class ProbeContext;
  friend class ProbeArenaTestPeer;

  /// The largest epoch a vertex stamp can carry (0 marks "never reached").
  static constexpr std::uint32_t kMaxEpoch = std::numeric_limits<std::uint32_t>::max();

  /// Starts a fresh message: clears the memo bits on the list and bumps the
  /// epoch. On the (once per ~4 billion messages) epoch wrap, the vertex
  /// stamps are zero-filled so stale stamps can never collide.
  void begin_message();

  const SharedProbeCache& cache_;
  std::uint32_t epoch_ = 0;
  bool in_use_ = false;                       // a live ProbeContext holds the arena
  std::vector<std::uint64_t> edge_probed_;    // bit e: edge id e probed by this message
  std::vector<std::uint32_t> probed_edges_;   // the edge ids whose bit is set
  std::vector<std::uint32_t> vertex_stamp_;   // reached iff == epoch_ (kLocal)
  CacheTally tally_;
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
/// Two backends hold the memo and the reached set, one per constructor:
///  * hash (over any EdgeSampler): per-context unordered containers keyed
///    by EdgeKey/VertexId, probed out of line through the topology's
///    virtual interface — self-contained, right for one-off contexts
///    (single-pair experiments, `faultroute route`);
///  * dense (on a ProbeArena): the arena's one-bit-per-edge memo and
///    per-vertex reach stamps, with the environment read straight from the
///    arena's SharedProbeCache — the traffic engine's hot path. A repeat
///    probe reads its answer back from the cache byte the first probe
///    published. probe() is inline here; on a CSR snapshot the whole probe
///    (memo, cache lookup, reach growth) inlines into the router's loop, and
///    the implicit adjacency path runs the same kernel body out of line.
/// Every observable (probe answers, distinct/total counts, reach, budget
/// and locality enforcement) is bit-identical across backends; the traffic
/// differential suite holds the engine to a hash-backend reference.
class ProbeContext {
 public:
  /// Hash backend over `sampler`, probing `graph` through its virtual
  /// interface. `budget`: maximum number of distinct edges that may be
  /// probed (nullopt = unbounded).
  ProbeContext(const Topology& graph, const EdgeSampler& sampler, VertexId source,
               RoutingMode mode, std::optional<std::uint64_t> budget = std::nullopt);

  /// Dense backend on `arena`: probes the topology of the arena's cache,
  /// through that cache, counting its lookups in the arena's tally. The
  /// arena must outlive the context, which holds it until destroyed; throws
  /// ProbeArenaInUse if another live context holds it. `budget` is as
  /// above. `flat`: optional CSR adjacency snapshot of the topology
  /// (graph/flat_adjacency.hpp); when given, probes resolve neighbor / edge
  /// key / edge id with array loads instead of virtual dispatch — a pure
  /// representation change, observable-identical to the implicit path.
  /// Must be a snapshot of the topology and outlive the context. `oracle`:
  /// optional cached fault-free DistanceOracle for the topology
  /// (graph/distance_oracle.hpp); metric routers fetch per-target distance
  /// columns through target_distances() below. Purely an accelerator for
  /// graph.distance — column values are identical, so results never depend
  /// on its presence.
  ProbeContext(ProbeArena& arena, VertexId source, RoutingMode mode,
               std::optional<std::uint64_t> budget = std::nullopt,
               const FlatAdjacency* flat = nullptr, const DistanceOracle* oracle = nullptr);

  ProbeContext(const ProbeContext&) = delete;
  ProbeContext& operator=(const ProbeContext&) = delete;
  /// Releases the arena (dense backend) for the next context.
  ~ProbeContext();

  /// Probes the i-th incident edge of v. Returns true iff open.
  /// Throws LocalityViolation (kLocal mode, edge not incident to the reached
  /// set) or ProbeBudgetExceeded.
  bool probe(VertexId v, int i) {
    if (arena_ != nullptr) {
      if (flat_ != nullptr) return probe_dense(FlatAccess{flat_}, v, i);
      return probe_dense_implicit(v, i);
    }
    return probe_hashed(v, i);
  }

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
  /// The CSR accessor of the dense kernel: array loads off the snapshot.
  struct FlatAccess {
    const FlatAdjacency* flat;
    [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return flat->neighbor(v, i); }
    [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
      return flat->edge_id(v, i);
    }
    [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return flat->edge_key(v, i); }
  };

  /// The dense kernel (locality, budget, memo, cache lookup, reach growth),
  /// parameterized only on how neighbor / edge id / edge key are resolved —
  /// one body, so the CSR and implicit paths cannot drift.
  template <typename Access>
  bool probe_dense(const Access& access, VertexId v, int i);
  /// probe_dense over the virtual interface and the channel index.
  bool probe_dense_implicit(VertexId v, int i);
  /// The hash backend's probe.
  bool probe_hashed(VertexId v, int i);

  [[nodiscard]] bool reached_contains(VertexId v) const;
  void reached_insert(VertexId v);

  const Topology& graph_;
  const EdgeSampler& sampler_;
  VertexId source_;
  RoutingMode mode_;
  std::optional<std::uint64_t> budget_;
  std::uint64_t total_probes_ = 0;
  std::uint64_t distinct_probes_ = 0;
  std::uint64_t expansions_ = 0;

  // Dense backend (arena_ != nullptr).
  ProbeArena* arena_ = nullptr;
  // Flat adjacency snapshot (nullptr = implicit virtual path).
  const FlatAdjacency* flat_ = nullptr;
  // Cached distance oracle (nullptr = metric routers call graph.distance).
  const DistanceOracle* oracle_ = nullptr;

  // Hash backend (arena_ == nullptr).
  std::unordered_map<EdgeKey, bool> memo_;
  std::unordered_set<VertexId> reached_;  // kLocal only
};

template <typename Access>
bool ProbeContext::probe_dense(const Access& access, VertexId v, int i) {
  ProbeArena& arena = *arena_;
  const std::uint32_t epoch = arena.epoch_;
  std::uint32_t* const reached = arena.vertex_stamp_.data();
  const VertexId w = access.neighbor(v, i);
  if (mode_ == RoutingMode::kLocal && reached[v] != epoch && reached[w] != epoch) {
    // analyze:allow-throw-safety(locality contract violation is a programming error; surfaced via first_error)
    throw LocalityViolation("local probe of edge not incident to the reached set");
  }
  ++total_probes_;
  // The memo: the edge's bit is set iff this message probed it already. A
  // hit computes no edge key and counts no lookup: it reads back the cache
  // byte that the first probe published. Only a fresh probe is a lookup.
  const std::uint32_t edge = access.edge_id(v, i);
  std::uint64_t& word = arena.edge_probed_[edge >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (edge & 63u);
  bool open;
  if ((word & bit) != 0) {
    open = arena.cache_.published_open(edge);
  } else {
    if (budget_ && distinct_probes_ >= *budget_) {
      throw ProbeBudgetExceeded("probe budget exhausted");  // analyze:allow-throw-safety(probe-budget censoring signal, caught per message by the engine)
    }
    open = arena.cache_.lookup(edge, access.edge_key(v, i), arena.tally_);
    word |= bit;
    arena.probed_edges_.push_back(edge);  // analyze:allow-hot-alloc(the arena reserves a slot per edge id, so this never reallocates)
    ++distinct_probes_;
  }
  if (open && mode_ == RoutingMode::kLocal) {
    // The locality check passed, so one endpoint is reached already; the
    // open edge connects the other.
    reached[v] = epoch;
    reached[w] = epoch;
  }
  return open;
}

}  // namespace faultroute
