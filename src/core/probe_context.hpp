#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "graph/vertex_marks.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/shared_probe_cache.hpp"

namespace faultroute {

class ChannelIndex;
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

/// Thrown when a ProbeContext is constructed on a ProbeArena that a live
/// ProbeContext still uses. Both would share the arena's memo and reached
/// set, and the newcomer's start would wipe the first one's memo.
class ProbeArenaInUse : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The probe state of one routing worker: the per-message probe memo and
/// kLocal reached set, pooled across the messages (or trials) the worker
/// routes on one topology.
///
/// An arena serves one of two kinds of routing:
///  * a traffic batch: ProbeArena(cache) binds it to the batch's
///    SharedProbeCache, which every context on it probes. Its state is
///    always the dense side below, because the batch already pays a byte per
///    edge for the cache and a ChannelIndex: the memo holds no answer, a
///    repeat probe reads it back from the cache byte the first probe
///    published, and each cache lookup is counted in the arena's plain
///    CacheTally, which the owner folds into the cache once (route_all does
///    so when the worker drains).
///  * single pairs: ProbeArena(graph), and each context names its own
///    environment, whose sampler fresh probes read. Build one arena per
///    worker and reuse it across trials (run_routing_trials does). Its side
///    is picked from the topology's edge count alone against
///    kDenseProbeBudgetEdges (graph/vertex_marks.hpp), the way VertexMarks
///    picks its side from the vertex count; the caller never picks.
///
/// The two sides:
///  * dense — flat arrays sized once for the topology: the probe memo, one
///    bit per undirected edge id (ChannelIndex::edge_id), "probed by this
///    message", next to a list of the ids the current message has set, so
///    starting the next message clears exactly those bits: O(probes), never
///    a pass over every edge; and the reached set, one word per vertex,
///    reached iff it equals the arena's epoch, so clearing it is one integer
///    increment. A single-pair arena keeps each answer in a second bit per
///    edge id, cleared from the same list, so a trial costs O(its probes),
///    not O(edges). The list is a buffer of a slot per edge id, allocated
///    once and never initialised, so routing through an arena allocates
///    nothing and its resident pages are those the busiest message wrote.
///  * sparse (single pairs above the budget) — an EdgeKey-keyed memo holding
///    the answers and a hashed reached set, both released by swapping with
///    empty ones when a message starts, so a reset costs O(the last
///    message's entries). Fresh probes read the sampler directly; the side
///    builds no ChannelIndex, so a 2^30-vertex hypercube (past the index's
///    2^32 channels) costs memory only for what a router probes.
/// A router sees the same answers, counts, reach and exceptions on both
/// sides (tests/test_probe_context.cpp pins it).
///
/// Lifecycle: constructing a ProbeContext on the arena starts a message: it
/// clears the previous message's memo and bumps the epoch. At most one
/// ProbeContext may use an arena at a time: constructing a second while the
/// first is alive throws ProbeArenaInUse. Arenas are not thread-safe and
/// must not be shared across threads.
class ProbeArena {
 public:
  /// A traffic batch's arena, bound to `cache`, which must outlive it.
  explicit ProbeArena(const SharedProbeCache& cache);
  /// A single-pair arena over `graph`, which must outlive it.
  explicit ProbeArena(const Topology& graph);
  ProbeArena(const ProbeArena&) = delete;
  ProbeArena& operator=(const ProbeArena&) = delete;

  /// The size test: whether a single-pair arena over `graph` takes the
  /// dense side (a batch's arena always does).
  [[nodiscard]] static bool fits_dense(const Topology& graph) {
    return graph.num_edges() <= kDenseProbeBudgetEdges;
  }

  [[nodiscard]] const Topology& graph() const { return graph_; }

  /// Cache hits and misses of every context on a traffic batch's arena so
  /// far. Not yet part of the cache's hits()/misses(): the owner folds it
  /// in.
  [[nodiscard]] const CacheTally& tally() const { return tally_; }

 private:
  friend class ProbeContext;
  friend class ProbeArenaTestPeer;

  /// `batch`: the traffic batch's cache, or nullptr for single pairs.
  ProbeArena(const Topology& graph, const SharedProbeCache* batch, bool dense);

  /// The largest epoch a vertex stamp can carry (0 marks "never reached").
  static constexpr std::uint32_t kMaxEpoch = std::numeric_limits<std::uint32_t>::max();

  /// Starts a fresh message on `sampler` (nullptr on a batch's arena). Dense:
  /// clears the memo and answer bits on the list and bumps the epoch; on
  /// the (once per ~4 billion messages) epoch wrap, the vertex stamps are
  /// zero-filled so stale stamps can never collide. Sparse: drops the memo
  /// and the reached set.
  void begin_message(const EdgeSampler* sampler);

  const Topology& graph_;
  const AdjacencyView adjacency_;  // graph_'s without a CSR, picked once
  const SharedProbeCache* batch_;  // the batch's cache (nullptr: single pairs)
  const EdgeSampler* sampler_ = nullptr;  // single pairs: the live context's environment
  const bool dense_;
  bool in_use_ = false;  // a live ProbeContext holds the arena

  // Dense side.
  const ChannelIndex* channels_ = nullptr;    // the topology's, for implicit edge ids
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> edge_probed_;    // bit e: edge id e probed by this message
  std::vector<std::uint64_t> edge_open_;      // single pairs: bit e: edge id e found open
  std::unique_ptr<std::uint32_t[]> probed_edges_;  // the edge ids whose bit is set ...
  std::uint32_t num_probed_edges_ = 0;             // ... in its first entries
  std::vector<std::uint32_t> vertex_stamp_;   // reached iff == epoch_ (kLocal)
  CacheTally tally_;

  // Sparse side (single pairs only).
  // lint:allow-hash(the sparse side of ProbeArena: graphs past the dense budget)
  std::unordered_map<EdgeKey, bool> memo_;
  // lint:allow-hash(the sparse side's reached set, like memo_)
  std::unordered_set<VertexId> reached_;  // kLocal only
};

/// The probing interface a routing algorithm sees, and the referee that
/// scores it.
///
/// A ProbeContext routes one message (or one trial) on a ProbeArena. Routers
/// call `probe(v, i)` to ask "is the i-th edge of v open?". The context
///  * memoises answers (the world is fixed; re-probing is free of charge in
///    the *distinct* count but still increments the *total* count),
///  * enforces locality in kLocal mode by tracking the set of vertices the
///    router has connected to the source via open probed edges,
///  * enforces an optional probe budget (distinct edges),
///  * reports the complexity statistics that the paper's Definition 2 counts.
///
/// Those four are one probe body, probe_with(), over the arena's side: the
/// memo and the reached set are the arena's (dense or sparse, by the
/// topology's size), so every observable is the same on both. probe() is
/// inline here; on a batch's CSR snapshot the whole dense probe (memo, cache
/// lookup, reach growth) inlines into the router's loop, and the implicit
/// adjacency path and the sparse side run the same body out of line. A
/// router that scans whole rows (the flood and bidirectional BFS) calls
/// probe_row(), whose dense kernel scan_row() runs the same memo calls with
/// the per-row work hoisted out of the slot loop; tests/test_probe_context
/// .cpp holds it to the per-slot loop. The traffic differential suite holds
/// the engine's dense side to a reference routed on the sparse side.
class ProbeContext {
 public:
  /// A message of a traffic batch, on `arena` bound to the batch's cache:
  /// probes the cache's topology through the cache. The arena must outlive
  /// the context, which holds it until destroyed; throws ProbeArenaInUse if
  /// another live context holds it. `budget`: maximum number of distinct
  /// edges that may be probed (nullopt = unbounded). `flat`: optional CSR
  /// adjacency snapshot of the topology (graph/flat_adjacency.hpp); when
  /// given, dense probes resolve neighbor / edge key / edge id with array
  /// loads instead of virtual dispatch — a pure representation change,
  /// observable-identical to the implicit path. Must be a snapshot of the
  /// topology and outlive the context. `oracle`: optional cached fault-free
  /// DistanceOracle for the topology (graph/distance_oracle.hpp); metric
  /// routers fetch per-target distance columns through target_distances()
  /// below. Purely an accelerator for graph.distance — column values are
  /// identical, so results never depend on its presence.
  ProbeContext(ProbeArena& arena, VertexId source, RoutingMode mode,
               std::optional<std::uint64_t> budget = std::nullopt,
               const FlatAdjacency* flat = nullptr, const DistanceOracle* oracle = nullptr);

  /// A single pair on a single-pair `arena`, in the environment `sampler`,
  /// which must outlive the context. Arena and budget as above.
  ProbeContext(ProbeArena& arena, const EdgeSampler& sampler, VertexId source,
               RoutingMode mode, std::optional<std::uint64_t> budget = std::nullopt);

  ProbeContext(const ProbeContext&) = delete;
  ProbeContext& operator=(const ProbeContext&) = delete;
  /// Releases the arena for the next context.
  ~ProbeContext();

  /// Probes the i-th incident edge of v. Returns true iff open.
  /// Throws LocalityViolation (kLocal mode, edge not incident to the reached
  /// set) or ProbeBudgetExceeded.
  bool probe(VertexId v, int i) {
    if (flat_ != nullptr) return probe_with<DenseMemo<FlatRows, true>>(FlatRows{flat_}, v, i);
    return probe_implicit(v, i);
  }

  /// probe(v, i) through `rows`, the accessor adjacency().visit handed the
  /// router: the same answers and counts, with neighbor, edge id and edge
  /// key resolved by that accessor, so on a traffic batch a closed-form
  /// family's probe inlines into the router's loop the way a CSR probe
  /// does. A single pair's dense probe takes the accessor out of line
  /// (probe_pair): a second inlined memo kind costs the batch's loops ~15%
  /// (bidirectional on hypercube:13). The virtual accessor and the sparse
  /// side probe through probe_implicit.
  template <typename Rows>
  bool probe(const Rows& rows, VertexId v, int i) {
    if constexpr (!std::is_same_v<Rows, VirtualRows>) {
      if (arena_.batch_ != nullptr) return probe_with<DenseMemo<Rows, true>>(rows, v, i);
      if (arena_.dense_) return probe_pair(rows, v, i);
    }
    return probe_implicit(v, i);
  }

  /// Probes, in slot order, each slot i in [begin, end) of x whose neighbor
  /// y passes wants(y), exactly as probe(rows, x, i) would: the same
  /// answers, memo, cache tally, reach and counts, and LocalityViolation or
  /// ProbeBudgetExceeded thrown at the same slot with the same counts. On an
  /// open edge it calls opened(y, i); a true return stops the scan, and
  /// probe_row returns true (false once the range is done). Neither
  /// callback may probe through this context; opened may read its counts,
  /// which are current when it runs. The kernel copies both callbacks, so
  /// they should capture by reference.
  ///
  /// On a dense arena through an accessor with row() (the CSR, hypercube
  /// and mesh/torus), one kernel, scan_row, does per row what probe does
  /// per slot: it resolves the row once, passes the rest of the row's
  /// locality test once x is reached (a loop without the test), compares
  /// the distinct count with the budget read once, and keeps the counters,
  /// the tally and the list cursor in locals, written back before opened
  /// and before a throw. The virtual accessor and the sparse side take the
  /// per-slot loop.
  template <typename Rows, typename Wants, typename Opened>
  bool probe_row(const Rows& rows, VertexId x, int begin, int end, Wants&& wants,
                 Opened&& opened) {
    if constexpr (!std::is_same_v<Rows, VirtualRows>) {
      if (arena_.batch_ != nullptr) return scan_row<true>(rows.row(x), x, begin, end, wants, opened);
      if (arena_.dense_) return scan_pair_row(rows.row(x), x, begin, end, wants, opened);
    }
    for (int i = begin; i < end; ++i) {
      const VertexId y = rows.neighbor(x, i);
      if (wants(y) && probe(rows, x, i) && opened(y, i)) return true;
    }
    return false;
  }

  /// Convenience: probes the edge {a, b} (first incident index at a whose
  /// neighbor is b). Requires adjacency; linear in degree(a) unless the
  /// caller knows the index.
  bool probe_between(VertexId a, VertexId b);

  [[nodiscard]] const Topology& graph() const { return graph_; }
  [[nodiscard]] VertexId source() const { return source_; }
  [[nodiscard]] RoutingMode mode() const { return mode_; }

  /// The adjacency this context probes through: the batch's CSR when it
  /// has one, else the family's closed form or the virtual interface,
  /// picked once per arena. Routers visit it once per route call and scan
  /// rows and probe through the accessor it hands them.
  [[nodiscard]] const AdjacencyView& adjacency() const { return adjacency_; }

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
  ProbeContext(ProbeArena& arena, const EdgeSampler* sampler, VertexId source,
               RoutingMode mode, std::optional<std::uint64_t> budget,
               const FlatAdjacency* flat, const DistanceOracle* oracle);

  /// Where a DenseMemo finds the arena's dense state. A single probe
  /// (probe_with) reads each field through the arena when it needs it, so
  /// the probe inlined into a router's loop holds nothing live across it.
  struct ArenaState {
    ProbeArena* arena;

    explicit ArenaState(ProbeArena& a) : arena(&a) {}
    [[nodiscard]] std::uint64_t* probed() const { return arena->edge_probed_.data(); }
    [[nodiscard]] std::uint64_t* open_bits() const { return arena->edge_open_.data(); }
    [[nodiscard]] std::uint32_t* stamps() const { return arena->vertex_stamp_.data(); }
    [[nodiscard]] std::uint32_t epoch() const { return arena->epoch_; }
    [[nodiscard]] CacheTally& tally() const { return arena->tally_; }
    /// A slot per edge id, and each id is listed once.
    void list(std::uint32_t edge) const {
      arena->probed_edges_[arena->num_probed_edges_++] = edge;
    }
  };
  /// A row scan (scan_row) copies the fields in once, so they stay in
  /// registers across its stores to the memo bits, and sync() writes the
  /// list cursor and the tally back.
  struct RowState {
    ProbeArena* arena;
    std::uint64_t* probed_;
    std::uint64_t* open_bits_;
    std::uint32_t* stamps_;
    std::uint32_t epoch_;
    std::uint32_t* list_;
    std::uint32_t listed_;
    CacheTally tally_;

    explicit RowState(ProbeArena& a)
        : arena(&a),
          probed_(a.edge_probed_.data()),
          open_bits_(a.edge_open_.data()),
          stamps_(a.vertex_stamp_.data()),
          epoch_(a.epoch_),
          list_(a.probed_edges_.get()),
          listed_(a.num_probed_edges_),
          tally_(a.tally_) {}
    [[nodiscard]] std::uint64_t* probed() const { return probed_; }
    [[nodiscard]] std::uint64_t* open_bits() const { return open_bits_; }
    [[nodiscard]] std::uint32_t* stamps() const { return stamps_; }
    [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
    [[nodiscard]] CacheTally& tally() { return tally_; }
    void list(std::uint32_t edge) { list_[listed_++] = edge; }
    void sync() const {
      arena->num_probed_edges_ = listed_;
      arena->tally_ = tally_;
    }
  };

  /// The arena's dense side, parameterized only on how neighbor / edge id /
  /// edge key are resolved (a row accessor of graph/flat_adjacency.hpp, or
  /// the channel index's), so the CSR and implicit paths cannot drift, on
  /// where answers live: the batch's cache (kBatch) or the arena's answer
  /// bits, and on how it reaches the arena's state (ArenaState for a probe,
  /// RowState for a row). probe_with and scan_row build the memo from the
  /// arena and an Access; slot() names the edge, by its id here.
  template <typename AccessT, bool kBatch, typename State = ArenaState>
  struct DenseMemo {
    using Access = AccessT;
    using Slot = std::uint32_t;
    ProbeArena* arena;
    Access access;
    State state;

    DenseMemo(ProbeArena& a, const Access& rows) : arena(&a), access(rows), state(a) {}

    [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return access.neighbor(v, i); }
    [[nodiscard]] bool reached(VertexId v) const { return state.stamps()[v] == state.epoch(); }
    [[nodiscard]] Slot slot(VertexId v, int i) const { return access.edge_id(v, i); }
    /// The answer of an edge this message probed already: the cache byte
    /// its first probe published, or its answer bit. A hit computes no edge
    /// key and counts no lookup.
    bool recall(Slot edge, bool& open) const {
      const std::uint64_t bit = std::uint64_t{1} << (edge & 63u);
      if ((state.probed()[edge >> 6] & bit) == 0) return false;
      if constexpr (kBatch) {
        open = arena->batch_->published_open(edge);
      } else {
        open = (state.open_bits()[edge >> 6] & bit) != 0;
      }
      return true;
    }
    bool discover(Slot edge, VertexId v, int i) {
      const std::uint64_t bit = std::uint64_t{1} << (edge & 63u);
      bool open;
      if constexpr (kBatch) {
        open = arena->batch_->lookup(edge, access.edge_key(v, i), state.tally());
      } else {
        open = arena->sampler_->is_open(access.edge_key(v, i));
        if (open) state.open_bits()[edge >> 6] |= bit;
      }
      state.probed()[edge >> 6] |= bit;
      state.list(edge);
      return open;
    }
    /// The locality check passed, so one endpoint is reached already; the
    /// open edge connects the other.
    void reach(VertexId v, VertexId w) const {
      const std::uint32_t epoch = state.epoch();
      state.stamps()[v] = epoch;
      state.stamps()[w] = epoch;
    }
    /// Writes a RowState's copies back.
    void sync() const { state.sync(); }
  };

  /// The arena's sparse side, the same interface over the EdgeKey memo
  /// (defined with probe_implicit, its only user).
  struct SparseMemo;

  /// The row kernel of probe_row on the dense side: `row` is rows.row(x).
  template <bool kBatch, typename Row, typename Wants, typename Opened>
  bool scan_row(const Row& row, VertexId x, int begin, int end, const Wants& wants_in,
                const Opened& opened_in);
  /// A single pair's row scan, kept out of the router's loop like
  /// probe_pair.
  template <typename Row, typename Wants, typename Opened>
  [[gnu::noinline]] bool scan_pair_row(const Row& row, VertexId x, int begin, int end,
                                       const Wants& wants, const Opened& opened) {
    return scan_row<false>(row, x, begin, end, wants, opened);
  }
  [[noreturn]] static void throw_locality_violation();
  [[noreturn]] static void throw_budget_exceeded();

  /// The one probe body: locality, budget, distinct/total counts and reach
  /// growth, over either side's memo. It takes the memo's adjacency
  /// accessor by reference and builds the memo inside: that signature lets
  /// GCC 12 clone it locally and inline the CSR path into each router's
  /// loop, where a memo passed by value keeps a call per probe (~12% slower
  /// on gnp-probe).
  template <typename Memo>
  bool probe_with(const typename Memo::Access& access, VertexId v, int i);
  /// probe_with off the CSR: the dense side over the virtual interface and
  /// the channel index, or the sparse side.
  bool probe_implicit(VertexId v, int i);
  /// A single pair's dense probe through a row accessor, kept out of the
  /// router's loop. On the mesh/torus it reads the row the loop decoded.
  template <typename Rows>
  [[gnu::noinline]] bool probe_pair(const Rows& rows, VertexId v, int i) {
    return probe_with<DenseMemo<Rows, false>>(rows, v, i);
  }

  ProbeArena& arena_;
  const Topology& graph_;
  VertexId source_;
  RoutingMode mode_;
  std::optional<std::uint64_t> budget_;
  std::uint64_t total_probes_ = 0;
  std::uint64_t distinct_probes_ = 0;
  std::uint64_t expansions_ = 0;
  // A batch's flat adjacency snapshot (nullptr = implicit virtual path).
  const FlatAdjacency* flat_ = nullptr;
  // flat_ when set, else the arena's closed-form or virtual adjacency.
  AdjacencyView adjacency_;
  // Cached distance oracle (nullptr = metric routers call graph.distance).
  const DistanceOracle* oracle_ = nullptr;
};

template <typename Memo>
bool ProbeContext::probe_with(const typename Memo::Access& access, VertexId v, int i) {
  Memo memo(arena_, access);
  const VertexId w = memo.neighbor(v, i);
  if (mode_ == RoutingMode::kLocal && !memo.reached(v) && !memo.reached(w)) {
    throw_locality_violation();
  }
  ++total_probes_;
  // A memo hit is free in the distinct count; only a fresh probe asks the
  // environment, and only a fresh probe can exhaust the budget.
  const typename Memo::Slot slot = memo.slot(v, i);
  bool open;
  if (!memo.recall(slot, open)) {
    if (budget_ && distinct_probes_ >= *budget_) throw_budget_exceeded();
    open = memo.discover(slot, v, i);
    ++distinct_probes_;
  }
  if (open && mode_ == RoutingMode::kLocal) memo.reach(v, w);
  return open;
}

template <bool kBatch, typename Row, typename Wants, typename Opened>
bool ProbeContext::scan_row(const Row& row, VertexId x, int begin, int end, const Wants& wants_in,
                            const Opened& opened_in) {
  // Copies, so what the callbacks capture stays in registers too.
  const Wants wants = wants_in;
  const Opened opened = opened_in;
  DenseMemo<Row, kBatch, RowState> memo(arena_, row);
  const bool local = mode_ == RoutingMode::kLocal;
  std::uint64_t total = total_probes_;
  std::uint64_t distinct = distinct_probes_;
  const std::uint64_t limit = budget_.value_or(std::numeric_limits<std::uint64_t>::max());
  const auto write_back = [&] {
    total_probes_ = total;
    distinct_probes_ = distinct;
    memo.sync();
  };
  // Slot i's probe once its neighbor y has passed wants and the locality
  // test: whether the edge is open.
  const auto probe_slot = [&](int i, VertexId y) {
    ++total;
    const std::uint32_t edge = row.edge_id(x, i);
    bool open;
    if (!memo.recall(edge, open)) {
      if (distinct >= limit) {
        write_back();
        throw_budget_exceeded();
      }
      ++distinct;
      open = memo.discover(edge, x, i);
    }
    if (open && local) memo.reach(x, y);
    return open;
  };
  int i = begin;
  // Until x is reached (kLocal), a slot passes the locality test only if
  // its neighbor is reached; the first open probe reaches x, and from then
  // on every slot passes.
  if (local && !memo.reached(x)) {
    for (; i < end; ++i) {
      const VertexId y = row.neighbor(x, i);
      if (!wants(y)) continue;
      if (!memo.reached(y)) {
        write_back();
        throw_locality_violation();
      }
      if (!probe_slot(i, y)) continue;
      write_back();
      if (opened(y, i)) return true;
      ++i;
      break;
    }
  }
  for (; i < end; ++i) {
    const VertexId y = row.neighbor(x, i);
    if (!wants(y) || !probe_slot(i, y)) continue;
    write_back();
    if (opened(y, i)) return true;
  }
  write_back();
  return false;
}

}  // namespace faultroute
