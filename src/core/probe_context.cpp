#include "core/probe_context.hpp"

#include <algorithm>

#include "graph/channel_index.hpp"
#include "graph/distance_oracle.hpp"

namespace faultroute {

ProbeArena::ProbeArena(const SharedProbeCache& cache)
    : cache_(cache),
      edge_probed_((std::uint64_t{cache.channels().num_edge_ids()} + 63) / 64, 0),
      vertex_stamp_(cache.graph().num_vertices(), 0) {
  // Room for every edge id up front, so the list never reallocates and the
  // pages it occupies are only the ones the busiest message has written.
  probed_edges_.reserve(cache.channels().num_edge_ids());
}

void ProbeArena::begin_message() {
  // Every set bit is on the list, so zeroing each listed edge's word clears
  // them all and touches nothing the last message did not.
  for (const std::uint32_t edge : probed_edges_) edge_probed_[edge >> 6] = 0;
  probed_edges_.clear();
  if (epoch_ == kMaxEpoch) {
    // Epoch wrap: stamps from ~4 billion messages ago would read as live.
    // Zero them and restart — amortised cost is a rounding error.
    std::fill(vertex_stamp_.begin(), vertex_stamp_.end(), 0u);
    epoch_ = 0;
  }
  ++epoch_;
}

ProbeContext::ProbeContext(const Topology& graph, const EdgeSampler& sampler,
                           VertexId source, RoutingMode mode,
                           std::optional<std::uint64_t> budget)
    : graph_(graph), sampler_(sampler), source_(source), mode_(mode), budget_(budget) {
  if (mode_ == RoutingMode::kLocal) reached_insert(source_);
}

ProbeContext::ProbeContext(ProbeArena& arena, VertexId source, RoutingMode mode,
                           std::optional<std::uint64_t> budget, const FlatAdjacency* flat,
                           const DistanceOracle* oracle)
    : graph_(arena.cache().graph()), sampler_(arena.cache()), source_(source), mode_(mode),
      budget_(budget), arena_(&arena), flat_(flat), oracle_(oracle) {
  if (arena.in_use_) {
    // analyze:allow-throw-safety(arena-sharing contract violation is a programming error; surfaced via first_error)
    throw ProbeArenaInUse("ProbeContext: the ProbeArena is held by another live context");
  }
  arena.in_use_ = true;
  arena.begin_message();
  if (mode_ == RoutingMode::kLocal) reached_insert(source_);
}

ProbeContext::~ProbeContext() {
  if (arena_ != nullptr) arena_->in_use_ = false;
}

bool ProbeContext::reached_contains(VertexId v) const {
  if (arena_ != nullptr) return arena_->vertex_stamp_[v] == arena_->epoch_;
  return reached_.contains(v);
}

void ProbeContext::reached_insert(VertexId v) {
  if (arena_ != nullptr) {
    arena_->vertex_stamp_[v] = arena_->epoch_;
  } else {
    reached_.insert(v);  // analyze:allow-hot-alloc(hash-backend reached set for one-off contexts; the traffic engine always passes an arena)
  }
}

bool ProbeContext::is_reached(VertexId v) const {
  if (mode_ == RoutingMode::kOracle) return true;  // no restriction to track
  return reached_contains(v);
}

const std::uint32_t* ProbeContext::target_distances(VertexId target) const {
  if (oracle_ == nullptr) return nullptr;
  return oracle_->distances_to(target);
}

std::optional<std::uint64_t> ProbeContext::remaining_budget() const {
  if (!budget_) return std::nullopt;
  const std::uint64_t used = distinct_probes();
  return *budget_ > used ? *budget_ - used : 0;
}

namespace {

/// The dense kernel's implicit adjacency accessor: virtual dispatch, and
/// the channel index's edge-id table (the CSR one, FlatAccess, is in the
/// header).
struct VirtualAccess {
  const Topology* graph;
  const ChannelIndex* channels;
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return graph->neighbor(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    return channels->edge_id_of(channels->channel_of(v, i));
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return graph->edge_key(v, i); }
};

}  // namespace

bool ProbeContext::probe_dense_implicit(VertexId v, int i) {
  return probe_dense(VirtualAccess{&graph_, &arena_->cache_.channels()}, v, i);
}

bool ProbeContext::probe_hashed(VertexId v, int i) {
  const VertexId w = graph_.neighbor(v, i);
  if (mode_ == RoutingMode::kLocal && !reached_contains(v) && !reached_contains(w)) {
    // analyze:allow-throw-safety(locality contract violation is a programming error; surfaced via first_error)
    throw LocalityViolation("local probe of edge not incident to the reached set");
  }
  ++total_probes_;
  bool open;
  const EdgeKey key = graph_.edge_key(v, i);
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    open = it->second;
  } else {
    if (budget_ && distinct_probes_ >= *budget_) {
      throw ProbeBudgetExceeded("probe budget exhausted");  // analyze:allow-throw-safety(probe-budget censoring signal, caught per message by the engine)
    }
    open = sampler_.is_open(key);
    memo_.emplace(key, open);  // analyze:allow-hot-alloc(hash-backend probe memo for one-off contexts: one insert per distinct edge)
    ++distinct_probes_;
  }
  if (open && mode_ == RoutingMode::kLocal) {
    // An open edge incident to the reached set extends it.
    const bool v_reached = reached_contains(v);
    const bool w_reached = reached_contains(w);
    if (v_reached && !w_reached) reached_insert(w);
    if (w_reached && !v_reached) reached_insert(v);
  }
  return open;
}

bool ProbeContext::probe_between(VertexId a, VertexId b) {
  const int i = flat_ != nullptr ? edge_index_of(*flat_, a, b) : edge_index_of(graph_, a, b);
  // analyze:allow-throw-safety(adjacency precondition guard; surfaced via first_error)
  if (i < 0) throw std::invalid_argument("probe_between: vertices are not adjacent");
  return probe(a, i);
}

}  // namespace faultroute
