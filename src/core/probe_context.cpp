#include "core/probe_context.hpp"

#include <algorithm>
#include <limits>

#include "graph/channel_index.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

void ProbeArena::begin_message(const Topology& graph) {
  // Re-fetch the channel index every message rather than caching it behind
  // a topology-address compare: a new topology allocated where a destroyed
  // one lived would alias such a cache (dangling index, wrongly-sized
  // arrays). channel_index() is one call_once fast path — nothing against
  // the cost of routing a message. Arrays only ever grow; slots stamped by
  // a previous topology are harmless because their stamps are strictly
  // below the post-increment epoch.
  channels_ = &graph.channel_index();
  if (edge_epoch_.size() < channels_->num_edge_ids()) {
    edge_epoch_.resize(channels_->num_edge_ids(), 0);  // analyze:allow-hot-alloc(grow-only arena warm-up, reused across messages)
    edge_open_.resize(channels_->num_edge_ids(), 0);  // analyze:allow-hot-alloc(same grow-only warm-up)
  }
  if (vertex_epoch_.size() < graph.num_vertices()) {
    vertex_epoch_.resize(graph.num_vertices(), 0);  // analyze:allow-hot-alloc(same grow-only warm-up)
  }
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Epoch wrap: stamps from ~4 billion messages ago would read as live.
    // Zero everything and restart — amortised cost is a rounding error.
    std::fill(edge_epoch_.begin(), edge_epoch_.end(), 0u);
    std::fill(vertex_epoch_.begin(), vertex_epoch_.end(), 0u);
    epoch_ = 0;
  }
  ++epoch_;
}

ProbeContext::ProbeContext(const Topology& graph, const EdgeSampler& sampler,
                           VertexId source, RoutingMode mode,
                           std::optional<std::uint64_t> budget, ProbeArena* arena,
                           const FlatAdjacency* flat, const DistanceOracle* oracle)
    : graph_(graph), sampler_(sampler), source_(source), mode_(mode), budget_(budget),
      arena_(arena), flat_(flat), oracle_(oracle) {
  if (arena_ != nullptr) {
    arena_->begin_message(graph_);
    channels_ = arena_->channels_;
  }
  if (mode_ == RoutingMode::kLocal) reached_insert(source_);
}

bool ProbeContext::reached_contains(VertexId v) const {
  if (arena_ != nullptr) return arena_->vertex_epoch_[v] == arena_->epoch_;
  return reached_.contains(v);
}

void ProbeContext::reached_insert(VertexId v) {
  if (arena_ != nullptr) {
    arena_->vertex_epoch_[v] = arena_->epoch_;
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

/// Adjacency accessors the shared probe bookkeeping is parameterized on:
/// array loads off the CSR snapshot on the flat path, virtual dispatch (and
/// the channel index's edge-id table) on the implicit path. One bookkeeping
/// body + two accessor structs = the backends cannot drift.
struct FlatAccess {
  const FlatAdjacency* flat;
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return flat->neighbor(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const { return flat->edge_id(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return flat->edge_key(v, i); }
};

struct VirtualAccess {
  const Topology* graph;
  const ChannelIndex* channels;  // non-null only on the dense backend
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return graph->neighbor(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const {
    return channels->edge_id_of(channels->channel_of(v, i));
  }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return graph->edge_key(v, i); }
};

}  // namespace

template <typename Access>
bool ProbeContext::probe_with(const Access& access, VertexId v, int i) {
  const VertexId w = access.neighbor(v, i);
  if (mode_ == RoutingMode::kLocal && !reached_contains(v) && !reached_contains(w)) {
    // analyze:allow-throw-safety(locality contract violation is a programming error; surfaced via first_error)
    throw LocalityViolation("local probe of edge not incident to the reached set");
  }
  ++total_probes_;
  bool open;
  if (arena_ != nullptr) {
    // Dense backend: the memo is a flat per-edge array, live iff stamped
    // with this message's epoch. A hit touches one cache line and computes
    // no edge key; only a fresh probe asks the sampler.
    const std::uint32_t edge = access.edge_id(v, i);
    if (arena_->edge_epoch_[edge] == arena_->epoch_) {
      open = arena_->edge_open_[edge] != 0;
    } else {
      if (budget_ && distinct_probes_ >= *budget_) {
        throw ProbeBudgetExceeded("probe budget exhausted");  // analyze:allow-throw-safety(probe-budget censoring signal, caught per message by the engine)
      }
      open = sampler_.is_open_indexed(edge, access.edge_key(v, i));
      arena_->edge_epoch_[edge] = arena_->epoch_;
      arena_->edge_open_[edge] = open ? 1 : 0;
      ++distinct_probes_;
    }
  } else {
    const EdgeKey key = access.edge_key(v, i);
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

bool ProbeContext::probe(VertexId v, int i) {
  if (flat_ != nullptr) return probe_with(FlatAccess{flat_}, v, i);
  return probe_with(VirtualAccess{&graph_, channels_}, v, i);
}

bool ProbeContext::probe_between(VertexId a, VertexId b) {
  const int i = flat_ != nullptr ? edge_index_of(*flat_, a, b) : edge_index_of(graph_, a, b);
  // analyze:allow-throw-safety(adjacency precondition guard; surfaced via first_error)
  if (i < 0) throw std::invalid_argument("probe_between: vertices are not adjacent");
  return probe(a, i);
}

}  // namespace faultroute
