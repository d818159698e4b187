#include "core/probe_context.hpp"

#include <algorithm>

#include "graph/channel_index.hpp"
#include "graph/distance_oracle.hpp"

namespace faultroute {

ProbeArena::ProbeArena(const SharedProbeCache& cache) : ProbeArena(cache.graph(), &cache, true) {}

ProbeArena::ProbeArena(const Topology& graph) : ProbeArena(graph, nullptr, fits_dense(graph)) {}

ProbeArena::ProbeArena(const Topology& graph, const SharedProbeCache* batch, bool dense)
    : graph_(graph), adjacency_(graph, nullptr), batch_(batch), dense_(dense) {
  if (!dense_) return;
  channels_ = &graph.channel_index();
  const std::uint32_t edges = channels_->num_edge_ids();
  edge_probed_.assign((std::uint64_t{edges} + 63) / 64, 0);
  if (batch_ == nullptr) edge_open_.assign(edge_probed_.size(), 0);
  vertex_stamp_.assign(graph.num_vertices(), 0);
  // Room for every edge id up front, so the list never reallocates and the
  // pages it occupies are only the ones the busiest message has written.
  probed_edges_.reserve(edges);
}

void ProbeArena::begin_message(const EdgeSampler* sampler) {
  sampler_ = sampler;
  if (!dense_) {
    decltype(memo_)().swap(memo_);
    decltype(reached_)().swap(reached_);
    return;
  }
  // Every set bit is on the list, so zeroing each listed edge's word clears
  // them all and touches nothing the last message did not. A single-pair
  // arena's answer bits are set only for listed edges too.
  if (batch_ == nullptr) {
    for (const std::uint32_t edge : probed_edges_) {
      edge_probed_[edge >> 6] = 0;
      edge_open_[edge >> 6] = 0;
    }
  } else {
    for (const std::uint32_t edge : probed_edges_) edge_probed_[edge >> 6] = 0;
  }
  probed_edges_.clear();
  if (epoch_ == kMaxEpoch) {
    // Epoch wrap: stamps from ~4 billion messages ago would read as live.
    // Zero them and restart — amortised cost is a rounding error.
    std::fill(vertex_stamp_.begin(), vertex_stamp_.end(), 0u);
    epoch_ = 0;
  }
  ++epoch_;
}

ProbeContext::ProbeContext(ProbeArena& arena, VertexId source, RoutingMode mode,
                           std::optional<std::uint64_t> budget, const FlatAdjacency* flat,
                           const DistanceOracle* oracle)
    : ProbeContext(arena, nullptr, source, mode, budget, flat, oracle) {}

ProbeContext::ProbeContext(ProbeArena& arena, const EdgeSampler& sampler, VertexId source,
                           RoutingMode mode, std::optional<std::uint64_t> budget)
    : ProbeContext(arena, &sampler, source, mode, budget, nullptr, nullptr) {}

ProbeContext::ProbeContext(ProbeArena& arena, const EdgeSampler* sampler, VertexId source,
                           RoutingMode mode, std::optional<std::uint64_t> budget,
                           const FlatAdjacency* flat, const DistanceOracle* oracle)
    : arena_(arena), graph_(arena.graph()), source_(source), mode_(mode), budget_(budget),
      flat_(flat), adjacency_(flat != nullptr ? AdjacencyView(graph_, flat) : arena.adjacency_),
      oracle_(oracle) {
  if (arena.in_use_) {
    // analyze:allow-throw-safety(arena-sharing contract violation is a programming error; surfaced via first_error)
    throw ProbeArenaInUse("ProbeContext: the ProbeArena is held by another live context");
  }
  if ((sampler == nullptr) != (arena.batch_ != nullptr)) {
    // analyze:allow-throw-safety(arena-kind contract violation is a programming error; surfaced via first_error)
    throw std::logic_error(sampler == nullptr
                               ? "ProbeContext: a single-pair ProbeArena needs a sampler"
                               : "ProbeContext: a batch's ProbeArena probes the batch's cache");
  }
  arena.begin_message(sampler);
  arena.in_use_ = true;
  if (mode_ == RoutingMode::kLocal) {
    if (arena.dense_) {
      arena.vertex_stamp_[source_] = arena.epoch_;
    } else {
      arena.reached_.insert(source_);  // analyze:allow-hot-alloc(the sparse side serves only graphs past the dense budget)
    }
  }
}

ProbeContext::~ProbeContext() { arena_.in_use_ = false; }

bool ProbeContext::is_reached(VertexId v) const {
  if (mode_ == RoutingMode::kOracle) return true;  // no restriction to track
  if (arena_.dense_) return arena_.vertex_stamp_[v] == arena_.epoch_;
  return arena_.reached_.contains(v);
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

/// The dense side's implicit adjacency accessor: virtual dispatch, and the
/// channel index's edge ids — the family's closed form where it has one, so
/// no table is built (the row accessors probe(rows, v, i) takes are in
/// graph/flat_adjacency.hpp).
struct VirtualAccess {
  const Topology* graph;
  const ChannelIndex* channels;
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return graph->neighbor(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const { return channels->edge_id(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return graph->edge_key(v, i); }
};

}  // namespace

/// The arena's sparse side: the memo holds each probed edge's answer under
/// its EdgeKey (the slot), and a fresh probe asks the context's sampler. Every lookup
/// goes through the topology's virtual interface; no edge id is needed.
struct ProbeContext::SparseMemo {
  using Access = const Topology*;
  using Slot = EdgeKey;
  ProbeArena* arena;
  const Topology* graph;

  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return graph->neighbor(v, i); }
  [[nodiscard]] bool reached(VertexId v) const { return arena->reached_.contains(v); }
  [[nodiscard]] Slot slot(VertexId v, int i) const { return graph->edge_key(v, i); }
  bool recall(Slot key, bool& open) const {
    const auto it = arena->memo_.find(key);
    if (it == arena->memo_.end()) return false;
    open = it->second;
    return true;
  }
  bool discover(Slot key, VertexId /*v*/, int /*i*/) const {
    const bool open = arena->sampler_->is_open(key);
    arena->memo_.emplace(key, open);  // analyze:allow-hot-alloc(the sparse side serves only graphs past the dense budget)
    return open;
  }
  void reach(VertexId v, VertexId w) const {
    arena->reached_.insert(v);  // analyze:allow-hot-alloc(the sparse side serves only graphs past the dense budget)
    arena->reached_.insert(w);  // analyze:allow-hot-alloc(the sparse side serves only graphs past the dense budget)
  }
};

bool ProbeContext::probe_implicit(VertexId v, int i) {
  if (!arena_.dense_) return probe_with<SparseMemo>(&graph_, v, i);
  const VirtualAccess access{&graph_, arena_.channels_};
  if (arena_.batch_ != nullptr) return probe_with<DenseMemo<VirtualAccess, true>>(access, v, i);
  return probe_with<DenseMemo<VirtualAccess, false>>(access, v, i);
}

bool ProbeContext::probe_between(VertexId a, VertexId b) {
  return adjacency_.visit([&](const auto& rows) {
    const int i = rows.edge_index_of(a, b);
    // analyze:allow-throw-safety(adjacency precondition guard; surfaced via first_error)
    if (i < 0) throw std::invalid_argument("probe_between: vertices are not adjacent");
    return probe(rows, a, i);
  });
}

}  // namespace faultroute
