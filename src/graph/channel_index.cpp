#include "graph/channel_index.hpp"

#include <algorithm>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include "obs/counter_registry.hpp"

namespace faultroute {

namespace {

/// The pairing pass found a channel whose twin is missing or ambiguous: the
/// topology breaks the neighbor / edge_key symmetry contract.
[[noreturn]] void throw_unpaired(const Topology& graph, std::uint32_t channel, VertexId tail,
                                 VertexId head, const std::string& why) {
  // analyze:allow-throw-safety(symmetry contract violation is a programming error in the topology)
  throw std::logic_error("ChannelIndex: " + graph.name() + " channel " +
                         std::to_string(channel) + " (" + std::to_string(tail) + " -> " +
                         std::to_string(head) + ") has no twin: " + why +
                         "; the neighbor/edge_key symmetry contract is violated");
}

}  // namespace

/// Channel ids are 32-bit; a topology with more directed channels is refused.
void ChannelIndex::throw_too_many_channels(const Topology& graph, std::uint64_t channels) {
  // analyze:allow-throw-safety(size refusal; run_scenario raises it in the fail-fast phase, before the cell loop)
  throw std::length_error("ChannelIndex: " + graph.name() + " has " +
                          std::to_string(channels) +
                          " directed channels; ids are 32-bit (max 4294967295)");
}

ChannelIndex::ChannelIndex(const Topology& graph) : graph_(&graph) {
  // Refused before the vertex-sized offset table is allocated or a single
  // degree() is asked. The check after the loop still guards a family whose
  // num_edges() disagrees with its degrees.
  check_capacity(graph);
  const std::uint64_t n = graph.num_vertices();
  try {
    offsets_.resize(n + 1);
  } catch (const std::bad_alloc&) {
    throw_allocation_failure(graph, "channel index offset table", (n + 1) * sizeof(std::uint64_t));
  }
  std::uint64_t total = 0;
  if (const int degree = graph.regular_degree(); degree > 0) {
    // A regular family's offsets are v * degree: no virtual call per vertex
    // (torus:3:102, 1.06M vertices: ~1.2 ms instead of ~3-4 ms).
    // Unrolled: with one store per iteration, this loop's speed swung by
    // ~40% with where the linker placed it (torus:3:102, 1.06M vertices).
    const auto d = static_cast<std::uint64_t>(degree);
#pragma GCC unroll 8
    for (VertexId v = 0; v < n; ++v) offsets_[v] = v * d;
    total = n * d;
  } else {
    for (VertexId v = 0; v < n; ++v) {
      offsets_[v] = total;
      total += static_cast<std::uint64_t>(graph.degree(v));
    }
  }
  offsets_[n] = total;
  if (total > std::numeric_limits<std::uint32_t>::max()) throw_too_many_channels(graph, total);
  num_channels_ = static_cast<std::uint32_t>(total);
  closed_form_ = graph.has_closed_form_edge_ids();
  // check_capacity bounds num_edges() by 2^31.
  if (closed_form_) num_edge_ids_ = static_cast<std::uint32_t>(graph.num_edges());
}

VertexId ChannelIndex::tail(std::uint32_t channel) const {
  // offsets_ is strictly increasing between distinct offsets (zero-degree
  // vertices repeat a value, but then own no channel), so the tail is the
  // last vertex whose offset is <= channel.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(),
                                   static_cast<std::uint64_t>(channel));
  return static_cast<VertexId>(it - offsets_.begin()) - 1;
}

int ChannelIndex::slot(std::uint32_t channel) const {
  return static_cast<int>(channel - offsets_[tail(channel)]);
}

VertexId ChannelIndex::head(std::uint32_t channel) const {
  const VertexId v = tail(channel);
  return graph_->neighbor(v, static_cast<int>(channel - offsets_[v]));
}

EdgeKey ChannelIndex::edge_of(std::uint32_t channel) const {
  const VertexId v = tail(channel);
  return graph_->edge_key(v, static_cast<int>(channel - offsets_[v]));
}

void ChannelIndex::build_edge_ids() const {
  // Process-global, like graph.flat_adjacency.materializations: the table
  // is per topology, and a build on the implicit path of a closed-form
  // family is exactly the regression this count exposes.
  obs::global_count("graph.channel_index.edge_id_tables");
  try {
    edge_ids_.resize(num_channels_);  // analyze:allow-hot-alloc(one-shot lazy index build, memoised per topology)
  } catch (const std::bad_alloc&) {
    throw_allocation_failure(*graph_, "channel index edge-id table",
                             std::uint64_t{num_channels_} * sizeof(std::uint32_t));
  }
  if (closed_form_) {
    fill_closed_form_edge_ids();
  } else {
    pair_edge_ids();
  }
}

void ChannelIndex::fill_closed_form_edge_ids() const {
  // A channel v -> w with w > v is its edge's first appearance, so a
  // running counter numbers it; its twin w -> v comes later and takes the
  // closed form, with no scratch to find it. (The families with a closed
  // form have no parallel edges and no self-loops, so w > v decides.)
  const std::uint64_t n = graph_->num_vertices();
  std::uint32_t next_id = 0;
  std::uint32_t channel = 0;
  for (VertexId v = 0; v < n; ++v) {
    const int deg = graph_->degree(v);
    for (int i = 0; i < deg; ++i, ++channel) {
      edge_ids_[channel] = graph_->neighbor(v, i) > v ? next_id++ : graph_->edge_id(v, i);
    }
  }
}

void ChannelIndex::pair_edge_ids() const {
  // One pass over channels in ascending id order. A channel v -> w with
  // w > v is its edge's first appearance (the twin w -> v has a larger id),
  // so it takes the next id and is filed under w: filed[offsets_[w] + k] is
  // the k-th such channel into w, ascending, inside w's own row-sized region.
  // When the pass reaches w, the twin of w -> v (v < w) is the channel out of
  // v filed under w; filed channels out of v form one contiguous run, found
  // by binary search for v's channel range.
  const std::uint64_t n = graph_->num_vertices();
  std::vector<std::uint32_t> filed;
  std::vector<std::uint32_t> filed_count;
  try {
    filed.resize(num_channels_);  // analyze:allow-hot-alloc(one-shot scratch of the lazy table build)
    filed_count.resize(n, 0);  // analyze:allow-hot-alloc(same one-shot build)
  } catch (const std::bad_alloc&) {
    throw_allocation_failure(*graph_, "channel index edge-id pairing scratch",
                             std::uint64_t{num_channels_} * sizeof(std::uint32_t) +
                                 n * sizeof(std::uint32_t));
  }
  std::vector<std::uint8_t> claimed;  // per filed channel of the current row
  std::uint32_t next_id = 0;
  std::uint32_t channel = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t* row = filed.data() + offsets_[v];
    const std::uint32_t row_count = filed_count[v];
    claimed.assign(row_count, 0);  // analyze:allow-hot-alloc(same one-shot build; capacity retained across rows)
    std::uint32_t claims = 0;
    const int deg = graph_->degree(v);
    for (int i = 0; i < deg; ++i, ++channel) {
      const VertexId w = graph_->neighbor(v, i);
      if (w > v) {
        if (w >= n) throw_unpaired(*graph_, channel, v, w, "head is not a vertex");
        if (filed_count[w] == offsets_[w + 1] - offsets_[w]) {
          throw_unpaired(*graph_, channel, v, w, "head has fewer slots than channels into it");
        }
        filed[offsets_[w] + filed_count[w]++] = channel;
        edge_ids_[channel] = next_id++;
        continue;
      }
      if (w == v) throw_unpaired(*graph_, channel, v, w, "self-loop");
      const std::uint32_t* end = row + row_count;
      const std::uint32_t* twin = std::lower_bound(
          row, end, static_cast<std::uint32_t>(offsets_[w]));
      const auto from_w = [&](const std::uint32_t* p) { return p != end && *p < offsets_[w + 1]; };
      if (!from_w(twin)) throw_unpaired(*graph_, channel, v, w, "no channel back from the head");
      if (from_w(twin + 1)) {
        // Parallel edges between w and v: the edge key tells them apart.
        const EdgeKey key = graph_->edge_key(v, i);
        while (from_w(twin) &&
               graph_->edge_key(w, static_cast<int>(*twin - offsets_[w])) != key) {
          ++twin;
        }
        if (!from_w(twin)) {
          throw_unpaired(*graph_, channel, v, w, "no parallel channel back carries its edge key");
        }
      }
      std::uint8_t& taken = claimed[static_cast<std::size_t>(twin - row)];
      if (taken != 0) throw_unpaired(*graph_, channel, v, w, "its twin is already paired");
      taken = 1;
      ++claims;
      edge_ids_[channel] = edge_ids_[*twin];
    }
    if (claims != row_count) {
      const auto unclaimed = static_cast<std::size_t>(
          std::find(claimed.begin(), claimed.end(), 0) - claimed.begin());
      const std::uint32_t orphan = row[unclaimed];
      throw_unpaired(*graph_, orphan, tail(orphan), v, "the head has no slot back");
    }
  }
  num_edge_ids_ = next_id;
}

}  // namespace faultroute
