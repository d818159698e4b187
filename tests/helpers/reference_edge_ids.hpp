#pragma once

// Naive references for the channel index's edge pairing, for tests.
//
// ChannelIndex numbers edges by a closed form (hypercube, mesh/torus,
// complete) or pairs the two directions of every edge in one hash-free pass
// (graph/channel_index.cpp). These references pair them the obvious way:
// by scanning the head's slots for the one that leads back with the same
// edge key, and by numbering edge keys in order of first appearance with a
// key -> id hash map.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/topology.hpp"

namespace faultroute::reference {

/// The opposite direction of `channel`: the slot of its head that leads
/// back to its tail with the same edge key (which tells parallel edges
/// apart). O(degree). Throws std::logic_error if there is none.
inline std::uint32_t reverse_channel(const Topology& g, const ChannelIndex& index,
                                     std::uint32_t channel) {
  const VertexId v = index.tail(channel);
  const int i = index.slot(channel);
  const VertexId w = g.neighbor(v, i);
  const EdgeKey key = g.edge_key(v, i);
  for (int j = 0; j < g.degree(w); ++j) {
    if (g.neighbor(w, j) == v && g.edge_key(w, j) == key) return index.channel_of(w, j);
  }
  throw std::logic_error("reference::reverse_channel: no reverse slot for channel " +
                         std::to_string(channel) + " of " + g.name());
}

/// Dense undirected edge id of every channel (indexed by channel id): the
/// number of distinct edge keys seen before the channel's key first
/// appeared, walking channels in ascending id order.
inline std::vector<std::uint32_t> first_appearance_edge_ids(const Topology& g) {
  std::vector<std::uint32_t> ids;
  std::unordered_map<EdgeKey, std::uint32_t> id_of_key;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const auto next = static_cast<std::uint32_t>(id_of_key.size());
      ids.push_back(id_of_key.emplace(g.edge_key(v, i), next).first->second);
    }
  }
  return ids;
}

}  // namespace faultroute::reference
