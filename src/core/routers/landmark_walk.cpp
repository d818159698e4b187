#include "core/routers/landmark_walk.hpp"

#include <algorithm>
#include <cstdint>

// analyze:allow-file-hot-alloc(landmark walk: the pooled queue retains capacity across segments; segment and walk splices materialize the result path)
namespace faultroute::detail {

namespace {

/// landmark_walk's segment BFSs along the base path in state.landmarks,
/// through one row accessor.
template <typename Rows>
bool walk_landmarks(ProbeContext& ctx, const Rows& rows, Path& walk, LandmarkWalkState& state) {
  const std::vector<VertexId>& landmarks = state.landmarks;
  // Position of each landmark along the base path (shortest-path vertices
  // are distinct).
  const std::uint64_t n = rows.graph().num_vertices();
  WalkPositions& pos_of = state.pos_of;
  VertexMarks& parent = state.parent;
  std::vector<VertexId>& queue = state.queue;
  pos_of.begin(landmarks.size());
  for (std::size_t j = 0; j < landmarks.size(); ++j) {
    pos_of.set(pos_of.entry_for(landmarks[j]), landmarks[j], j);
  }

  std::size_t pos = 0;
  while (pos + 1 < landmarks.size()) {
    // BFS over open probed edges from landmarks[pos] until a strictly later
    // landmark appears.
    const VertexId start = landmarks[pos];
    parent.begin(n);
    parent.emplace(start, start);
    queue.clear();
    queue.push_back(start);
    std::size_t head = 0;
    VertexId found = start;
    std::size_t found_pos = pos;
    while (head < queue.size() && found_pos == pos) {
      const VertexId x = queue[head++];
      ctx.note_expansion();
      const int deg = rows.degree(x);
      for (int i = 0; i < deg; ++i) {
        const VertexId y = rows.neighbor(x, i);
        if (parent.contains(y)) continue;
        if (!ctx.probe(rows, x, i)) continue;
        parent.emplace(y, x);
        const WalkPositions::Entry& y_pos = pos_of.entry_for(y);
        if (pos_of.live(y_pos) && y_pos.index > pos) {
          found = y;
          found_pos = y_pos.index;
          break;
        }
        queue.push_back(y);
      }
    }
    if (found_pos == pos) return false;  // exhausted the open cluster

    // Append the BFS segment start -> found (skipping `start`, already on
    // the walk).
    Path segment;
    for (VertexId x = found;; x = parent.at(x)) {
      segment.push_back(x);
      if (x == start) break;
    }
    std::reverse(segment.begin(), segment.end());
    walk.insert(walk.end(), segment.begin() + 1, segment.end());
    pos = found_pos;
  }
  return true;
}

}  // namespace

bool landmark_walk(ProbeContext& ctx, VertexId from, VertexId v, Path& walk,
                   LandmarkWalkState& state) {
  const AdjacencyView& adj = ctx.adjacency();
  shortest_path(adj, from, v, state.landmarks);
  if (state.landmarks.empty()) return false;  // disconnected base topology
  return adj.visit([&](const auto& rows) { return walk_landmarks(ctx, rows, walk, state); });
}

}  // namespace faultroute::detail
