#pragma once

#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "core/walk_positions.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/vertex_marks.hpp"

namespace faultroute::detail {

/// Search state of the landmark walk, pooled in the router across the
/// messages a worker routes. `landmarks` holds the fault-free base path;
/// `pos_of` maps a landmark vertex to its position along it, in a table
/// sized by the path, not the graph; the `parent` marks hold the
/// per-segment BFS tree; `queue` is that BFS's FIFO.
struct LandmarkWalkState {
  std::vector<VertexId> landmarks;
  std::vector<VertexId> queue;
  WalkPositions pos_of;
  VertexMarks parent;
};

/// The landmark walk of Theorems 3(ii)/4, shared by LandmarkRouter (the
/// whole algorithm) and HybridGreedyRouter (its repair phase):
///
///   1. fix the fault-free shortest path from .. v as landmarks;
///   2. from the furthest landmark reached, BFS over open probed edges
///      until a strictly later landmark appears;
///   3. repeat until v.
///
/// Extends `walk` in place from its last vertex (`from`); returns false if
/// the base topology is disconnected or the open cluster is exhausted
/// (u !~ v), leaving `walk` in an unspecified partial state. The walk
/// scans rows and probes through ctx.adjacency()'s accessor, picked once
/// per call. The base path comes from shortest_path over that adjacency
/// (graph/flat_adjacency.hpp): CSR rows when a snapshot is up, the same
/// vertex sequence as graph.shortest_path.
bool landmark_walk(ProbeContext& ctx, VertexId from, VertexId v, Path& walk,
                   LandmarkWalkState& state);

}  // namespace faultroute::detail
