#include "core/routers/bidirectional_router.hpp"

#include <algorithm>
#include <utility>

#include "graph/flat_adjacency.hpp"

// analyze:allow-file-hot-alloc(per-message bidirectional BFS: frontiers and marks are pooled per router, the returned Path allocates per message)
namespace faultroute {

namespace {

/// One BFS ball. The frontier is a pooled vector with a head cursor; its
/// live size (size() - head) matches the std::queue-based original exactly.
struct Side {
  VertexMarks* parent;
  std::vector<VertexId>* frontier;
  std::size_t head = 0;

  [[nodiscard]] std::size_t live() const { return frontier->size() - head; }
};

Path chain_to_root(const Side& side, VertexId from) {
  Path path;
  for (VertexId x = from;; x = side.parent->at(x)) {
    path.push_back(x);
    if (side.parent->at(x) == x) break;
  }
  return path;  // from .. root
}

template <typename Rows>
std::optional<Path> bidirectional_search(ProbeContext& ctx, const Rows& rows, VertexId u,
                                         VertexId v, Side from_u, Side from_v) {
  const std::uint64_t n = rows.graph().num_vertices();
  from_u.parent->begin(n);
  from_v.parent->begin(n);
  from_u.frontier->clear();
  from_v.frontier->clear();
  from_u.parent->emplace(u, u);
  from_u.frontier->push_back(u);
  from_v.parent->emplace(v, v);
  from_v.frontier->push_back(v);

  const auto join = [&](VertexId meeting, VertexId via_u_side) {
    // Path = u .. via_u_side, meeting .. v. `meeting` is already in from_v.
    Path left = chain_to_root(from_u, via_u_side);
    std::reverse(left.begin(), left.end());  // u .. via_u_side
    const Path right = chain_to_root(from_v, meeting);  // meeting .. v
    left.insert(left.end(), right.begin(), right.end());
    return simplify_walk(std::move(left));
  };

  while (from_u.live() > 0 || from_v.live() > 0) {
    // Expand the side with the smaller live frontier (ties: u side).
    const bool expand_u =
        from_u.live() > 0 && (from_v.live() == 0 || from_u.live() <= from_v.live());
    Side& mine = expand_u ? from_u : from_v;
    Side& other = expand_u ? from_v : from_u;
    const VertexId x = (*mine.frontier)[mine.head++];
    ctx.note_expansion();
    VertexId meeting = x;
    const bool met = ctx.probe_row(
        rows, x, 0, rows.degree(x), [&mine](VertexId y) { return !mine.parent->contains(y); },
        [&](VertexId y, int /*slot*/) {
          if (other.parent->contains(y)) {
            meeting = y;  // the two balls touch along edge (x, y)
            return true;
          }
          mine.parent->emplace(y, x);
          mine.frontier->push_back(y);
          return false;
        });
    if (met) return expand_u ? join(meeting, x) : join(x, meeting);
  }
  return std::nullopt;
}

}  // namespace

std::optional<Path> BidirectionalBfsRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  return ctx.adjacency().visit([&](const auto& rows) {
    return bidirectional_search(ctx, rows, u, v, Side{&parent_u_, &queue_u_},
                                Side{&parent_v_, &queue_v_});
  });
}

}  // namespace faultroute
