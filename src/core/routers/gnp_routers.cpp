#include "core/routers/gnp_routers.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "graph/complete.hpp"

// analyze:allow-file-hot-alloc(complete-graph cross-scan routers size per-search state once per message)
namespace faultroute {

namespace {

enum class Membership : std::uint8_t { kUnreached = 0, kInU = 1, kInV = 2 };

/// Lazy enumeration state for the cross pairs (U x V): each U member holds a
/// cursor over the growing V list. Stalled cursors (cursor == |V| at the
/// time of inspection) are parked and revived when V grows.
struct CrossScan {
  std::vector<std::uint32_t> cursor;       // per U-index: next V-index to probe
  std::deque<std::uint32_t> active;        // U-indices with cursor < |V|
  std::vector<std::uint32_t> stalled;      // U-indices waiting for V to grow

  void add_u(std::uint32_t u_index) {
    cursor.push_back(0);
    active.push_back(u_index);
  }
  void revive_all() {
    for (const std::uint32_t i : stalled) active.push_back(i);
    stalled.clear();
  }
};

}  // namespace

std::optional<Path> GnpOracleRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const auto* clique = dynamic_cast<const CompleteGraph*>(&ctx.graph());
  if (clique == nullptr) {
    // analyze:allow-throw-safety(topology precondition guard; surfaced via first_error)
    throw std::invalid_argument("GnpOracleRouter requires a CompleteGraph topology");
  }
  const std::uint64_t n = clique->num_vertices();

  std::vector<Membership> status(n, Membership::kUnreached);
  std::vector<VertexId> parent(n, 0);
  std::vector<VertexId> members_u{u};
  std::vector<VertexId> members_v{v};
  status[u] = Membership::kInU;
  status[v] = Membership::kInV;
  parent[u] = u;
  parent[v] = v;

  CrossScan cross;
  cross.add_u(0);

  // Per-(U u V)-member growth cursor: next vertex id to consider probing.
  std::vector<std::uint64_t> grow_cursor(n, 0);
  std::size_t grow_next_u = 0;  // round-robin position within members_u
  std::size_t grow_next_v = 0;

  const auto chain = [&parent](VertexId from) {
    Path path;
    for (VertexId x = from;; x = parent[x]) {
      path.push_back(x);
      if (parent[x] == x) break;
    }
    return path;  // from .. root
  };
  const auto build_path = [&](VertexId a, VertexId b) {
    // a in U, b in V, open edge a-b.
    Path left = chain(a);  // a .. u
    std::reverse(left.begin(), left.end());
    const Path right = chain(b);  // b .. v
    Path full = std::move(left);
    full.insert(full.end(), right.begin(), right.end());
    return full;
  };

  // One growth attempt from `members[pos]`: probe its next unreached
  // candidate, if any. Returns true if a probe was made.
  const auto try_grow = [&](std::vector<VertexId>& members, std::size_t& pos,
                            Membership tag) -> bool {
    const std::size_t count = members.size();
    for (std::size_t scanned = 0; scanned < count; ++scanned) {
      const VertexId s = members[(pos + scanned) % count];
      std::uint64_t& cur = grow_cursor[s];
      while (cur < n && status[cur] != Membership::kUnreached) ++cur;
      if (cur >= n) continue;
      const VertexId x = cur++;
      pos = (pos + scanned) % count;  // stay with this member next round
      if (ctx.probe(s, clique->index_of(s, x))) {
        status[x] = tag;
        parent[x] = s;
        if (tag == Membership::kInU) {
          members_u.push_back(x);
          cross.add_u(static_cast<std::uint32_t>(members_u.size() - 1));
        } else {
          members_v.push_back(x);
          cross.revive_all();  // V grew: stalled U cursors have new pairs
        }
      }
      return true;
    }
    return false;
  };

  while (true) {
    // (1) Probe an unqueried U x V pair if one exists.
    bool probed_cross = false;
    while (!cross.active.empty()) {
      const std::uint32_t ui = cross.active.front();
      if (cross.cursor[ui] >= members_v.size()) {
        cross.active.pop_front();
        cross.stalled.push_back(ui);
        continue;
      }
      const VertexId a = members_u[ui];
      const VertexId b = members_v[cross.cursor[ui]++];
      if (cross.cursor[ui] >= members_v.size()) {
        cross.active.pop_front();
        cross.stalled.push_back(ui);
      }
      if (ctx.probe(a, clique->index_of(a, b))) return build_path(a, b);
      probed_cross = true;
      break;
    }
    if (probed_cross) continue;

    // (2) Grow the smaller side (ties: U).
    const bool u_smaller = members_u.size() <= members_v.size();
    if (u_smaller) {
      if (try_grow(members_u, grow_next_u, Membership::kInU)) continue;
      if (try_grow(members_v, grow_next_v, Membership::kInV)) continue;
    } else {
      if (try_grow(members_v, grow_next_v, Membership::kInV)) continue;
      if (try_grow(members_u, grow_next_u, Membership::kInU)) continue;
    }

    // (3) Nothing left to probe: u and v are disconnected.
    return std::nullopt;
  }
}

}  // namespace faultroute
