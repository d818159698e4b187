#include "core/routers/gnp_routers.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/complete.hpp"

namespace faultroute {

// The scan's lists are router members: they grow to a message's largest
// U and stalled sets once, then clear and refill in place.
void GnpOracleRouter::CrossScan::clear() {
  cursor.clear();
  active.clear();
  head = 0;
  stalled.clear();
}

void GnpOracleRouter::CrossScan::add_u(std::uint32_t u_index) {
  cursor.push_back(0);        // analyze:allow-hot-alloc(pooled scan list; capacity kept across messages)
  active.push_back(u_index);  // analyze:allow-hot-alloc(pooled scan list; capacity kept across messages)
}

void GnpOracleRouter::CrossScan::revive_all() {
  // analyze:allow-hot-alloc(pooled scan list; capacity kept across messages)
  for (const std::uint32_t i : stalled) active.push_back(i);
  stalled.clear();
}

void GnpOracleRouter::CrossScan::stall_front() {
  stalled.push_back(active[head]);  // analyze:allow-hot-alloc(pooled scan list; capacity kept across messages)
  if (++head == active.size()) {
    active.clear();
    head = 0;
  }
}

std::optional<Path> GnpOracleRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const auto* clique = dynamic_cast<const CompleteGraph*>(&ctx.graph());
  if (clique == nullptr) {
    // analyze:allow-throw-safety(topology precondition guard; surfaced via first_error)
    throw std::invalid_argument("GnpOracleRouter requires a CompleteGraph topology");
  }
  const std::uint64_t n = clique->num_vertices();

  // Per-vertex state is refilled in place: no allocation once the pooled
  // arrays have grown to n. parent_ is written before it is read.
  status_.assign(n, Membership::kUnreached);  // analyze:allow-hot-alloc(pooled per-vertex state; grows once, then refills in place)
  grow_cursor_.assign(n, 0);  // analyze:allow-hot-alloc(pooled per-vertex state; grows once, then refills in place)
  parent_.resize(n);  // analyze:allow-hot-alloc(pooled per-vertex state; grows once, then refills in place)
  members_u_.assign(1, u);  // analyze:allow-hot-alloc(pooled member list; capacity kept across messages)
  members_v_.assign(1, v);  // analyze:allow-hot-alloc(pooled member list; capacity kept across messages)
  status_[u] = Membership::kInU;
  status_[v] = Membership::kInV;
  parent_[u] = u;
  parent_[v] = v;

  cross_.clear();
  cross_.add_u(0);
  std::size_t grow_next_u = 0;  // round-robin position within members_u_
  std::size_t grow_next_v = 0;

  // Appends from, parent(from), ... up to the root of from's side.
  const auto append_chain = [this](Path& path, VertexId from) {
    for (VertexId x = from;; x = parent_[x]) {
      path.push_back(x);  // analyze:allow-hot-alloc(the returned path: one per routed message)
      if (parent_[x] == x) break;
    }
  };
  const auto build_path = [&](VertexId a, VertexId b) {
    // a in U, b in V, open edge a-b: u .. a, then b .. v.
    Path path;
    append_chain(path, a);
    std::reverse(path.begin(), path.end());
    append_chain(path, b);
    return path;
  };

  // One growth attempt from `members[pos]`: probe its next unreached
  // candidate, if any. Returns true if a probe was made.
  const auto try_grow = [&](std::vector<VertexId>& members, std::size_t& pos,
                            Membership tag) -> bool {
    const std::size_t count = members.size();
    for (std::size_t scanned = 0; scanned < count; ++scanned) {
      const VertexId s = members[(pos + scanned) % count];
      std::uint64_t& cur = grow_cursor_[s];
      while (cur < n && status_[cur] != Membership::kUnreached) ++cur;
      if (cur >= n) continue;
      const VertexId x = cur++;
      pos = (pos + scanned) % count;  // stay with this member next round
      if (ctx.probe(s, clique->index_of(s, x))) {
        status_[x] = tag;
        parent_[x] = s;
        members.push_back(x);  // analyze:allow-hot-alloc(pooled member list; capacity kept across messages)
        if (tag == Membership::kInU) {
          cross_.add_u(static_cast<std::uint32_t>(members.size() - 1));
        } else {
          cross_.revive_all();  // V grew: stalled U cursors have new pairs
        }
      }
      return true;
    }
    return false;
  };

  while (true) {
    // (1) Probe an unqueried U x V pair if one exists.
    bool probed_cross = false;
    while (!cross_.empty()) {
      const std::uint32_t ui = cross_.front();
      if (cross_.cursor[ui] >= members_v_.size()) {
        cross_.stall_front();
        continue;
      }
      const VertexId a = members_u_[ui];
      const VertexId b = members_v_[cross_.cursor[ui]++];
      if (cross_.cursor[ui] >= members_v_.size()) cross_.stall_front();
      if (ctx.probe(a, clique->index_of(a, b))) return build_path(a, b);
      probed_cross = true;
      break;
    }
    if (probed_cross) continue;

    // (2) Grow the smaller side (ties: U).
    const bool u_smaller = members_u_.size() <= members_v_.size();
    if (u_smaller) {
      if (try_grow(members_u_, grow_next_u, Membership::kInU)) continue;
      if (try_grow(members_v_, grow_next_v, Membership::kInV)) continue;
    } else {
      if (try_grow(members_v_, grow_next_v, Membership::kInV)) continue;
      if (try_grow(members_u_, grow_next_u, Membership::kInU)) continue;
    }

    // (3) Nothing left to probe: u and v are disconnected.
    return std::nullopt;
  }
}

}  // namespace faultroute
