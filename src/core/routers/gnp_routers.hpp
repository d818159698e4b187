#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/router.hpp"
#include "core/routers/flood_router.hpp"

namespace faultroute {

/// The natural local router for G_{n,p} (Theorem 10's setting): flood
/// outwards from u, probing each newly reached vertex's edge to the target
/// first. Theorem 10 shows *every* local algorithm pays Omega(n^2) expected
/// probes here; this router realises Theta(n^2) and is the measured
/// witness for the lower bound's tightness.
class GnpLocalRouter final : public FloodRouter {
 public:
  GnpLocalRouter() : FloodRouter(/*probe_target_first=*/true) {}

  [[nodiscard]] std::string name() const override { return "gnp-local"; }
};

/// The oracle router of Theorem 11, verbatim from the paper:
///
///   (1) whenever there are unqueried edges between U_t and V_t, probe one;
///   (2) otherwise grow the smaller of U_t, V_t by probing an unprobed edge
///       to a previously unreached vertex;
///   (3) if no such edge exists, report u !~ v.
///
/// Both sets grow to ~ sqrt(n) before a cross edge appears (birthday
/// paradox), each growth step costs ~ n/c probes, so the expected complexity
/// is Theta(n^{3/2}) — a sqrt(n) factor below any local router. Requires the
/// topology to be a CompleteGraph. Complete.
class GnpOracleRouter final : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "gnp-oracle"; }
  [[nodiscard]] RoutingMode required_mode() const override { return RoutingMode::kOracle; }

 private:
  enum class Membership : std::uint8_t { kUnreached = 0, kInU = 1, kInV = 2 };

  /// Lazy enumeration state for the cross pairs (U x V): each U member holds
  /// a cursor over the growing V list. Stalled cursors (cursor == |V| at the
  /// time of inspection) are parked and revived when V grows. `active` is a
  /// FIFO read from `head`; it is emptied whenever it drains, and it only
  /// grows while drained, so it never holds more than |U| entries.
  struct CrossScan {
    std::vector<std::uint32_t> cursor;   // per U-index: next V-index to probe
    std::vector<std::uint32_t> active;   // U-indices with cursor < |V|, from head
    std::size_t head = 0;
    std::vector<std::uint32_t> stalled;  // U-indices waiting for V to grow

    void clear();
    void add_u(std::uint32_t u_index);
    void revive_all();
    [[nodiscard]] bool empty() const { return head == active.size(); }
    [[nodiscard]] std::uint32_t front() const { return active[head]; }
    /// Moves the front U-index to the stalled list.
    void stall_front();
  };

  // Search state pooled across the messages a worker routes.
  std::vector<Membership> status_;         // per vertex
  std::vector<VertexId> parent_;           // per vertex; valid for U and V members
  std::vector<std::uint64_t> grow_cursor_; // per vertex: next vertex id to consider
  std::vector<VertexId> members_u_;
  std::vector<VertexId> members_v_;
  CrossScan cross_;
};

}  // namespace faultroute
