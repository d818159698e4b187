#include "graph/hypercube.hpp"

#include <bit>
#include <stdexcept>

namespace faultroute {

Hypercube::Hypercube(int n) : n_(n) {
  if (n < 1 || n > 40) {
    throw std::invalid_argument("Hypercube: dimension must be in [1, 40]");
  }
}

std::string Hypercube::name() const { return "hypercube(n=" + std::to_string(n_) + ")"; }

std::uint64_t Hypercube::distance(VertexId u, VertexId v) const {
  return static_cast<std::uint64_t>(detail::popcount64(u ^ v));
}

void Hypercube::neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const {
  const VertexId diff = x ^ target;
  const auto d = static_cast<std::uint64_t>(detail::popcount64(diff));
  for (int i = 0; i < n_; ++i) out[i] = d + 1 - 2 * ((diff >> i) & 1);
}

// analyze:allow-hot-alloc(closed-form path materialization, reserved to the exact length)
std::vector<VertexId> Hypercube::shortest_path(VertexId u, VertexId v) const {
  std::vector<VertexId> path;
  path.reserve(static_cast<std::size_t>(distance(u, v)) + 1);
  path.push_back(u);
  VertexId x = u;
  std::uint64_t diff = u ^ v;
  while (diff != 0) {
    const int bit = std::countr_zero(diff);
    x ^= (1ULL << bit);
    diff &= diff - 1;
    path.push_back(x);
  }
  return path;
}

}  // namespace faultroute
