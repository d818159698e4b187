#include "graph/hypercube.hpp"

#include <array>
#include <bit>
#include <stdexcept>

namespace faultroute {

namespace {

/// kOnesBelowByte[c] = Σ_{u<c} popcount(u) for c in [0, 256], so a byte's
/// own popcount is kOnesBelowByte[c + 1] − kOnesBelowByte[c]. Without a
/// popcnt instruction in the baseline ISA, std::popcount is a library call,
/// which is also why neighbor_distances makes one per row, not one per slot.
constexpr std::array<std::uint16_t, 257> kOnesBelowByte = [] {
  std::array<std::uint16_t, 257> table{};
  for (unsigned c = 1; c < 257; ++c) {
    table[c] = static_cast<std::uint16_t>(table[c - 1] + std::popcount(c - 1));
  }
  return table;
}();

}  // namespace

Hypercube::Hypercube(int n) : n_(n) {
  if (n < 1 || n > 40) {
    throw std::invalid_argument("Hypercube: dimension must be in [1, 40]");
  }
}

std::string Hypercube::name() const { return "hypercube(n=" + std::to_string(n_) + ")"; }

std::uint64_t Hypercube::distance(VertexId u, VertexId v) const {
  return static_cast<std::uint64_t>(std::popcount(u ^ v));
}

void Hypercube::neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const {
  const VertexId diff = x ^ target;
  const auto d = static_cast<std::uint64_t>(std::popcount(diff));
  for (int i = 0; i < n_; ++i) out[i] = d + 1 - 2 * ((diff >> i) & 1);
}

std::uint32_t Hypercube::edge_id(VertexId v, int i) const {
  const VertexId a = v & ~(1ULL << i);
  // Σ_{u<a} popcount(u), a byte of a at a time from the top. Appending byte
  // c to a prefix x that has `ones` set bits gives
  // S(256·x + c) = 256·S(x) + 1024·x + ones·c + S(c).
  std::uint64_t ones_below = 0;
  std::uint64_t prefix = 0;
  std::uint64_t ones = 0;
  for (int shift = (n_ - 1) & ~7; shift >= 0; shift -= 8) {
    const std::uint64_t c = (a >> shift) & 0xff;
    ones_below = (ones_below << 8) + (prefix << 10) + ones * c + kOnesBelowByte[c];
    prefix = (prefix << 8) | c;
    ones += kOnesBelowByte[c + 1] - kOnesBelowByte[c];
  }
  const auto rank = static_cast<std::uint64_t>(i - std::popcount(a & ((1ULL << i) - 1)));
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(n_) * a - ones_below + rank);
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
