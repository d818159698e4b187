#include "graph/mesh.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

// analyze:allow-file-throw-safety(neighbor and edge_key slot guards: out-of-range arguments are programming errors, surfaced through parallel first_error)
namespace faultroute {

Mesh::Mesh(int dim, std::int64_t side, bool wrap)
    : dim_(dim), side_(side), wrap_(wrap), num_vertices_(1), stride_{} {
  if (dim < 1 || dim > kMaxDimension) {
    throw std::invalid_argument("Mesh: dimension must be in [1, 8]");
  }
  if (side < 2) throw std::invalid_argument("Mesh: side must be >= 2");
  if (wrap && side < 3) {
    throw std::invalid_argument("Mesh: torus requires side >= 3 (else parallel edges)");
  }
  for (int a = 0; a < dim_; ++a) {
    stride_[static_cast<std::size_t>(a)] = num_vertices_;
    const auto s = static_cast<std::uint64_t>(side);
    if (num_vertices_ > (1ULL << 62) / s) {
      throw std::invalid_argument("Mesh: too many vertices (side^dim > 2^62)");
    }
    num_vertices_ *= s;
  }
}

std::uint64_t Mesh::num_edges() const {
  // Per axis: side^(d-1) * (side - 1) internal edges, plus side^(d-1) wrap
  // edges on the torus.
  const std::uint64_t per_axis_lines = num_vertices_ / static_cast<std::uint64_t>(side_);
  const std::uint64_t per_line =
      static_cast<std::uint64_t>(side_ - 1) + (wrap_ ? 1ULL : 0ULL);
  return static_cast<std::uint64_t>(dim_) * per_axis_lines * per_line;
}

VertexId Mesh::vertex_at(const Coords& coords) const {
  VertexId v = 0;
  for (int a = dim_ - 1; a >= 0; --a) {
    const std::int64_t c = coords[static_cast<std::size_t>(a)];
    assert(c >= 0 && c < side_);
    v = v * static_cast<std::uint64_t>(side_) + static_cast<std::uint64_t>(c);
  }
  return v;
}

void Mesh::throw_bad_slot() {
  throw std::out_of_range("Mesh::neighbor: incident-edge index out of range");
}

EdgeEndpoints Mesh::endpoints(EdgeKey key) const {
  const int axis = static_cast<int>(key / num_vertices_);
  const VertexId owner = key % num_vertices_;
  const auto stride = stride_[static_cast<std::size_t>(axis)];
  const std::int64_t coord = static_cast<std::int64_t>(
      (owner / stride) % static_cast<std::uint64_t>(side_));
  // The owner is the endpoint from which the edge increases the coordinate.
  const VertexId other = (coord == side_ - 1)
                             ? owner - static_cast<std::uint64_t>(side_ - 1) * stride
                             : owner + stride;
  return {owner, other};
}

std::string Mesh::name() const {
  std::ostringstream out;
  out << (wrap_ ? "torus" : "mesh") << "(d=" << dim_ << ",side=" << side_ << ")";
  return out.str();
}

std::uint64_t Mesh::distance(VertexId u, VertexId v) const {
  const Coords cu = coords_of(u);
  const Coords cv = coords_of(v);
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < static_cast<std::size_t>(dim_); ++a) {
    total += axis_distance(cu[a], cv[a]);
  }
  return total;
}

void Mesh::neighbor_distances(VertexId x, VertexId target, std::uint64_t* out) const {
  const Coords cx = coords_of(x);
  const Coords ct = coords_of(target);
  const auto dim = static_cast<std::size_t>(dim_);
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < dim; ++a) total += axis_distance(cx[a], ct[a]);
  // Slots in locate_move's order: per axis, the decreasing move, then the
  // increasing one (on the mesh, each only where it stays inside).
  int slot = 0;
  for (std::size_t a = 0; a < dim; ++a) {
    const std::int64_t c = cx[a];
    const std::uint64_t rest = total - axis_distance(c, ct[a]);
    if (wrap_) {
      out[slot++] = rest + axis_distance(c == 0 ? side_ - 1 : c - 1, ct[a]);
      out[slot++] = rest + axis_distance(c == side_ - 1 ? 0 : c + 1, ct[a]);
    } else {
      if (c > 0) out[slot++] = rest + axis_distance(c - 1, ct[a]);
      if (c < side_ - 1) out[slot++] = rest + axis_distance(c + 1, ct[a]);
    }
  }
}

// analyze:allow-hot-alloc(closed-form path materialization, reserved to the exact length)
std::vector<VertexId> Mesh::shortest_path(VertexId u, VertexId v) const {
  std::vector<VertexId> path;
  path.reserve(static_cast<std::size_t>(distance(u, v)) + 1);
  path.push_back(u);
  Coords c = coords_of(u);
  const Coords target = coords_of(v);
  for (int a = 0; a < dim_; ++a) {
    auto& cur = c[static_cast<std::size_t>(a)];
    const std::int64_t goal = target[static_cast<std::size_t>(a)];
    while (cur != goal) {
      std::int64_t step;
      if (!wrap_) {
        step = (goal > cur) ? 1 : -1;
      } else {
        const std::int64_t forward = (goal - cur + side_) % side_;
        step = (forward <= side_ - forward) ? 1 : -1;
      }
      cur = (cur + step + side_) % side_;
      path.push_back(vertex_at(c));
    }
  }
  return path;
}

std::string Mesh::vertex_label(VertexId v) const {
  const Coords c = coords_of(v);
  std::ostringstream out;
  out << '(';
  for (int a = 0; a < dim_; ++a) {
    if (a > 0) out << ',';
    out << c[static_cast<std::size_t>(a)];
  }
  out << ')';
  return out.str();
}

}  // namespace faultroute
