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

Mesh::Coords Mesh::coords_of(VertexId v) const {
  Coords c{};
  for (int a = 0; a < dim_; ++a) {
    c[static_cast<std::size_t>(a)] = static_cast<std::int64_t>(v % static_cast<std::uint64_t>(side_));
    v /= static_cast<std::uint64_t>(side_);
  }
  return c;
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

int Mesh::degree(VertexId v) const {
  if (wrap_) return 2 * dim_;
  const Coords c = coords_of(v);
  int deg = 0;
  for (int a = 0; a < dim_; ++a) {
    if (c[static_cast<std::size_t>(a)] > 0) ++deg;
    if (c[static_cast<std::size_t>(a)] < side_ - 1) ++deg;
  }
  return deg;
}

void Mesh::locate_move(VertexId v, int i, int& axis, int& direction) const {
  if (wrap_) {
    axis = i / 2;
    direction = i % 2;
    return;
  }
  locate_mesh_move(coords_of(v), i, axis, direction);
}

void Mesh::locate_mesh_move(const Coords& c, int i, int& axis, int& direction) const {
  int count = 0;
  for (int a = 0; a < dim_; ++a) {
    if (c[static_cast<std::size_t>(a)] > 0) {
      if (count == i) {
        axis = a;
        direction = 0;
        return;
      }
      ++count;
    }
    if (c[static_cast<std::size_t>(a)] < side_ - 1) {
      if (count == i) {
        axis = a;
        direction = 1;
        return;
      }
      ++count;
    }
  }
  throw std::out_of_range("Mesh::neighbor: incident-edge index out of range");
}

VertexId Mesh::neighbor(VertexId v, int i) const {
  int axis = 0;
  int direction = 0;
  locate_move(v, i, axis, direction);
  const auto stride = stride_[static_cast<std::size_t>(axis)];
  const std::int64_t coord = static_cast<std::int64_t>(
      (v / stride) % static_cast<std::uint64_t>(side_));
  if (direction == 1) {
    if (coord == side_ - 1) return v - static_cast<std::uint64_t>(side_ - 1) * stride;  // wrap
    return v + stride;
  }
  if (coord == 0) return v + static_cast<std::uint64_t>(side_ - 1) * stride;  // wrap
  return v - stride;
}

EdgeKey Mesh::edge_key(VertexId v, int i) const {
  // Canonical owner of the edge along `axis` is the endpoint from which the
  // edge increases the coordinate by +1 (mod side on the torus). That
  // endpoint is unique for side >= 3, and for side == 2 only the non-wrap
  // mesh is allowed, where it is the coord-0 endpoint.
  int axis = 0;
  int direction = 0;
  locate_move(v, i, axis, direction);
  const VertexId owner = (direction == 1) ? v : neighbor(v, i);
  return static_cast<EdgeKey>(axis) * num_vertices_ + owner;
}

std::uint32_t Mesh::edge_id(VertexId v, int i) const {
  // coords_of in 32 bits, where division is cheaper: a channel index (which
  // bounds where edge_id is defined) has fewer than 2^32 channels, so v and
  // side fit.
  Coords c{};
  auto rest = static_cast<std::uint32_t>(v);
  const auto side = static_cast<std::uint32_t>(side_);
  for (int k = 0; k < dim_; ++k) {
    c[static_cast<std::size_t>(k)] = rest % side;
    rest /= side;
  }
  int axis = i / 2;
  int direction = i % 2;
  if (!wrap_) locate_mesh_move(c, i, axis, direction);
  // Step to the lower endpoint a. The edge leaves a increasing the axis
  // coordinate, except a torus wrap edge, which leaves a (at coordinate 0)
  // decreasing.
  const auto ax = static_cast<std::size_t>(axis);
  const std::int64_t last = side_ - 1;
  VertexId a = v;
  bool wrap_edge = false;
  if (direction == 1 && c[ax] == last) {
    a = v - static_cast<std::uint64_t>(last) * stride_[ax];
    c[ax] = 0;
    wrap_edge = true;
  } else if (direction == 0 && c[ax] > 0) {
    a = v - stride_[ax];
    --c[ax];
  } else if (direction == 0) {
    wrap_edge = true;
  }
  // A vertex with coordinate x lists, along one axis, up(x) edges to larger
  // vertices: the increasing one below the last coordinate and, on the
  // torus, the decreasing wrap at 0. The ids taken before a's first slot
  // are Σ_{u<a} Σ_k up(u_k). Per axis k write a = hi·side^(k+1) + x·side^k
  // + low, low < side^k: among u < a each coordinate value occurs side^k
  // times per unit of hi, side^k times for each value below x, and low
  // times for x itself. Weighted by up(), that is a + [x>0]·side^k +
  // ([x=0] − [x=last])·low on the torus and a − hi·side^k − [x=last]·low on
  // the mesh, where Σ_k hi·side^k = Σ_k k·x_k·side^(k−1). Each sum is below
  // num_edges(), so the unsigned wrap of its terms cancels.
  const auto up = [&](std::int64_t x) {
    return static_cast<std::uint64_t>(x < last) + static_cast<std::uint64_t>(wrap_ && x == 0);
  };
  std::uint64_t before = 0;
  std::uint64_t rank = 0;
  std::uint64_t low = 0;
  for (int k = 0; k < dim_; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const std::int64_t x = c[kk];
    const auto d = static_cast<std::uint64_t>(x);
    if (wrap_) {
      before += a + (x > 0 ? stride_[kk] : 0) + (x == 0 ? low : 0) - (x == last ? low : 0);
    } else {
      before += a - (k > 0 ? static_cast<std::uint64_t>(k) * d * stride_[kk - 1] : 0) -
                (x == last ? low : 0);
    }
    if (k < axis) rank += up(x);
    low += d * stride_[kk];
  }
  // On the torus, a's decreasing wrap slot precedes its increasing one.
  if (wrap_ && !wrap_edge && c[ax] == 0) ++rank;
  return static_cast<std::uint32_t>(before + rank);
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
