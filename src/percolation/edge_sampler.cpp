#include "percolation/edge_sampler.hpp"

#include <cmath>
#include <stdexcept>

#include "random/splitmix64.hpp"

namespace faultroute {

HashEdgeSampler::HashEdgeSampler(double p, std::uint64_t seed)
    : p_(p),
      seed_(seed),
      threshold_(0),
      always_open_(p >= 1.0),
      always_closed_(p <= 0.0) {
  if (std::isnan(p) || p < 0.0 || p > 1.0) {
    // analyze:allow-throw-safety(parameter validation at sampler construction)
    throw std::invalid_argument("HashEdgeSampler: p must be in [0, 1]");
  }
  if (!always_open_ && !always_closed_) {
    threshold_ = static_cast<std::uint64_t>(std::ldexp(p, 64));
  }
}

bool HashEdgeSampler::is_open(EdgeKey key) const {
  if (always_open_) return true;
  if (always_closed_) return false;
  return hash_pair(seed_, key) < threshold_;
}

ExplicitEdgeSampler::ExplicitEdgeSampler(bool default_open) : default_open_(default_open) {}

bool ExplicitEdgeSampler::is_open(EdgeKey key) const {
  const auto it = states_.find(key);
  return it != states_.end() ? it->second : default_open_;
}

}  // namespace faultroute
