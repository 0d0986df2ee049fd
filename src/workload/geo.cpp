#include "workload/geo.h"

#include <cmath>

namespace livenet::workload {

GeoModel::GeoModel(const GeoConfig& cfg, Rng rng) : cfg_(cfg), rng_(rng) {
  // Place country centers on a circle plus jitter: guarantees pairwise
  // separation without a rejection loop.
  centers_.reserve(static_cast<std::size_t>(cfg_.countries));
  for (int c = 0; c < cfg_.countries; ++c) {
    const double angle =
        2.0 * 3.14159265358979323846 * static_cast<double>(c) /
        static_cast<double>(cfg_.countries);
    const double r =
        cfg_.country_spread * (1.0 + 0.2 * rng_.uniform(-1.0, 1.0));
    centers_.emplace_back(r * std::cos(angle), r * std::sin(angle));
  }
}

GeoSite GeoModel::sample_site(int country) {
  GeoSite s;
  s.country = country >= 0 && country < cfg_.countries
                  ? country
                  : static_cast<int>(rng_.index(
                        static_cast<std::size_t>(cfg_.countries)));
  const auto& [cx, cy] = centers_[static_cast<std::size_t>(s.country)];
  // Uniform in a disc of the country radius.
  const double ang = rng_.uniform(0.0, 2.0 * 3.14159265358979323846);
  const double rad = cfg_.country_radius * std::sqrt(rng_.uniform());
  s.x = cx + rad * std::cos(ang);
  s.y = cy + rad * std::sin(ang);
  return s;
}

GeoSite GeoModel::center_site(int country) const {
  GeoSite s;
  s.country = country >= 0 && country < cfg_.countries ? country : 0;
  const auto& [cx, cy] = centers_[static_cast<std::size_t>(s.country)];
  s.x = cx;
  s.y = cy;
  return s;
}

Duration GeoModel::one_way_delay(const GeoSite& a, const GeoSite& b) const {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double ms = std::sqrt(dx * dx + dy * dy);
  const auto d = static_cast<Duration>(ms * static_cast<double>(kMs));
  return std::max(kMinOneWay, d);
}

}  // namespace livenet::workload
