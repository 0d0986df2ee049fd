#pragma once

#include <vector>

#include "util/rng.h"
#include "util/time.h"

// Geographic model. Substitutes for Alibaba's real PoP footprint (600+
// nodes in 70+ countries): countries are placed on a 2D plane whose
// distances map linearly to one-way propagation delays, so intra-
// national links are fast (a few to tens of ms) and inter-national
// links are slow (up to hundreds of ms) — the property behind the
// paper's Table 2 / Figure 12 intra- vs. inter-national split.
namespace livenet::workload {

struct GeoSite {
  int country = 0;
  double x = 0.0;  ///< plane coordinates; 1 unit == 1 ms one-way delay
  double y = 0.0;
};

struct GeoConfig {
  int countries = 6;
  double country_spread = 45.0;    ///< inter-country scale (ms)
  double country_radius = 9.0;     ///< intra-country scale (ms)
};

/// One-way delay floor (local loop + routing).
inline constexpr Duration kMinOneWay = 2 * kMs;

class GeoModel {
 public:
  GeoModel(const GeoConfig& cfg, Rng rng);

  /// Samples a site inside the given country (or a uniformly random
  /// country if `country` < 0).
  GeoSite sample_site(int country = -1);

  /// One-way propagation delay between two sites.
  Duration one_way_delay(const GeoSite& a, const GeoSite& b) const;

  /// The exact center of a country (core-PoP placement).
  GeoSite center_site(int country) const;

  int countries() const { return cfg_.countries; }
  const GeoConfig& config() const { return cfg_; }

 private:
  GeoConfig cfg_;
  Rng rng_;
  std::vector<std::pair<double, double>> centers_;
};

}  // namespace livenet::workload
