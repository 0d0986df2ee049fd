#include <gtest/gtest.h>

#include <cmath>

#include "workload/geo.h"
#include "workload/patterns.h"

namespace livenet::workload {
namespace {

TEST(Geo, SitesStayWithinCountryRadius) {
  GeoConfig cfg;
  cfg.countries = 4;
  cfg.country_radius = 30.0;
  GeoModel geo(cfg, Rng(5));
  for (int c = 0; c < cfg.countries; ++c) {
    const GeoSite center = geo.center_site(c);
    for (int i = 0; i < 200; ++i) {
      const GeoSite s = geo.sample_site(c);
      EXPECT_EQ(s.country, c);
      const double dx = s.x - center.x, dy = s.y - center.y;
      EXPECT_LE(std::sqrt(dx * dx + dy * dy), cfg.country_radius + 1e-9);
    }
  }
}

TEST(Geo, OneWayDelayIsMetricLike) {
  GeoConfig cfg;
  GeoModel geo(cfg, Rng(5));
  const GeoSite a = geo.sample_site(0);
  const GeoSite b = geo.sample_site(1);
  EXPECT_EQ(geo.one_way_delay(a, b), geo.one_way_delay(b, a));  // symmetric
  EXPECT_GE(geo.one_way_delay(a, b), kMinOneWay);  // floored
  EXPECT_GE(geo.one_way_delay(a, a), kMinOneWay);
}

TEST(Geo, InterCountryFartherThanIntraOnAverage) {
  GeoConfig cfg;
  cfg.countries = 5;
  GeoModel geo(cfg, Rng(7));
  double intra = 0.0, inter = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    intra += static_cast<double>(
        geo.one_way_delay(geo.sample_site(0), geo.sample_site(0)));
    inter += static_cast<double>(
        geo.one_way_delay(geo.sample_site(0), geo.sample_site(2)));
  }
  EXPECT_GT(inter, 1.5 * intra);
}

TEST(Diurnal, BoundedAndPeaksInEvening) {
  DiurnalCurve curve(0.25, 1.0);
  double peak_val = 0.0, peak_hour = 0.0;
  for (double h = 0; h < 24.0; h += 0.25) {
    const double v = curve.at_hour(h);
    EXPECT_GE(v, 0.25 - 1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
    if (v > peak_val) {
      peak_val = v;
      peak_hour = h;
    }
  }
  EXPECT_GE(peak_hour, 18.0);  // evening peak (paper: 8-11 pm)
  EXPECT_LE(peak_hour, 23.0);
  // Trough in the small hours.
  EXPECT_LT(curve.at_hour(4.5), curve.at_hour(21.0) * 0.5);
}

TEST(Diurnal, HourOfMapsCompressedDays) {
  DiurnalCurve curve;
  const Duration day = 60 * kSec;
  EXPECT_NEAR(curve.hour_of(0, day), 0.0, 1e-9);
  EXPECT_NEAR(curve.hour_of(30 * kSec, day), 12.0, 1e-9);
  EXPECT_NEAR(curve.hour_of(day + 15 * kSec, day), 6.0, 1e-9);
}

TEST(Zipf, RankZeroMostPopularAndMonotone) {
  ZipfSampler zipf(50, 1.1);
  Rng rng(3);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[5], counts[25]);
  // Rank 0 of Zipf(1.1, 50) carries roughly a quarter of the mass.
  EXPECT_GT(counts[0], 50000 / 6);
}

TEST(Zipf, SingleItemAlwaysRankZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Demand, FlashWindowMultiplies) {
  DemandModel demand(2.0, DiurnalCurve(1.0, 1.0), 60 * kSec);  // flat curve
  FlashWindow w;
  w.start = 10 * kSec;
  w.end = 20 * kSec;
  w.multiplier = 3.0;
  demand.add_flash(w);
  EXPECT_NEAR(demand.rate_at(5 * kSec), 2.0, 1e-9);
  EXPECT_NEAR(demand.rate_at(15 * kSec), 6.0, 1e-9);
  EXPECT_NEAR(demand.rate_at(25 * kSec), 2.0, 1e-9);
}

TEST(Demand, DiurnalAndFlashCompose) {
  DemandModel demand(10.0, DiurnalCurve(0.2, 1.0), 24 * kSec);  // 1s = 1h
  FlashWindow w;
  w.start = 0;
  w.end = 24 * kSec;
  w.multiplier = 2.0;
  demand.add_flash(w);
  // At every hour the rate is exactly 2x the diurnal base.
  DemandModel base(10.0, DiurnalCurve(0.2, 1.0), 24 * kSec);
  for (Time t = 0; t < 24 * kSec; t += kSec) {
    EXPECT_NEAR(demand.rate_at(t), 2.0 * base.rate_at(t), 1e-9);
  }
}

}  // namespace
}  // namespace livenet::workload
