#include "util/rng.h"

#include <cmath>

namespace livenet {

double Rng::exponential(double mean) {
  // Inverse-CDF sampling; guard against log(0).
  double u = uniform();
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return -mean * std::log(u);
}

double Rng::normal(double mu, double sigma) {
  // Box-Muller. We deliberately do not cache the second value so that
  // the draw count per call is fixed (simplifies reproducibility
  // reasoning when components interleave draws).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = std::numeric_limits<double>::min();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  return mu + sigma * r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

}  // namespace livenet
