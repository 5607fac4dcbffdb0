#include "common/stats.h"

#include <cmath>
#include <cstddef>

#include "common/status.h"

namespace upa {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double VariancePopulation(std::span<const double> xs) {
  if (xs.size() <= 1) return 0.0;
  double m = Mean(xs);
  double ss = 0.0;
  for (double x : xs) {
    double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(xs.size());
}

double StdDevPopulation(std::span<const double> xs) {
  return std::sqrt(VariancePopulation(xs));
}

double RelativeRmse(std::span<const double> estimates,
                    std::span<const double> truths, double eps) {
  UPA_CHECK_MSG(estimates.size() == truths.size(),
                "RelativeRmse requires equal lengths");
  double ss = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (std::fabs(truths[i]) < eps) continue;
    double r = (estimates[i] - truths[i]) / truths[i];
    ss += r * r;
    ++n;
  }
  if (n == 0) return 0.0;
  return std::sqrt(ss / static_cast<double>(n));
}

double CoverageFraction(std::span<const double> xs, double lo, double hi) {
  if (xs.empty()) return 0.0;
  size_t inside = 0;
  for (double x : xs) {
    if (x >= lo && x <= hi) ++inside;
  }
  return static_cast<double>(inside) / static_cast<double>(xs.size());
}

}  // namespace upa
