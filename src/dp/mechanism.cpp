#include "dp/mechanism.h"

#include "common/status.h"

namespace upa::dp {

double LaplaceMechanism(double value, double sensitivity, double epsilon,
                        Rng& rng) {
  UPA_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
  UPA_CHECK_MSG(sensitivity >= 0.0, "sensitivity must be non-negative");
  return value + rng.Laplace(sensitivity / epsilon);
}

std::vector<double> LaplaceMechanism(const std::vector<double>& values,
                                     double sensitivity, double epsilon,
                                     Rng& rng) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) {
    out.push_back(LaplaceMechanism(v, sensitivity, epsilon, rng));
  }
  return out;
}

}  // namespace upa::dp
