#include "upa/types.h"

#include <cmath>

namespace upa::core {

double L2Norm(const Vec& v) {
  double ss = 0.0;
  for (double x : v) ss += x * x;
  return std::sqrt(ss);
}

}  // namespace upa::core
