#include "upa/types.h"

#include <cmath>

namespace upa::core {

size_t VecRows::CountValues(size_t rows) const {
  size_t values_held = rows;
  for (uint8_t flag : identity) values_held -= flag;
  return values_held;
}

void VecRows::Append(const Vec& v, size_t dim) {
  if (v.empty()) {
    if (identity.empty()) identity.resize(values.size() / dim, 0);
    identity.push_back(1);
    values.insert(values.end(), dim, -0.0);
    return;
  }
  UPA_CHECK_MSG(v.size() == dim, "VecSum requires equal dimensions");
  if (!identity.empty()) identity.push_back(0);
  values.insert(values.end(), v.begin(), v.end());
}

double L2Norm(const Vec& v) {
  double ss = 0.0;
  for (double x : v) ss += x * x;
  return std::sqrt(ss);
}

}  // namespace upa::core
