#include "upa/group.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace upa::core {
namespace {

std::vector<double> SortedInfluences(std::span<const double> outputs,
                                     double f_x) {
  std::vector<double> influences;
  influences.reserve(outputs.size());
  for (double o : outputs) influences.push_back(std::fabs(o - f_x));
  std::sort(influences.begin(), influences.end(), std::greater<>());
  return influences;
}

GroupSensitivityEstimate FromSorted(const std::vector<double>& sorted,
                                    double f_x, size_t k) {
  GroupSensitivityEstimate est;
  est.group_size = k;
  size_t take = std::min(k, sorted.size());
  est.top_influences.assign(sorted.begin(), sorted.begin() + take);
  for (double infl : est.top_influences) est.sensitivity += infl;
  est.out_range = Interval{f_x - est.sensitivity, f_x + est.sensitivity};
  return est;
}

}  // namespace

std::vector<GroupSensitivityEstimate> GroupSensitivitySweep(
    std::span<const double> neighbour_outputs, double f_x, size_t max_k) {
  UPA_CHECK_MSG(max_k >= 1, "max_k must be at least 1");
  std::vector<double> sorted = SortedInfluences(neighbour_outputs, f_x);
  std::vector<GroupSensitivityEstimate> out;
  out.reserve(max_k);
  for (size_t k = 1; k <= max_k; ++k) {
    out.push_back(FromSorted(sorted, f_x, k));
  }
  return out;
}

}  // namespace upa::core
