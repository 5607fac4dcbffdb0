// Descriptive statistics used throughout the evaluation harness: means,
// variance, relative RMSE (the paper's accuracy metric, §VI-B) and interval
// coverage.
#pragma once

#include <span>

namespace upa {

double Mean(std::span<const double> xs);

/// Population variance (divides by N). Returns 0 for N <= 1.
double VariancePopulation(std::span<const double> xs);

double StdDevPopulation(std::span<const double> xs);

/// RMSE of (a_i - b_i) / b_i, i.e. the relative error the paper reports
/// ("UPA incurred on average 3.81% RMSE"). Entries where |b_i| < eps are
/// skipped; returns 0 if nothing remains.
double RelativeRmse(std::span<const double> estimates,
                    std::span<const double> truths, double eps = 1e-12);

/// Fraction of xs lying inside [lo, hi] (inclusive). The paper's Figure 3
/// coverage metric.
double CoverageFraction(std::span<const double> xs, double lo, double hi);

}  // namespace upa
