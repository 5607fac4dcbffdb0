// Environment-variable experiment knobs.
//
// Benchmarks read their scale parameters (dataset rows, sample sizes, trial
// counts) through these helpers so experiments can be scaled up toward the
// paper's sizes (e.g. UPA_ROWS=200000 ./bench_fig3_coverage) without
// recompiling. Defaults are chosen to finish quickly on a laptop.
#pragma once

#include <cstdint>

namespace upa {

/// Value of environment variable `name`, or `fallback` if unset/unparsable.
int64_t EnvInt(const char* name, int64_t fallback);

}  // namespace upa
