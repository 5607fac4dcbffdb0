#include "common/env.h"

#include <cstdlib>

namespace upa {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<int64_t>(parsed);
}

}  // namespace upa
