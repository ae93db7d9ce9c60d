#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "sbmp/support/strings.h"

namespace sbmp {

/// Seed count for every seed-scaled suite (label `fuzz`): 25 by default,
/// or the SBMP_FUZZ_SEEDS environment variable clamped to [1, 100000]
/// (`SBMP_FUZZ_SEEDS=500 ctest -L fuzz` runs a deep sweep). A value that
/// is set but is not a whole decimal integer (`abc`, `50x`) aborts the
/// test binary with a message instead of silently running some other
/// depth.
inline int fuzz_seed_count() {
  const char* env = std::getenv("SBMP_FUZZ_SEEDS");
  if (env == nullptr) return 25;
  std::int64_t n = 0;
  if (!parse_i64(env, &n)) {
    std::fprintf(stderr,
                 "SBMP_FUZZ_SEEDS wants a whole decimal integer, got '%s'\n",
                 env);
    std::abort();
  }
  return static_cast<int>(std::clamp<std::int64_t>(n, 1, 100000));
}

}  // namespace sbmp
