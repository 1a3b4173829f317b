// Environment-variable knobs shared by the bench harnesses.
#pragma once

#include <cstdint>

namespace l2s {

/// Scale factor applied to synthetic trace request counts in benches.
/// Default 0.1 (each reproduced figure uses 10% of the paper's request
/// volume, which preserves the steady-state behaviour because caches are
/// warmed beforehand); L2SIM_SCALE=1 runs paper-scale traces.
[[nodiscard]] double bench_scale();

/// Parse a double environment variable with a default (unset or empty).
/// Throws l2s::Error unless the whole value parses, is not NaN, and does
/// not overflow or underflow.
[[nodiscard]] double env_double(const char* name, double fallback);

/// Parse a base-10 integer environment variable with a default (unset or
/// empty). Throws l2s::Error unless the whole value parses and fits an
/// int64.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// How many worker threads run_parallel starts when its caller does not
/// say: L2SIM_THREADS when set (0 = auto; must fit an unsigned), otherwise
/// hardware concurrency. Always >= 1.
[[nodiscard]] unsigned thread_budget();

}  // namespace l2s
