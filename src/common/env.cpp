#include "l2sim/common/env.hpp"

#include <climits>
#include <cstdlib>
#include <string>
#include <thread>

#include "l2sim/common/error.hpp"
#include "parse_number.hpp"

namespace l2s {

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_double(name, raw);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_int(name, raw);
}

unsigned thread_budget() {
  const std::int64_t v = env_int("L2SIM_THREADS", 0);
  if (v < 0 || v > std::int64_t{UINT_MAX})
    throw_error("L2SIM_THREADS must be in [0, " + std::to_string(UINT_MAX) +
                "] (0 = auto)");
  if (v > 0) return static_cast<unsigned>(v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double bench_scale() {
  const double s = env_double("L2SIM_SCALE", 0.1);
  if (s <= 0.0 || s > 1.0) throw_error("L2SIM_SCALE must be in (0, 1]");
  return s;
}

}  // namespace l2s
