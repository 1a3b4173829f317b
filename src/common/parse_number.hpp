// Strict number parsing shared by CliArgs flags and the environment knobs.
#pragma once

#include <cstdint>
#include <string>

namespace l2s {

/// The whole of `text` as a double. Throws l2s::Error naming `what` when
/// `text` holds anything else, reads as NaN, or overflows or underflows.
[[nodiscard]] double parse_double(const std::string& what, const char* text);

/// The whole of `text` as a base-10 integer. Throws l2s::Error naming
/// `what` unless it parses and fits an int64.
[[nodiscard]] std::int64_t parse_int(const std::string& what, const char* text);

}  // namespace l2s
