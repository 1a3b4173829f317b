#include "parse_number.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "l2sim/common/error.hpp"

namespace l2s {

double parse_double(const std::string& what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || std::isnan(v))
    throw_error(what + " is not a number: " + text);
  if (errno == ERANGE) throw_error(what + " is out of range: " + text);
  return v;
}

std::int64_t parse_int(const std::string& what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') throw_error(what + " is not an integer: " + text);
  if (errno == ERANGE) throw_error(what + " is out of range: " + text);
  return v;
}

}  // namespace l2s
