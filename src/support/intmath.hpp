// Integer helpers for stencil index arithmetic (divisions rounding toward
// -infinity, as required when padding makes coordinates negative).
#pragma once

#include <cstdint>

namespace distconv {

inline std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return -floor_div(-a, b);
}

/// a mod b in [0, b) for b > 0.
inline std::int64_t floor_mod(std::int64_t a, std::int64_t b) {
  return a - floor_div(a, b) * b;
}

}  // namespace distconv
