// Shared entry point guard for the example programs.
#pragma once

#include <cstdio>

#include "support/error.hpp"

namespace distconv::examples {

/// Run an example's body and return its exit status. A distconv::Error (a
/// bad DC_* knob, spec or strategy, including one a rank raised and
/// comm::World::run rethrew) prints its message and exits 2 instead of
/// escaping main into std::terminate.
template <typename Body>
int guarded_main(const char* program, Body body) {
  try {
    return body();
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
    return 2;
  }
}

}  // namespace distconv::examples
