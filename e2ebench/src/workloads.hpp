// The benchmark's workloads. Each runs in its own process, sets the
// end-to-end metrics on `result` (and, when `tracer.on()`, the per-layer
// metrics), and checks its outputs against a single-rank oracle outside the
// timed region.
#pragma once

#include "harness.hpp"

namespace e2e {

void run_mesh_spatial(const RunConfig& cfg, Result& result, Tracer& tracer);
void run_serve_openloop(const RunConfig& cfg, Result& result, Tracer& tracer);

/// Record the rank count, pool budget and load-generator threads in
/// `result.provenance`; warn when ranks × budget exceeds this machine's cores.
void record_threads(Result& result, int ranks, int budget, int generators);

}  // namespace e2e
