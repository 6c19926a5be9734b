// Autotuned convolution planner — the cuDNN-autotune stand-in (poplibs
// ConvPlan in spirit). Per (layer constants, pass) it enumerates algorithm ×
// lowering-strip × thread-placement candidates, prices them with the
// calibrated compute model (falling back to the roofline surrogate), in
// measure mode micro-benchmarks the top two on first use, and caches the
// winner. The cache optionally persists next to the DC_KERNEL_CALIBRATION
// table (DC_CONV_PLAN_CACHE) through support::write_file_atomic with
// per-line CRCs and strict validate-before-use.
//
// Env knobs:
//   DC_CONV_PLAN=model|measure|off   planning mode (default model)
//   DC_CONV_PLAN_CACHE=<path>        persistent plan cache ("" = in-memory)
//   DC_CONV_WINOGRAD=0|1             let plans propose the winograd family
//                                    (tolerance-mode exactness; default off)
//   DC_CONV_ALGO=<family>            kernel-layer escape hatch (conv.hpp)
//
// Determinism: keys hold layer constants only (never local ranges), pricing
// uses a canonical workload and thread count, and every default-mode family
// is bitwise identical to the corresponding kAuto result — so ranks of a
// distributed run agree on plans and results stay bit-reproducible across
// decompositions and thread budgets. Measure mode shares one process-global
// cache, keeping oracle and distributed runs of a test on identical plans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/conv.hpp"

namespace distconv::perf {

enum class ConvPlanMode {
  kModel,    ///< price candidates, trust the model
  kMeasure,  ///< model-rank, then time the top two on first use
  kOff,      ///< bypass: PR-1 resolve_conv_algo heuristic, no cache
};

/// Current mode, seeded from DC_CONV_PLAN on first use.
ConvPlanMode conv_plan_mode();
/// Programmatic override (tests); also marks the env as consumed.
void set_conv_plan_mode(ConvPlanMode mode);

/// Whether plans may propose ConvAlgo::kWinograd (DC_CONV_WINOGRAD=1 or
/// set programmatically). Off by default: winograd is tolerance-mode only.
bool conv_winograd_enabled();
/// The DC_CONV_WINOGRAD value: unset, empty or "0" is off, "1" is on;
/// anything else raises distconv::Error naming the knob.
bool parse_conv_winograd(const char* s);
void set_conv_winograd_enabled(bool on);

/// Rank-uniform plan key: layer constants and the pass, nothing local.
struct ConvPlanKey {
  kernels::ConvPass pass = kernels::ConvPass::kForward;
  std::int64_t c = 1, f = 1;
  kernels::ConvParams p;

  bool operator==(const ConvPlanKey& o) const;
  /// Stable one-token-per-field text form, the cache-file key.
  std::string str() const;
};

/// One enumerated candidate with its model price (and measured time when
/// measure mode ran it). Exposed for bench/conv_planner introspection.
struct ConvPlanChoice {
  kernels::ConvPlan plan;
  double model_seconds = 0.0;
  double measured_seconds = 0.0;  ///< 0 when never timed
};

/// The planner entry point the conv dispatchers call: look up or compute
/// the plan for this layer/pass. In kOff mode, returns the legacy heuristic
/// family with default knobs and touches no cache.
kernels::ConvPlan conv_plan_for(kernels::ConvPass pass,
                                const kernels::ConvParams& p, std::int64_t c,
                                std::int64_t f);

/// Enumerate and model-price every candidate for `key`, best first. Does
/// not consult or fill the cache.
std::vector<ConvPlanChoice> enumerate_conv_candidates(const ConvPlanKey& key);

// --- cache control (tests, bench, tools) -----------------------------------

/// Drop every in-memory plan (the persistent file is untouched) and forget
/// that it was loaded, so the next conv_plan_for re-reads the file.
void clear_conv_plan_cache();

/// Number of cached plans currently in memory.
std::size_t conv_plan_cache_size();

/// Persistent cache path: DC_CONV_PLAN_CACHE unless overridden; empty means
/// in-memory only.
std::string conv_plan_cache_path();
void set_conv_plan_cache_path(const std::string& path);

/// Load a plan-cache file into memory (replacing current entries). Strict
/// validate-before-use: a bad header, line, CRC, or inapplicable plan
/// discards the *whole* file with a warning and returns false — the planner
/// then replans from scratch (and overwrites the file on the next store).
bool load_conv_plan_cache(const std::string& path);

/// Atomically write the in-memory cache to `path` (header + one
/// CRC-protected line per plan).
void save_conv_plan_cache(const std::string& path);

}  // namespace distconv::perf
