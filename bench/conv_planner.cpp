// Convolution-planner benchmark: the BENCH_train.json producer.
//
// For every planner shape (the calibration geometries plus the 3×3
// res3b_branch2b) and every pass, this harness runs the layer once under the
// PR-1 kAuto heuristic and once under the planner's chosen plan, reports
// GFLOP/s for both, the speedup, and whether the planned result is bitwise
// identical to the heuristic's — the planner's core exactness promise
// (winograd excluded: it is tolerance-mode and off here). A separate
// informational section times the winograd fast path on the 3×3 shape
// against direct and checks it within tolerance.
//
//   $ ./conv_planner [--smoke] [--json BENCH_train.json]
//
// --json dumps the distconv-bench-train-v1 schema; tools/check_bench
// compares such a dump against the committed baseline in bench-smoke CI and
// additionally gates (a) every exact_vs_auto bit and (b) a minimum
// best-row speedup — the planner must beat the heuristic somewhere. Since
// kIm2col lowers implicitly, gemm-strips no longer has an im2col pack to
// drop on res3b, and planned and kAuto rows mostly run the same kernel.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/args.hpp"
#include "bench/kernel_shapes.hpp"
#include "kernels/conv.hpp"
#include "perf/conv_planner.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace distconv;
using bench::LayerArgs;
using kernels::ConvParams;
using kernels::ConvPass;
using kernels::ConvPlan;
using kernels::Origin2;
using kernels::Range2;

constexpr ConvPass kPasses[] = {ConvPass::kForward, ConvPass::kBackwardData,
                                ConvPass::kBackwardFilter};

const char* pass_label(ConvPass pass) {
  switch (pass) {
    case ConvPass::kForward: return "fwd";
    case ConvPass::kBackwardData: return "bwd-data";
    case ConvPass::kBackwardFilter: return "bwd-filter";
  }
  return "?";
}

/// One measured (shape, pass) row of the dump.
struct Row {
  const LayerArgs* shape = nullptr;
  ConvPass pass = ConvPass::kForward;
  ConvPlan auto_plan, plan;
  double auto_gflops = 0, plan_gflops = 0;
  double speedup = 0;
  bool exact = false;  ///< planned output bitwise == heuristic output
};

struct Workload {
  Tensor<float> x, w, y;
  Origin2 xo{0, 0}, yo{0, 0};
  Range2 out_full, in_full;
  ConvParams p;
};

Workload make_workload(const LayerArgs& a) {
  Workload wl;
  wl.p = bench::params_of(a);
  wl.x = Tensor<float>(Shape4{a.n, a.c, a.h + 2 * wl.p.ph, a.w + 2 * wl.p.pw});
  wl.w = Tensor<float>(Shape4{a.f, a.c, a.k, a.k});
  wl.y = Tensor<float>(Shape4{a.n, a.f, wl.p.out_h(a.h), wl.p.out_w(a.w)});
  Rng rng(5);
  wl.x.fill_uniform(rng);
  wl.w.fill_uniform(rng);
  wl.y.fill_uniform(rng);
  wl.xo = Origin2{-wl.p.ph, -wl.p.pw};
  wl.out_full = Range2{0, wl.y.shape().h, 0, wl.y.shape().w};
  wl.in_full = Range2{0, a.h, 0, a.w};
  return wl;
}

/// Run one pass of `wl` under `plan`, leaving the result in the pass's
/// output tensor (y, x or w respectively).
void run_pass(Workload& wl, ConvPass pass, const ConvPlan& plan) {
  switch (pass) {
    case ConvPass::kForward:
      kernels::conv2d_forward(wl.x, wl.xo, wl.w, wl.y, wl.yo, wl.p,
                              wl.out_full, plan);
      break;
    case ConvPass::kBackwardData:
      kernels::conv2d_backward_data(wl.y, wl.yo, wl.w, wl.x, wl.xo, wl.p,
                                    wl.in_full, wl.y.shape().h,
                                    wl.y.shape().w, plan);
      break;
    case ConvPass::kBackwardFilter:
      kernels::conv2d_backward_filter(wl.x, wl.xo, wl.y, wl.yo, wl.w, wl.p,
                                      wl.out_full, /*accumulate=*/false, plan);
      break;
  }
}

const Tensor<float>& pass_output(const Workload& wl, ConvPass pass) {
  switch (pass) {
    case ConvPass::kForward: return wl.y;
    case ConvPass::kBackwardData: return wl.x;
    case ConvPass::kBackwardFilter: return wl.w;
  }
  return wl.y;
}

Row bench_one(const LayerArgs& a, ConvPass pass, int warmup, int reps) {
  Row row;
  row.shape = &a;
  row.pass = pass;
  const double flops = bench::conv_flops(a);

  row.auto_plan.algo =
      kernels::resolve_conv_algo(kernels::ConvAlgo::kAuto, bench::params_of(a),
                                 a.c, a.f);
  row.plan = perf::conv_plan_for(pass, bench::params_of(a), a.c, a.f);

  // Fresh deterministic workloads per leg: backward passes overwrite their
  // inputs, so each timing leg starts from the same bytes.
  Workload wa = make_workload(a);
  const double t_auto = bench::time_average(
      [&] { run_pass(wa, pass, row.auto_plan); }, warmup, reps);
  Workload wp = make_workload(a);
  const double t_plan = bench::time_average(
      [&] { run_pass(wp, pass, row.plan); }, warmup, reps);

  const Tensor<float>& oa = pass_output(wa, pass);
  const Tensor<float>& op = pass_output(wp, pass);
  row.exact = std::memcmp(oa.data(), op.data(),
                          static_cast<std::size_t>(oa.size()) *
                              sizeof(float)) == 0;
  row.auto_gflops = flops / t_auto * 1e-9;
  row.plan_gflops = flops / t_plan * 1e-9;
  row.speedup = t_auto / t_plan;
  return row;
}

struct WinogradRow {
  double direct_gflops = 0, winograd_gflops = 0;
  double max_abs_diff = 0;
  bool within_tol = false;
};

/// Informational: winograd F(2×2,3×3) forward on the 3×3 shape vs the exact
/// heuristic family, with a tolerance check (it is not bitwise by design).
WinogradRow bench_winograd(const LayerArgs& a, int warmup, int reps) {
  WinogradRow row;
  const double flops = bench::conv_flops(a);
  Workload wd = make_workload(a);
  ConvPlan exact_plan;
  exact_plan.algo = kernels::resolve_conv_algo(
      kernels::ConvAlgo::kAuto, bench::params_of(a), a.c, a.f);
  const double t_direct = bench::time_average(
      [&] { run_pass(wd, ConvPass::kForward, exact_plan); }, warmup, reps);
  Workload ww = make_workload(a);
  ConvPlan wino;
  wino.algo = kernels::ConvAlgo::kWinograd;
  const double t_wino = bench::time_average(
      [&] { run_pass(ww, ConvPass::kForward, wino); }, warmup, reps);
  for (std::int64_t i = 0; i < wd.y.size(); ++i) {
    row.max_abs_diff = std::max(
        row.max_abs_diff,
        static_cast<double>(std::fabs(wd.y.data()[i] - ww.y.data()[i])));
  }
  row.direct_gflops = flops / t_direct * 1e-9;
  row.winograd_gflops = flops / t_wino * 1e-9;
  // fp32 with C·9 ≈ 1k-term contractions: last-ulp regrouping error scales
  // with the magnitude of the accumulated sums.
  row.within_tol = row.max_abs_diff < 2e-3;
  return row;
}

std::string plan_desc(const ConvPlan& plan) {
  std::string s = kernels::conv_algo_name(plan.algo);
  if (plan.strip_elems > 0) {
    s += " strips=";
    s += std::to_string(plan.strip_elems);
  }
  if (plan.thread_cap > 0) {
    s += " cap=";
    s += std::to_string(plan.thread_cap);
  }
  if (plan.numa_node >= 0) {
    s += " node=";
    s += std::to_string(plan.numa_node);
  }
  return s;
}

void write_json(const char* path, bool smoke, const std::vector<Row>& rows,
                const WinogradRow& wino, const LayerArgs& wino_shape) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  const char* threads = std::getenv("DC_NUM_THREADS");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"distconv-bench-train-v1\",\n");
  std::fprintf(f, "  \"provenance\": {\n");
  std::fprintf(f, "    \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "    \"plan_mode\": \"%s\",\n",
               perf::conv_plan_mode() == perf::ConvPlanMode::kMeasure
                   ? "measure"
                   : "model");
  std::fprintf(f, "    \"dc_num_threads\": \"%s\",\n",
               threads ? threads : "default");
  std::fprintf(f, "    \"calibration\": \"%s\"\n",
               std::getenv("DC_KERNEL_CALIBRATION") ? "table" : "lassen-builtin");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"layers\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"shape\": \"%s\",\n", r.shape->name);
    std::fprintf(f, "      \"pass\": \"%s\",\n", pass_label(r.pass));
    std::fprintf(f, "      \"auto_algo\": \"%s\",\n",
                 kernels::conv_algo_name(r.auto_plan.algo));
    std::fprintf(f, "      \"plan_algo\": \"%s\",\n",
                 kernels::conv_algo_name(r.plan.algo));
    std::fprintf(f, "      \"plan_strips\": %lld,\n",
                 static_cast<long long>(r.plan.strip_elems));
    std::fprintf(f, "      \"auto_gflops\": %.3f,\n", r.auto_gflops);
    std::fprintf(f, "      \"plan_gflops\": %.3f,\n", r.plan_gflops);
    std::fprintf(f, "      \"speedup\": %.4f,\n", r.speedup);
    std::fprintf(f, "      \"exact_vs_auto\": %s\n", r.exact ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"winograd\": {\n");
  std::fprintf(f, "    \"shape\": \"%s\",\n", wino_shape.name);
  std::fprintf(f, "    \"direct_gflops\": %.3f,\n", wino.direct_gflops);
  std::fprintf(f, "    \"winograd_gflops\": %.3f,\n", wino.winograd_gflops);
  std::fprintf(f, "    \"max_abs_diff\": %.6e,\n", wino.max_abs_diff);
  std::fprintf(f, "    \"within_tol\": %s\n", wino.within_tol ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = distconv::bench::parse_harness_args(argc, argv);
  // Smoke keeps enough reps for the CI gate's tolerances to hold on shared
  // runners: single-rep timings of identical configs scatter ±30%.
  const int warmup = args.smoke ? 2 : 3;
  const int reps = args.smoke ? 5 : 10;

  std::printf("conv planner: mode=%s cache=%s\n\n",
              perf::conv_plan_mode() == perf::ConvPlanMode::kMeasure
                  ? "measure"
                  : (perf::conv_plan_mode() == perf::ConvPlanMode::kOff
                         ? "off"
                         : "model"),
              perf::conv_plan_cache_path().empty()
                  ? "(in-memory)"
                  : perf::conv_plan_cache_path().c_str());

  std::vector<Row> rows;
  std::printf("%-14s %-10s %-12s %-26s %10s %10s %8s %6s\n", "shape", "pass",
              "auto", "plan", "auto GF/s", "plan GF/s", "speedup", "exact");
  bool all_exact = true;
  for (const LayerArgs& a : bench::kPlannerShapes) {
    for (ConvPass pass : kPasses) {
      Row row = bench_one(a, pass, warmup, reps);
      std::printf("%-14s %-10s %-12s %-26s %10.2f %10.2f %8.3f %6s\n",
                  a.name, pass_label(pass),
                  kernels::conv_algo_name(row.auto_plan.algo),
                  plan_desc(row.plan).c_str(), row.auto_gflops,
                  row.plan_gflops, row.speedup, row.exact ? "yes" : "NO");
      all_exact = all_exact && row.exact;
      rows.push_back(row);
    }
  }

  const WinogradRow wino = bench_winograd(bench::kRes3x3, warmup, reps);
  std::printf("\nwinograd (informational, %s fwd): direct %.2f GF/s, "
              "winograd %.2f GF/s, max|diff| %.2e (%s)\n",
              bench::kRes3x3.name, wino.direct_gflops, wino.winograd_gflops,
              wino.max_abs_diff,
              wino.within_tol ? "within tol" : "OUT OF TOL");

  double best = 0;
  for (const Row& r : rows) best = std::max(best, r.speedup);
  std::printf("best planner speedup over kAuto: %.3fx\n", best);

  if (args.json != nullptr) {
    write_json(args.json, args.smoke, rows, wino, bench::kRes3x3);
  }

  if (!all_exact) {
    std::fprintf(stderr, "FAIL: a planned result diverged bitwise from the "
                         "kAuto heuristic\n");
    return 1;
  }
  if (!wino.within_tol) {
    std::fprintf(stderr, "FAIL: winograd outside tolerance\n");
    return 1;
  }
  return 0;
}
