#include "perf/conv_planner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/metrics.hpp"
#include "perf/compute_model.hpp"
#include "perf/machine.hpp"
#include "support/atomic_file.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/intmath.hpp"
#include "support/logging.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace distconv::perf {
namespace {

using kernels::ConvAlgo;
using kernels::ConvParams;
using kernels::ConvPass;
using kernels::ConvPlan;

constexpr char kCacheSchema[] = "distconv-conv-plan-cache-v1";

/// Canonical pricing workload: plan keys hold layer constants only (they
/// must be rank-uniform), so candidates are priced — and in measure mode
/// timed — on a fixed 32×32 single-sample output. This keeps the choice
/// independent of local ranges and of the runtime thread budget, which is
/// what makes plans agree across ranks, strategies and DC_NUM_THREADS.
constexpr std::int64_t kCanonicalOut = 32;
constexpr int kCanonicalThreads = 8;

const char* pass_name(ConvPass pass) {
  switch (pass) {
    case ConvPass::kForward: return "fwd";
    case ConvPass::kBackwardData: return "bwd-data";
    case ConvPass::kBackwardFilter: return "bwd-filter";
  }
  return "?";
}

bool parse_pass(const char* s, ConvPass* out) {
  for (ConvPass pass : {ConvPass::kForward, ConvPass::kBackwardData,
                        ConvPass::kBackwardFilter}) {
    if (std::strcmp(s, pass_name(pass)) == 0) {
      *out = pass;
      return true;
    }
  }
  return false;
}

// --- mode / knobs -----------------------------------------------------------

std::mutex g_mu;
bool g_mode_seeded = false;
ConvPlanMode g_mode = ConvPlanMode::kModel;
bool g_winograd_seeded = false;
bool g_winograd = false;
bool g_path_seeded = false;
std::string g_cache_path;

ConvPlanMode mode_locked() {
  if (!g_mode_seeded) {
    g_mode_seeded = true;
    const char* s = std::getenv("DC_CONV_PLAN");
    if (s != nullptr && *s != '\0') {
      if (std::strcmp(s, "model") == 0) {
        g_mode = ConvPlanMode::kModel;
      } else if (std::strcmp(s, "measure") == 0) {
        g_mode = ConvPlanMode::kMeasure;
      } else if (std::strcmp(s, "off") == 0) {
        g_mode = ConvPlanMode::kOff;
      } else {
        DC_FAIL("DC_CONV_PLAN: unknown mode '", s, "' (model|measure|off)");
      }
    }
  }
  return g_mode;
}

bool winograd_locked() {
  if (!g_winograd_seeded) {
    g_winograd_seeded = true;
    g_winograd = parse_conv_winograd(std::getenv("DC_CONV_WINOGRAD"));
  }
  return g_winograd;
}

const std::string& path_locked() {
  if (!g_path_seeded) {
    g_path_seeded = true;
    const char* s = std::getenv("DC_CONV_PLAN_CACHE");
    if (s != nullptr) g_cache_path = s;
  }
  return g_cache_path;
}

const char* mode_name(ConvPlanMode m) {
  switch (m) {
    case ConvPlanMode::kModel: return "model";
    case ConvPlanMode::kMeasure: return "measure";
    case ConvPlanMode::kOff: return "off";
  }
  return "?";
}

// --- cache ------------------------------------------------------------------

struct Entry {
  ConvPlanKey key;
  ConvPlan plan;
};

std::vector<Entry> g_cache;
bool g_file_checked = false;  ///< the persistent file was consulted once

obs::metrics::Counter stat(const char* name) {
  return obs::metrics::counter(std::string("conv.plan.") + name);
}

std::string plan_str(const ConvPlan& plan) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "algo=%s strips=%lld cap=%d node=%d",
                kernels::conv_algo_name(plan.algo),
                static_cast<long long>(plan.strip_elems), plan.thread_cap,
                plan.numa_node);
  return buf;
}

bool parse_plan(const std::string& s, ConvPlan* plan) {
  char algo[32];
  long long strips = 0;
  int cap = 0, node = -1;
  if (std::sscanf(s.c_str(), "algo=%31s strips=%lld cap=%d node=%d", algo,
                  &strips, &cap, &node) != 4) {
    return false;
  }
  if (!kernels::parse_conv_algo(algo, &plan->algo)) return false;
  if (plan->algo == ConvAlgo::kAuto) return false;
  if (strips < 0 || strips > (1ll << 40)) return false;
  plan->strip_elems = strips;
  plan->thread_cap = cap;
  plan->numa_node = node;
  return true;
}

bool parse_key(const std::string& s, ConvPlanKey* key) {
  char pass[32];
  long long c = 0, f = 0;
  ConvParams& p = key->p;
  if (std::sscanf(s.c_str(),
                  "%31s c=%lld f=%lld k=%dx%d s=%dx%d p=%dx%d", pass, &c, &f,
                  &p.kh, &p.kw, &p.sh, &p.sw, &p.ph, &p.pw) != 9) {
    return false;
  }
  if (!parse_pass(pass, &key->pass)) return false;
  if (c <= 0 || f <= 0 || p.kh <= 0 || p.kw <= 0 || p.sh <= 0 || p.sw <= 0 ||
      p.ph < 0 || p.pw < 0) {
    return false;
  }
  key->c = c;
  key->f = f;
  return true;
}

Entry* find_locked(const ConvPlanKey& key) {
  for (Entry& e : g_cache) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

void save_locked(const std::string& path) {
  std::string out = kCacheSchema;
  out += " mode=";
  out += mode_name(mode_locked());
  out += "\n";
  for (const Entry& e : g_cache) {
    const std::string body = e.key.str() + " | " + plan_str(e.plan);
    char crc[24];
    std::snprintf(crc, sizeof(crc), " | crc=%08x",
                  support::crc32(body.data(), body.size()));
    out += body;
    out += crc;
    out += "\n";
  }
  // The cache is an optimization: a failed save (read-only path, vanished
  // directory, contended scratch space) must never abort the training step
  // that triggered the plan. Degrade to a warning and keep computing.
  try {
    support::write_file_atomic(path, out);
    stat("cache_store").inc();
  } catch (const Error& e) {
    log::warn("conv-planner", std::string("plan cache save failed: ") +
                                  e.what());
  }
}

/// Strict validate-before-use: any malformed header/line/CRC, unparseable
/// key/plan, or a plan its own key's shape cannot execute invalidates the
/// whole file. Returns the parsed entries through `out`.
bool parse_cache(const std::string& text, ConvPlanMode mode,
                 std::vector<Entry>* out, std::string* why) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    *why = "empty file";
    return false;
  }
  const std::string expect_header =
      std::string(kCacheSchema) + " mode=" + mode_name(mode);
  if (line != expect_header) {
    *why = "header mismatch (\"" + line + "\")";
    return false;
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t crc_at = line.rfind(" | crc=");
    if (crc_at == std::string::npos || line.size() != crc_at + 15) {
      *why = "malformed line \"" + line + "\"";
      return false;
    }
    const std::string body = line.substr(0, crc_at);
    // Exactly eight lowercase-hex digits, hand-parsed: strtoul would accept
    // uppercase and sign characters, letting e.g. an 'a'→'A' bit flip parse
    // to the same value and defeat the checksum.
    std::uint32_t stored = 0;
    bool crc_ok = true;
    for (int i = 0; i < 8; ++i) {
      const char ch = line[crc_at + 7 + i];
      if (ch >= '0' && ch <= '9') {
        stored = stored * 16 + (ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        stored = stored * 16 + (ch - 'a' + 10);
      } else {
        crc_ok = false;
        break;
      }
    }
    if (!crc_ok) {
      *why = "malformed crc on \"" + line + "\"";
      return false;
    }
    if (support::crc32(body.data(), body.size()) !=
        static_cast<std::uint32_t>(stored)) {
      *why = "crc mismatch on \"" + line + "\"";
      return false;
    }
    const std::size_t sep = body.find(" | ");
    if (sep == std::string::npos) {
      *why = "missing separator on \"" + line + "\"";
      return false;
    }
    Entry e;
    if (!parse_key(body.substr(0, sep), &e.key)) {
      *why = "bad key on \"" + line + "\"";
      return false;
    }
    if (!parse_plan(body.substr(sep + 3), &e.plan)) {
      *why = "bad plan on \"" + line + "\"";
      return false;
    }
    if (!kernels::conv_algo_applicable(e.plan.algo, e.key.pass, e.key.p)) {
      *why = "inapplicable plan on \"" + line + "\"";
      return false;
    }
    out->push_back(e);
  }
  return true;
}

bool load_locked(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // absent file: not an error, just nothing cached
  std::ostringstream ss;
  ss << in.rdbuf();
  std::vector<Entry> entries;
  std::string why;
  if (!parse_cache(ss.str(), mode_locked(), &entries, &why)) {
    log::warn("conv planner: discarding plan cache ", path, ": ", why,
              " — replanning from scratch");
    stat("cache_invalid").inc();
    return false;
  }
  g_cache = std::move(entries);
  stat("cache_load").inc();
  return true;
}

void maybe_load_file_locked() {
  if (g_file_checked) return;
  g_file_checked = true;
  const std::string& path = path_locked();
  if (!path.empty()) load_locked(path);
}

// --- pricing ----------------------------------------------------------------

/// Effective per-pass GEMM-family rate (FLOP/s): the measured calibration
/// when DC_KERNEL_CALIBRATION is set, else a machine-derived surrogate.
/// Only *relative* prices matter — every candidate shares the rate.
double pass_rate(ConvPass pass) {
  const auto& cal = kernel_calibration_from_env();
  if (cal.has_value() && cal->valid()) {
    switch (pass) {
      case ConvPass::kForward: return cal->fwd_flops;
      case ConvPass::kBackwardData: return cal->bwd_data_flops;
      case ConvPass::kBackwardFilter: return cal->bwd_filter_flops;
    }
  }
  const MachineModel m = MachineModel::lassen();
  const double base = 0.5 * m.peak_flops;
  return pass == ConvPass::kForward ? base : base / 1.1;
}

/// Model price of one candidate on the canonical workload. A surrogate, not
/// a simulator: GEMM families run at the calibrated rate, the direct stencil
/// at a reuse-limited fraction, packing/transform traffic is charged at
/// memory bandwidth, gemm-strips' strips pay a per-strip overhead plus a
/// cache-spill penalty, and placement trades thread count against single-socket
/// bandwidth locality. Pure arithmetic on layer constants: deterministic.
double price_candidate(const ConvPlanKey& key, const ConvPlan& plan) {
  const ConvParams& p = key.p;
  const std::int64_t depth = key.c * p.kh * p.kw;
  const double rows = 1.0 * kCanonicalOut * kCanonicalOut;
  const double flops = 2.0 * rows * key.f * depth;
  const MachineModel m = MachineModel::lassen();
  const double rate = pass_rate(key.pass);
  const double bw = m.mem_bandwidth;

  double eff_threads = kCanonicalThreads;
  double bw_factor = 1.0;
  if (plan.thread_cap > 0) {
    eff_threads = std::min<double>(eff_threads, plan.thread_cap);
  }
  const auto& topo = parallel::numa_topology();
  if (plan.numa_node >= 0 && topo.node_count() > 1 &&
      eff_threads <= topo.cpus_per_node()) {
    bw_factor = 1.15;  // single-socket: no cross-node cache/memory traffic
  }

  // Base tensor traffic (x + y + w once each) overlaps the GEMM's own
  // compute; packing/transform traffic does NOT — the kernels pack, then
  // multiply, sequentially — so it is charged additively below.
  const double bytes = 4.0 * (rows * key.c * p.sh * p.sw + rows * key.f +
                              double(key.f) * depth);
  double pack_bytes = 0.0;
  double flops_eff = flops;
  double rate_factor = 1.0;
  switch (plan.algo) {
    case ConvAlgo::kDirect:
      // The stencil re-reads x per (a, b) tap and has no register-tiled
      // inner GEMM; its throughput grows with contraction depth and filter
      // reuse up to roughly half the GEMM rate.
      rate_factor = 0.5 * std::min(1.0, depth / 32.0) *
                    std::min(1.0, key.f / 8.0);
      rate_factor = std::max(rate_factor, 0.02);
      break;
    case ConvAlgo::kIm2col:
      // Implicit GEMM: the panel packers gather the lowering straight from
      // the buffers (strided, through offset tables) and outputs are
      // written in place — no lowering buffer, no output copy. Charged: one
      // gather of what each pass lowers.
      switch (key.pass) {
        case ConvPass::kForward:
          pack_bytes += 4.0 * rows * depth;  // im2col(x)
          break;
        case ConvPass::kBackwardData:
          // one shifted dy window per tap
          pack_bytes += 4.0 * rows * key.f * p.kh * p.kw;
          break;
        case ConvPass::kBackwardFilter:
          pack_bytes += 4.0 * rows * (depth + key.f);  // im2col(x)ᵀ and dy
          break;
      }
      break;
    case ConvAlgo::kGemmStrips:
      break;  // dense planes feed the GEMM's unit-stride panel copies
    case ConvAlgo::kWinograd: {
      // 16/36 of the multiplies, plus the tile transforms (~1.2× fudge) and
      // the V/M transform-domain round trips.
      flops_eff = flops * (16.0 / 36.0) * 1.2;
      const double tiles = rows / 4.0;
      pack_bytes += 4.0 * 2.0 * 16.0 * tiles * (key.c + key.f);
      break;
    }
    case ConvAlgo::kAuto:
      return 1e30;
  }

  double strip_overhead = 0.0;
  if (plan.algo == ConvAlgo::kGemmStrips) {
    const double se = plan.strip_elems > 0 ? double(plan.strip_elems)
                                           : double(1 << 19);
    const double lowering_bytes = 4.0 * rows * depth;
    const double strip_bytes = std::min(4.0 * se, lowering_bytes);
    const double n_strips = std::max(1.0, lowering_bytes / strip_bytes);
    strip_overhead = n_strips * m.kernel_overhead;
    // Strips past ~4 MiB spill the shared cache and re-read from DRAM.
    if (strip_bytes > double(1 << 22)) {
      pack_bytes += (strip_bytes - double(1 << 22)) * 0.5;
    }
  }

  const double compute = flops_eff / (rate * rate_factor *
                                      (eff_threads / kCanonicalThreads));
  const double memory = bytes / (bw * bw_factor);
  return std::max(compute, memory) + pack_bytes / (bw * bw_factor) +
         m.kernel_overhead + strip_overhead;
}

/// Families a plan may *select* for this key. Winograd aside (explicit
/// tolerance opt-in), selection never crosses the PR-1 direct/GEMM
/// boundary: plan keys are sliced per rank under channel/filter
/// parallelism, so a crossover that moved with c or f could pick different
/// families for the oracle and a rank slice and break the bitwise
/// distributed-equals-oracle contract. Within the GEMM class every family
/// is bitwise identical (gemm-strips ≡ im2col), so strips, placement and
/// zero-copy upgrades stay freely tunable — enumerate_conv_candidates still
/// prices every applicable family for introspection.
std::vector<ConvAlgo> selectable_families(const ConvPlanKey& key,
                                          bool winograd) {
  const ConvAlgo legacy =
      kernels::resolve_conv_algo(ConvAlgo::kAuto, key.p, key.c, key.f);
  std::vector<ConvAlgo> fams{legacy};
  if (legacy == ConvAlgo::kIm2col &&
      kernels::conv_algo_applicable(ConvAlgo::kGemmStrips, key.pass, key.p)) {
    fams.push_back(ConvAlgo::kGemmStrips);
  }
  if (winograd &&
      kernels::conv_algo_applicable(ConvAlgo::kWinograd, key.pass, key.p)) {
    fams.push_back(ConvAlgo::kWinograd);
  }
  return fams;
}

std::vector<ConvPlanChoice> enumerate_for(const ConvPlanKey& key,
                                          const std::vector<ConvAlgo>& fams) {
  std::vector<ConvPlanChoice> out;
  const auto& topo = parallel::numa_topology();
  for (ConvAlgo algo : fams) {
    // Strips only change a kernel where kGemmStrips splits its forward or
    // backward-data n range; kIm2col has no lowering buffer to strip.
    std::vector<std::int64_t> strips{0};
    const bool tunable_strips =
        algo == ConvAlgo::kGemmStrips && key.pass != ConvPass::kBackwardFilter;
    if (tunable_strips) strips = {1 << 17, 1 << 19, 1 << 21};
    for (std::int64_t se : strips) {
      std::vector<std::pair<int, int>> places{{0, -1}};  // (cap, node)
      if (topo.node_count() > 1) {
        // Socket-targeted variant: cap at one node's CPUs and home the
        // node by key hash so concurrent layers spread across sockets.
        const std::string ks = key.str();
        const std::uint32_t h = support::crc32(ks.data(), ks.size());
        const int node = topo.nodes[h % topo.nodes.size()].id;
        places.emplace_back(topo.cpus_per_node(), node);
      }
      for (const auto& [cap, node] : places) {
        ConvPlanChoice choice;
        choice.plan.algo = algo;
        choice.plan.strip_elems = se;
        choice.plan.thread_cap = cap;
        choice.plan.numa_node = node;
        choice.model_seconds = price_candidate(key, choice.plan);
        out.push_back(choice);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ConvPlanChoice& a, const ConvPlanChoice& b) {
                     return a.model_seconds < b.model_seconds;
                   });
  return out;
}

// --- measure mode -----------------------------------------------------------

/// Time one candidate on the canonical workload through the explicit-plan
/// kernel entry points. Returns +inf when the shape cannot be synthesized.
double measure_candidate(const ConvPlanKey& key, const ConvPlan& plan,
                         int warmup, int reps) {
  const ConvParams& p = key.p;
  const std::int64_t oh = kCanonicalOut, ow = kCanonicalOut;
  const std::int64_t ih = (oh - 1) * p.sh + p.kh - 2 * p.ph;
  const std::int64_t iw = (ow - 1) * p.sw + p.kw - 2 * p.pw;
  if (ih <= 0 || iw <= 0) return 1e30;
  Tensor<float> x(Shape4{1, key.c, ih + 2 * p.ph, iw + 2 * p.pw});
  Tensor<float> w(Shape4{key.f, key.c, p.kh, p.kw});
  Tensor<float> y(Shape4{1, key.f, oh, ow});
  Rng rng(17);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  y.fill_uniform(rng);
  const kernels::Origin2 xo{-p.ph, -p.pw}, yo{0, 0};
  const kernels::Range2 out_full{0, oh, 0, ow};
  const kernels::Range2 in_full{0, ih, 0, iw};
  auto once = [&] {
    switch (key.pass) {
      case ConvPass::kForward:
        kernels::conv2d_forward(x, xo, w, y, yo, p, out_full, plan);
        break;
      case ConvPass::kBackwardData:
        kernels::conv2d_backward_data(y, yo, w, x, xo, p, in_full, oh, ow,
                                      plan);
        break;
      case ConvPass::kBackwardFilter:
        kernels::conv2d_backward_filter(x, xo, y, yo, w, p, out_full, false,
                                        plan);
        break;
    }
  };
  for (int i = 0; i < warmup; ++i) once();
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    once();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

ConvPlan plan_for_locked(const ConvPlanKey& key) {
  const bool winograd = winograd_locked();
  auto candidates = enumerate_for(key, selectable_families(key, winograd));
  DC_REQUIRE(!candidates.empty(), "conv planner enumerated no candidates");
  if (mode_locked() == ConvPlanMode::kMeasure && candidates.size() > 1) {
    // Micro-benchmark the model's top two; first use only (the winner is
    // cached). One warmup absorbs pool spin-up and page faults.
    const std::size_t n = std::min<std::size_t>(2, candidates.size());
    for (std::size_t i = 0; i < n; ++i) {
      candidates[i].measured_seconds =
          measure_candidate(key, candidates[i].plan, 1, 2);
      stat("measure").inc();
    }
    std::stable_sort(candidates.begin(), candidates.begin() + n,
                     [](const ConvPlanChoice& a, const ConvPlanChoice& b) {
                       return a.measured_seconds < b.measured_seconds;
                     });
  }
  return candidates.front().plan;
}

}  // namespace

bool ConvPlanKey::operator==(const ConvPlanKey& o) const {
  return pass == o.pass && c == o.c && f == o.f && p.kh == o.p.kh &&
         p.kw == o.p.kw && p.sh == o.p.sh && p.sw == o.p.sw &&
         p.ph == o.p.ph && p.pw == o.p.pw;
}

std::string ConvPlanKey::str() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s c=%lld f=%lld k=%dx%d s=%dx%d p=%dx%d",
                pass_name(pass), static_cast<long long>(c),
                static_cast<long long>(f), p.kh, p.kw, p.sh, p.sw, p.ph, p.pw);
  return buf;
}

ConvPlanMode conv_plan_mode() {
  std::lock_guard<std::mutex> lock(g_mu);
  return mode_locked();
}

void set_conv_plan_mode(ConvPlanMode mode) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_mode_seeded = true;
  g_mode = mode;
}

bool parse_conv_winograd(const char* s) {
  if (s == nullptr || *s == '\0' || std::strcmp(s, "0") == 0) return false;
  if (std::strcmp(s, "1") == 0) return true;
  DC_FAIL("DC_CONV_WINOGRAD: invalid value '", s, "' (0|1)");
}

bool conv_winograd_enabled() {
  std::lock_guard<std::mutex> lock(g_mu);
  return winograd_locked();
}

void set_conv_winograd_enabled(bool on) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_winograd_seeded = true;
  g_winograd = on;
}

kernels::ConvPlan conv_plan_for(ConvPass pass, const ConvParams& p,
                                std::int64_t c, std::int64_t f) {
  ConvPlanKey key;
  key.pass = pass;
  key.c = c;
  key.f = f;
  key.p = p;
  std::lock_guard<std::mutex> lock(g_mu);
  if (mode_locked() == ConvPlanMode::kOff) {
    ConvPlan plan;
    plan.algo = kernels::resolve_conv_algo(ConvAlgo::kAuto, p, c, f);
    return plan;
  }
  maybe_load_file_locked();
  if (Entry* e = find_locked(key)) {
    stat("hit").inc();
    return e->plan;
  }
  stat("miss").inc();
  Entry e;
  e.key = key;
  e.plan = plan_for_locked(key);
  g_cache.push_back(e);
  const std::string& path = path_locked();
  if (!path.empty()) save_locked(path);  // write-through
  return e.plan;
}

std::vector<ConvPlanChoice> enumerate_conv_candidates(const ConvPlanKey& key) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<ConvAlgo> fams;
  for (ConvAlgo algo : {ConvAlgo::kDirect, ConvAlgo::kIm2col,
                        ConvAlgo::kGemmStrips, ConvAlgo::kWinograd}) {
    if (kernels::conv_algo_applicable(algo, key.pass, key.p)) {
      fams.push_back(algo);
    }
  }
  return enumerate_for(key, fams);
}

void clear_conv_plan_cache() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_cache.clear();
  g_file_checked = false;
}

std::size_t conv_plan_cache_size() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_cache.size();
}

std::string conv_plan_cache_path() {
  std::lock_guard<std::mutex> lock(g_mu);
  return path_locked();
}

void set_conv_plan_cache_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_path_seeded = true;
  g_cache_path = path;
  g_file_checked = false;
}

bool load_conv_plan_cache(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_cache.clear();
  return load_locked(path);
}

void save_conv_plan_cache(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  save_locked(path);
}

}  // namespace distconv::perf
