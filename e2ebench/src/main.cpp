// e2ebench: one workload per process.
//
//   e2ebench --workload <mesh-spatial|serve-openloop>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Prints every metric it measured as a readable line, then a provenance
// line, then (last) one JSON object {"correct", "attempted", "failed",
// "metrics"} holding all of them; run.py selects the end-to-end or
// per-layer set that BENCHMARK.json names. Traced runs also write their
// spans to .bench_out/trace-<workload>-seed<n>.json. Exits 1 when an output
// failed its correctness check, 2 on a usage or run error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (!(cfg.seconds > 0)) usage("--seconds must be positive");
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
      have[3] = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return cfg;
}

}  // namespace

void record_threads(Result& result, int ranks, int budget, int generators) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int busy = ranks * budget;
  result.provenance["nproc"] = std::to_string(nproc);
  result.provenance["ranks"] = std::to_string(ranks);
  result.provenance["pool_budget"] = std::to_string(budget);
  result.provenance["generator_threads"] = std::to_string(generators);
  if (busy > nproc) {
    std::fprintf(stderr,
                 "e2ebench: warning: %d busy threads on %d cores; timings are "
                 "oversubscribed\n",
                 busy, nproc);
  }
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const RunConfig cfg = parse(argc, argv);
  void (*run)(const RunConfig&, Result&, Tracer&) = nullptr;
  if (cfg.workload == "mesh-spatial") run = run_mesh_spatial;
  if (cfg.workload == "serve-openloop") run = run_serve_openloop;
  if (run == nullptr) usage(("unknown workload " + cfg.workload).c_str());

  Result result;
  Tracer tracer(cfg.trace);
  try {
    result.provenance["workload"] = cfg.workload;
    result.provenance["seed"] = std::to_string(cfg.seed);
    result.provenance["seconds"] = std::to_string(cfg.seconds);
    result.provenance["trace"] = cfg.trace ? "1" : "0";
    const auto [steal0, total0] = cpu_steal_ticks();
    run(cfg, result, tracer);
    const auto [steal1, total1] = cpu_steal_ticks();
    char share[32];
    std::snprintf(share, sizeof share, "%.4f",
                  total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0);
    result.provenance["cpu_steal_share"] = share;
    if (cfg.trace) {
      const std::string dir = ".bench_out";
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/trace-" + cfg.workload + "-seed" +
                               std::to_string(cfg.seed) + ".json";
      tracer.write(path);
      result.provenance["trace_file"] = path;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }

  for (const auto& [name, vu] : result.metrics) {
    std::printf("%-32s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("%s\n", result.provenance_json().c_str());
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
