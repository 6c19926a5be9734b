// check_bench: the perf-regression gate over BENCH_*.json dumps.
//
// Dispatches on the dump's schema field:
//
//  * distconv-bench-serve-v1 (bench/serve_throughput --json) — per policy
//    (and for the fleet section), latency percentiles may not regress past
//    --lat-tol and throughput may not drop past --thru-tol. Correctness
//    fields are exact: the fresh fleet run must report oracle_match=true and
//    serve every request the baseline served.
//
//  * distconv-bench-train-v1 (bench/conv_planner --json) — per (shape, pass)
//    row, the planner's GFLOP/s may not drop past --thru-tol, every
//    exact_vs_auto bit must stay true (the planner's bitwise promise), the
//    winograd section must stay within tolerance, and the best planner
//    speedup over the kAuto heuristic must reach --speedup-floor — the
//    planner has to keep beating the heuristic somewhere, not just tie it.
//
// Usage: check_bench <baseline.json> <fresh.json>
//                    [--lat-tol 0.20] [--thru-tol 0.15]
//                    [--speedup-floor 1.0]
//                    [--append-history <BENCH_history.jsonl>]
//
// Tolerances are fractions (0.20 = +20% latency / −20% throughput headroom);
// CI passes looser values than the defaults because shared runners are
// noisy. Prints a per-metric PASS/FAIL table; exit 0 when every gate holds,
// 1 otherwise, 2 on usage/parse errors.
//
// --append-history records the fresh dump as one dated JSON line (appended,
// never rewritten) so BENCH trajectories accumulate across PRs; failing
// runs are recorded too, with "pass":false.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace {

using distconv::support::json::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double num(const Value& obj, const char* key) {
  const Value& v = obj.at(key);
  if (!v.is_number()) {
    throw std::runtime_error(std::string("\"") + key + "\" is not a number");
  }
  return v.number;
}

struct Gate {
  std::string metric;
  double baseline = 0;
  double fresh = 0;
  double limit = 0;  ///< the bound the fresh value was held to
  bool pass = false;
};

std::vector<Gate> gates;
bool all_pass = true;

/// Latency-like metric: fresh may exceed baseline by at most `tol`.
void gate_latency(const std::string& name, double base, double fresh,
                  double tol) {
  Gate g{name, base, fresh, base * (1.0 + tol), false};
  g.pass = fresh <= g.limit;
  all_pass = all_pass && g.pass;
  gates.push_back(g);
}

/// Throughput-like metric: fresh may fall below baseline by at most `tol`.
void gate_throughput(const std::string& name, double base, double fresh,
                     double tol) {
  Gate g{name, base, fresh, base * (1.0 - tol), false};
  g.pass = fresh >= g.limit;
  all_pass = all_pass && g.pass;
  gates.push_back(g);
}

/// Exact metric (correctness, not performance): fresh must equal baseline.
void gate_exact(const std::string& name, double base, double fresh) {
  Gate g{name, base, fresh, base, false};
  g.pass = fresh == base;
  all_pass = all_pass && g.pass;
  gates.push_back(g);
}

const Value* find_policy(const Value& root, const std::string& name) {
  for (const Value& p : root.at("policies").array) {
    if (p.at("name").string == name) return &p;
  }
  return nullptr;
}

const Value* find_layer(const Value& root, const std::string& shape,
                        const std::string& pass) {
  for (const Value& l : root.at("layers").array) {
    if (l.at("shape").string == shape && l.at("pass").string == pass) return &l;
  }
  return nullptr;
}

void append_num_field(std::string& out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.6g", key, v);
  out += buf;
}

/// One dated JSONL row summarizing the fresh dump: per-policy and fleet
/// latency/throughput plus the gate verdict. Append-only by design — the
/// file is the fleet's perf trajectory across PRs.
void append_history(const std::string& path, const Value& fresh, bool pass) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_utc);

  std::string row = "{\"date\":\"";
  row += date;
  row += "\",\"pass\":";
  row += pass ? "true" : "false";
  row += ",\"policies\":{";
  bool first = true;
  for (const Value& p : fresh.at("policies").array) {
    if (!first) row += ",";
    first = false;
    row += "\"" + p.at("name").string + "\":{\"requests\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", num(p, "requests"));
    row += buf;
    append_num_field(row, "p50_ms", num(p, "p50_ms"));
    append_num_field(row, "p99_ms", num(p, "p99_ms"));
    append_num_field(row, "throughput_rps", num(p, "throughput_rps"));
    row += "}";
  }
  row += "},\"fleet\":{\"replicas\":";
  const Value& fleet = fresh.at("fleet");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", num(fleet, "replicas"));
  row += buf;
  append_num_field(row, "requests", num(fleet, "requests"));
  append_num_field(row, "p50_ms", num(fleet, "p50_ms"));
  append_num_field(row, "p99_ms", num(fleet, "p99_ms"));
  append_num_field(row, "throughput_rps", num(fleet, "throughput_rps"));
  row += "}}\n";

  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot append to " + path);
  out << row;
}

/// Train-lane history row: per (shape, pass) planner GFLOP/s and speedup.
void append_history_train(const std::string& path, const Value& fresh,
                          bool pass) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_utc);

  std::string row = "{\"date\":\"";
  row += date;
  row += "\",\"lane\":\"train\",\"pass\":";
  row += pass ? "true" : "false";
  row += ",\"layers\":{";
  bool first = true;
  for (const Value& l : fresh.at("layers").array) {
    if (!first) row += ",";
    first = false;
    row += "\"" + l.at("shape").string + "." + l.at("pass").string +
           "\":{\"plan_gflops\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", num(l, "plan_gflops"));
    row += buf;
    append_num_field(row, "auto_gflops", num(l, "auto_gflops"));
    append_num_field(row, "speedup", num(l, "speedup"));
    row += "}";
  }
  row += "}}\n";

  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot append to " + path);
  out << row;
}

void check_serve(const Value& base, const Value& fresh, double lat_tol,
                 double thru_tol) {
  // Per-policy gates: every baseline policy must exist in the fresh dump
  // and hold its latency/throughput within tolerance.
  for (const Value& bp : base.at("policies").array) {
    const std::string name = bp.at("name").string;
    const Value* fp = find_policy(fresh, name);
    if (fp == nullptr) {
      throw std::runtime_error("fresh dump lost policy \"" + name + "\"");
    }
    gate_exact(name + ".requests", num(bp, "requests"), num(*fp, "requests"));
    gate_latency(name + ".p50_ms", num(bp, "p50_ms"), num(*fp, "p50_ms"),
                 lat_tol);
    gate_latency(name + ".p99_ms", num(bp, "p99_ms"), num(*fp, "p99_ms"),
                 lat_tol);
    gate_throughput(name + ".throughput_rps", num(bp, "throughput_rps"),
                    num(*fp, "throughput_rps"), thru_tol);
  }

  // Fleet gates: correctness exact, performance within tolerance.
  const Value& bf = base.at("fleet");
  const Value& ff = fresh.at("fleet");
  if (ff.at("oracle_match").boolean != true) {
    throw std::runtime_error("fresh fleet run is not oracle-bitwise-equal");
  }
  gate_exact("fleet.replicas", num(bf, "replicas"), num(ff, "replicas"));
  gate_exact("fleet.requests", num(bf, "requests"), num(ff, "requests"));
  gate_latency("fleet.p50_ms", num(bf, "p50_ms"), num(ff, "p50_ms"), lat_tol);
  gate_latency("fleet.p99_ms", num(bf, "p99_ms"), num(ff, "p99_ms"), lat_tol);
  gate_throughput("fleet.throughput_rps", num(bf, "throughput_rps"),
                  num(ff, "throughput_rps"), thru_tol);
}

void check_train(const Value& base, const Value& fresh, double thru_tol,
                 double speedup_floor) {
  double best_speedup = 0;
  for (const Value& bl : base.at("layers").array) {
    const std::string shape = bl.at("shape").string;
    const std::string pass = bl.at("pass").string;
    const Value* fl = find_layer(fresh, shape, pass);
    if (fl == nullptr) {
      throw std::runtime_error("fresh dump lost layer \"" + shape + "." +
                               pass + "\"");
    }
    const std::string name = shape + "." + pass;
    // The bitwise promise is a hard gate, not a tolerance.
    gate_exact(name + ".exact", 1.0,
               fl->at("exact_vs_auto").boolean ? 1.0 : 0.0);
    gate_throughput(name + ".plan_gflops", num(bl, "plan_gflops"),
                    num(*fl, "plan_gflops"), thru_tol);
    best_speedup = std::max(best_speedup, num(*fl, "speedup"));
  }
  // The planner must keep beating the heuristic on at least one paper shape
  // (implicit im2col left gemm-strips no pack to drop, so planned and kAuto
  // rows now mostly run the same kernel).
  // The floor, not a historical value, is the reference.
  {
    Gate g{"best.speedup", speedup_floor, best_speedup, speedup_floor,
           best_speedup >= speedup_floor};
    all_pass = all_pass && g.pass;
    gates.push_back(g);
  }
  const Value& fw = fresh.at("winograd");
  gate_exact("winograd.within_tol", 1.0,
             fw.at("within_tol").boolean ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* fresh_path = nullptr;
  const char* history_path = nullptr;
  double lat_tol = 0.20;
  double thru_tol = 0.15;
  double speedup_floor = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lat-tol") == 0 && i + 1 < argc) {
      lat_tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--thru-tol") == 0 && i + 1 < argc) {
      thru_tol = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--speedup-floor") == 0 && i + 1 < argc) {
      speedup_floor = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--append-history") == 0 && i + 1 < argc) {
      history_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "check_bench: unknown flag '%s'\n", argv[i]);
      return 2;
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (fresh_path == nullptr) {
      fresh_path = argv[i];
    }
  }
  if (baseline_path == nullptr || fresh_path == nullptr) {
    std::fprintf(stderr,
                 "usage: check_bench <baseline.json> <fresh.json> "
                 "[--lat-tol F] [--thru-tol F] [--speedup-floor F] "
                 "[--append-history <file.jsonl>]\n");
    return 2;
  }

  try {
    const Value base = distconv::support::json::parse(read_file(baseline_path));
    const Value fresh = distconv::support::json::parse(read_file(fresh_path));
    const std::string schema = base.at("schema").string;
    if (fresh.at("schema").string != schema) {
      throw std::runtime_error("schema mismatch: baseline \"" + schema +
                               "\" vs fresh \"" + fresh.at("schema").string +
                               "\"");
    }
    if (schema == "distconv-bench-serve-v1") {
      check_serve(base, fresh, lat_tol, thru_tol);
      if (history_path != nullptr) {
        append_history(history_path, fresh, all_pass);
        std::printf("appended history row to %s\n", history_path);
      }
    } else if (schema == "distconv-bench-train-v1") {
      check_train(base, fresh, thru_tol, speedup_floor);
      if (history_path != nullptr) {
        append_history_train(history_path, fresh, all_pass);
        std::printf("appended history row to %s\n", history_path);
      }
    } else {
      throw std::runtime_error("unrecognized schema \"" + schema + "\"");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check_bench: %s\n", e.what());
    return 2;
  }

  std::printf("%-28s %14s %14s %14s  %s\n", "metric", "baseline", "fresh",
              "limit", "gate");
  for (const Gate& g : gates) {
    std::printf("%-28s %14.3f %14.3f %14.3f  %s\n", g.metric.c_str(),
                g.baseline, g.fresh, g.limit, g.pass ? "PASS" : "FAIL");
  }
  std::printf("tolerances: latency +%.0f%%, throughput -%.0f%%\n",
              lat_tol * 100.0, thru_tol * 100.0);
  if (!all_pass) {
    std::fprintf(stderr, "check_bench: perf regression gate FAILED\n");
    return 1;
  }
  std::printf("check_bench: all gates passed\n");
  return 0;
}
