// layer_table: a per-layer timing table from a DC_METRICS dump.
//
// For every rank in the dump, reads the layer.<i>.{fwd,bwd}.ns counters and
// their .blocked twins (time the layer spent waiting on communication) and
// prints one Markdown row per layer: forward and backward time, blocked
// time, and backward ÷ forward with blocked time taken out of both. Layer i
// is the model's NetworkSpec index (for the mesh model: 1 = conv1_1, 4 =
// conv2_1, 7 = conv3_1, ...). Counters are totals over the whole run,
// warm-up included, so absolute times only compare between runs of the same
// length; the ratio column compares across runs. A conv layer whose dx is
// dead computes only filter gradients, so its backward costs about as much
// as its forward (≈1×); with dx live, about twice (≈2×).
//
// Usage: layer_table <metrics.json>
//
// Exit 0 with the table on stdout; 1 when the dump cannot be read or holds
// no layer counters; 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/json.hpp"

namespace {

using distconv::support::json::Value;

struct LayerTimes {
  double fwd = 0, bwd = 0, fwd_blocked = 0, bwd_blocked = 0;  ///< ns
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse "layer.<i>.<suffix>" into (i, suffix); false for other names.
bool split_layer_counter(const std::string& name, int* index,
                         std::string* suffix) {
  const std::string prefix = "layer.";
  if (name.rfind(prefix, 0) != 0) return false;
  const std::size_t dot = name.find('.', prefix.size());
  if (dot == std::string::npos || dot == prefix.size()) return false;
  const std::string digits = name.substr(prefix.size(), dot - prefix.size());
  if (digits.find_first_not_of("0123456789") != std::string::npos) return false;
  *index = std::atoi(digits.c_str());
  *suffix = name.substr(dot + 1);
  return true;
}

/// Rank → layer index → times.
std::map<int, std::map<int, LayerTimes>> read_layers(const std::string& path) {
  const Value root = distconv::support::json::parse(read_file(path));
  const Value* ranks = root.is_object() ? root.find("ranks") : nullptr;
  if (ranks == nullptr || !ranks->is_object()) {
    throw std::runtime_error(path + " has no \"ranks\" object");
  }
  std::map<int, std::map<int, LayerTimes>> out;
  for (const auto& [rank, per_rank] : ranks->object) {
    const Value* counters = per_rank.is_object() ? per_rank.find("counters") : nullptr;
    if (counters == nullptr || !counters->is_object()) continue;
    for (const auto& [name, v] : counters->object) {
      int index = 0;
      std::string suffix;
      if (!v.is_number() || !split_layer_counter(name, &index, &suffix)) continue;
      LayerTimes& t = out[std::atoi(rank.c_str())][index];
      if (suffix == "fwd.ns") {
        t.fwd = v.number;
      } else if (suffix == "bwd.ns") {
        t.bwd = v.number;
      } else if (suffix == "fwd.blocked.ns") {
        t.fwd_blocked = v.number;
      } else if (suffix == "bwd.blocked.ns") {
        t.bwd_blocked = v.number;
      }
    }
  }
  if (out.empty()) throw std::runtime_error(path + " holds no layer.<i> counters");
  return out;
}

void print_row(const char* rank, const std::string& layer, const LayerTimes& t) {
  const double fwd_busy = t.fwd - t.fwd_blocked;
  const double bwd_busy = t.bwd - t.bwd_blocked;
  char ratio[32] = "n/a";
  if (fwd_busy > 0 && t.bwd > 0) {
    std::snprintf(ratio, sizeof ratio, "%.2f", bwd_busy / fwd_busy);
  }
  std::printf("| %s | %s | %.2f | %.2f | %.2f | %.2f | %s |\n", rank,
              layer.c_str(), t.fwd / 1e6, t.bwd / 1e6, t.fwd_blocked / 1e6,
              t.bwd_blocked / 1e6, ratio);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '-') {
    std::fprintf(stderr, "usage: %s <metrics.json>\n", argv[0]);
    return 2;
  }
  try {
    const auto layers = read_layers(argv[1]);
    std::printf("| rank | layer | fwd ms | bwd ms | fwd blocked ms | bwd blocked ms "
                "| bwd/fwd (unblocked) |\n");
    std::printf("|---|---|---|---|---|---|---|\n");
    for (const auto& [rank, per_layer] : layers) {
      const std::string r = std::to_string(rank);
      LayerTimes total;
      for (const auto& [index, t] : per_layer) {
        print_row(r.c_str(), std::to_string(index), t);
        total.fwd += t.fwd;
        total.bwd += t.bwd;
        total.fwd_blocked += t.fwd_blocked;
        total.bwd_blocked += t.bwd_blocked;
      }
      print_row(r.c_str(), "all", total);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_table: %s\n", e.what());
    return 1;
  }
  return 0;
}
