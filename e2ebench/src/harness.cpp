#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double pct : {90.0, 75.0, 50.0}) {
    // Nearest rank: the value at 1-based rank ceil(pct/100 · n).
    const double rank = std::ceil(pct / 100.0 * n);
    if (n - rank >= 10.0 || pct == 50.0) {
      s.tail_pct = pct;
      s.tail = v[static_cast<std::size_t>(std::max(1.0, rank)) - 1];
      break;
    }
  }
  return s;
}

void StealMeter::mark() { marks_.push_back(cpu_steal_ticks()); }

std::vector<double> StealMeter::shares() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double total = marks_[i].second - marks_[i - 1].second;
    out.push_back(total > 0 ? (marks_[i].first - marks_[i - 1].first) / total
                            : 0.0);
  }
  return out;
}

std::vector<double> steadiest_blocks(const std::vector<double>& samples,
                                     std::size_t block,
                                     const std::vector<double>& steal) {
  const std::size_t blocks = std::min(samples.size() / block, steal.size());
  if (blocks == 0) return samples;  // a run too short for one whole block
  std::vector<double> sorted(steal.begin(), steal.begin() + blocks);
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[(blocks + 3) / 4 - 1];  // nearest-rank p25
  std::vector<double> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (steal[b] > limit) continue;
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * block);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(block));
  }
  return out;
}

int Tracer::add(const std::string& name, std::int64_t id, int parent,
                double start, double end) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::set_end(int span, double end) {
  if (span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(span)).end = end;
}

double Tracer::median_self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      self.push_back(spans_[i].end - spans_[i].start - child[i]);
    }
  }
  return median(std::move(self));
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"spans\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"id\": %lld, \"parent\": %d, \"start\": %.9f, \"end\": %.9f",
                  static_cast<long long>(s.id), s.parent, s.start, s.end);
    out << "{\"name\": " << quote(s.name) << ", " << buf << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": the all-core line
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, vu] : metrics) {
    if (!std::isfinite(vu.first)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    out << (first ? "" : ", ") << quote(name) << ": {\"value\": " << num
        << ", \"unit\": " << quote(vu.second) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Result::provenance_json() const {
  std::ostringstream out;
  out << "{\"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : provenance) {
    out << (first ? "" : ", ") << quote(k) << ": " << quote(v);
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
