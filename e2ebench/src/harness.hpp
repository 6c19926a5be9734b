// Measurement plumbing shared by the e2ebench workloads: clock, percentile
// summaries, the benchmark-side span tracer, process memory, and the result
// record the benchmark prints as its last line.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/// Seconds on the monotonic clock (all ranks are threads of one process, so
/// timestamps from different ranks are directly comparable).
double now_s();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// A latency sample summarized as median plus tail, where the tail is the
/// highest percentile of {90, 75, 50} with at least ten samples beyond it
/// (nearest-rank). The ladder stops at p90 because higher percentiles do not
/// hold still on a shared host (see README.md, "Tail"). The workloads' runs
/// always reach p90, so the percentile stays the same from run to run while
/// the sample count varies.
struct Summary {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< which percentile `tail` is
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);

/// Share of the machine's CPU time that the hypervisor gave to other guests
/// ("steal" in /proc/stat) between consecutive calls of mark(). On a shared
/// host steal comes in episodes of seconds to minutes and slows every thread
/// it hits, independently of the code under test.
class StealMeter {
 public:
  void mark();
  /// One share per interval between consecutive marks.
  std::vector<double> shares() const;

 private:
  std::vector<std::pair<double, double>> marks_;  // (steal, total) ticks
};

/// The samples of a run's least-disturbed stretches. `samples` are in time
/// order and cut into consecutive blocks of `block`; block b ran during
/// interval b of `steal` (a trailing partial block is dropped; a run without
/// one whole block keeps every sample). Keeps every
/// block whose steal share is at most the blocks' lower quartile: the
/// quietest quarter, more when blocks tie (every block when steal is flat).
/// Blocks are chosen by the machine's steal, never by their own latencies,
/// so a stretch the code itself makes slow stays in.
std::vector<double> steadiest_blocks(const std::vector<double>& samples,
                                     std::size_t block,
                                     const std::vector<double>& steal);

/// Spans recorded around calls into the library, from the benchmark's own
/// code. Kept in memory; written as JSON when the run ends. Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t id = 0;  ///< step or request the span belongs to
    int parent = -1;      ///< index of the enclosing span, -1 for roots
    double start = 0, end = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Record a span; returns its index (for children), -1 when off.
  int add(const std::string& name, std::int64_t id, int parent, double start,
          double end);
  /// Set the end of span `span` (recorded before its end was known).
  void set_end(int span, double end);

  /// Median over spans named `name` of (duration − time covered by direct
  /// children), in seconds; 0 when there is no such span.
  double median_self_seconds(const std::string& name) const;

  /// Write every span as {"spans": [...]} to `path`.
  void write(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// VmHWM of this process in MiB (peak resident set).
double peak_rss_mb();

/// Cumulative (steal, total) CPU ticks of the machine from /proc/stat.
std::pair<double, double> cpu_steal_ticks();

/// What one run reports. `metrics` holds (value, unit) by name.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Effective configuration, printed as one "provenance" JSON line.
  std::map<std::string, std::string> provenance;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
  std::string provenance_json() const;
};

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// JSON string literal (quotes and escapes).
std::string quote(const std::string& s);

}  // namespace e2e
