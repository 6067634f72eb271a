// Shared pieces of the benchmark: options, timing, statistics, the
// metric report, and the three workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupt one reference output after set-up (one checksum, or one
  /// signature): the run must then report failed operations.
  bool forge = false;
  /// Scratch directory inside the working tree (daemon store, socket,
  /// trace file).
  std::string work_dir;
  /// Worker count for parallel execution (nproc - 1, at least 1).
  unsigned workers = 1;
};

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The median of each inner sample (one per corpus program). Percentiles
/// over these are steadier than over the pooled samples: a phase of
/// host slowness that covers less than half of a program's repetitions
/// does not move its median.
std::vector<double> medians(const std::vector<std::vector<double>>& v);

/// Deterministic per-seed random stream.
using Rng = std::mt19937_64;

/// Collects what a run prints. Every metric is printed as a line
/// "name = value unit [n=samples]"; the ones in the JSON set (the
/// benchmark's end-to-end or per-layer metrics, depending on the mode)
/// also go into the closing JSON object.
class Report {
 public:
  /// A silent report prints nothing; a traced workload uses one for the
  /// untraced copy of its pass and then merges the checks it made.
  explicit Report(bool silent = false) : silent_(silent) {}
  void metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0, bool in_json = true);
  void line(const std::string& text);  // free-form output line
  bool has(const std::string& name) const;

  /// Record one checked operation; `what` explains a failure.
  void check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  void mergeChecks(const Report& other);

  /// Print the closing JSON object as the last line of stdout.
  void finish() const;

 private:
  struct Entry {
    std::string name, unit;
    double value;
  };
  bool silent_;
  std::vector<Entry> json_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failures_printed_ = 0;
};

/// Run `once` `reps` times (each call sets up from scratch) and return
/// the median wall time in seconds.
double medianSetupSeconds(int reps, const std::function<void()>& once);

/// Peak resident set of the process so far, in MB (getrusage).
double peakRssMb();

/// Report the analysis caches' and the value-range pass's PerfStats
/// counters (dataflow.summary_*, presburger.feasibility_*, predicate.*,
/// vra.*), as accumulated since the last PerfStats::resetAll().
void reportAnalysisCounters(Report& r);

void runCompile(const Options& o, Report& r);
void runExecute(const Options& o, Report& r);
void runServe(const Options& o, Report& r);

}  // namespace perfbench
