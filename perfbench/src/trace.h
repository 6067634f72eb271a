// Span recorder of the benchmark.
//
// Spans are recorded only from the benchmark's own files, around calls
// into the public functions of each layer. A span has a name (by
// convention "<layer>.<what>"), a start, an end, the span that enclosed
// it on the same thread, and a request id shared by every span of one
// request or program. Spans stay in memory; writeChromeTrace() writes
// them out once, as Chrome trace-event JSON, when the run ends.
//
// While the recorder is disabled a Span costs one branch, so a workload
// can run the same pass with and without it and report the ratio of the
// two wall times as the tracing overhead.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static Tracer& instance();

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; returns its index, or -1 while
  /// disabled.
  int64_t begin(const char* name, int64_t request);
  void end(int64_t index);

  /// Per span name: summed duration, and summed self time (duration
  /// minus the time the span's children cover), in milliseconds.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Write every closed span as Chrome trace-event JSON. False when the
  /// file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

  size_t size() const;
  /// Drop every recorded span (no span may be open).
  void clear();

 private:
  struct Rec {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;  // -1 while open
    int64_t parent;  // -1 for a root span
    int64_t request;
    uint64_t thread;
  };

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(const char* name, int64_t request = -1)
      : index_(Tracer::instance().begin(name, request)) {}
  ~Span() {
    if (index_ >= 0) Tracer::instance().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

}  // namespace perfbench
