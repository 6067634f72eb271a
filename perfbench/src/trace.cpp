#include "trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string_view>
#include <thread>

namespace perfbench {
namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Innermost open span of the calling thread.
thread_local int64_t t_open = -1;

uint64_t threadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

int64_t Tracer::begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Rec r{name, nowNs(), -1, t_open, request, threadId()};
  std::lock_guard<std::mutex> lock(mu_);
  if (request < 0 && r.parent >= 0) r.request = spans_[r.parent].request;
  spans_.push_back(r);
  t_open = static_cast<int64_t>(spans_.size()) - 1;
  return t_open;
}

void Tracer::end(int64_t index) {
  int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = t;
  t_open = spans_[index].parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on its thread one after another, so the
  // time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Rec& r : spans_)
    if (r.end_ns >= 0 && r.parent >= 0)
      child_ns[r.parent] += r.end_ns - r.start_ns;
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.end_ns < 0) continue;
    Totals& t = out[r.name];
    double dur = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    t.total_ms += dur;
    t.self_ms += dur - static_cast<double>(child_ns[i]) / 1e6;
    ++t.count;
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%lld}}",
                 first ? "" : ",\n", r.name,
                 static_cast<int>(std::string_view(r.name).find('.')),
                 r.name, static_cast<double>(r.start_ns - t0) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.thread % 1000000), i,
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
