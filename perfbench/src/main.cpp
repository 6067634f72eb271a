// perfbench — one benchmark for the padfa repository.
//
//   perfbench --workload compile|execute|serve --seed N --seconds S
//             --trace 0|1 [--forge 1] [--work-dir DIR]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) replay the same seeded inputs with the span recorder on
// and report the per-layer metrics. Human-readable lines go first; the
// last line of stdout is one JSON object with "correct", "attempted",
// "failed" and "metrics". See perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "corpus/corpus.h"
#include "support/perf_stats.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> medians(const std::vector<std::vector<double>>& v) {
  std::vector<double> out;
  for (const auto& x : v) out.push_back(median(x));
  return out;
}

double medianSetupSeconds(int reps, const std::function<void()>& once) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    once();
    s.push_back(msSince(t0) / 1e3);
  }
  return median(s);
}

double peakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reportAnalysisCounters(Report& r) {
  const padfa::PerfStats& ps = padfa::PerfStats::instance();
  auto count = [](const std::atomic<uint64_t>& c) {
    return static_cast<double>(c.load());
  };
  r.metric("dataflow.summary_hits", count(ps.summary.hits), "count");
  r.metric("dataflow.summary_lookups",
           static_cast<double>(ps.summary.lookups()), "count");
  r.metric("presburger.feasibility_hits", count(ps.feasibility.hits), "count");
  r.metric("presburger.feasibility_lookups",
           static_cast<double>(ps.feasibility.lookups()), "count");
  r.metric("presburger.feasibility_hit_rate", ps.feasibility.hitRate(),
           "ratio");
  r.metric("predicate.implies_hits", count(ps.implies.hits), "count");
  r.metric("predicate.implies_lookups",
           static_cast<double>(ps.implies.lookups()), "count");
  r.metric("predicate.simplify_hits", count(ps.simplify.hits), "count");
  r.metric("predicate.simplify_lookups",
           static_cast<double>(ps.simplify.lookups()), "count");
  r.metric("vra.proofs", count(ps.vra.proofs), "count");
  r.metric("vra.proofs_discharged", count(ps.vra.proofs_discharged), "count");
  r.metric("vra.widenings", count(ps.vra.widenings), "count");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, size_t samples, bool in_json) {
  if (in_json) json_.push_back({name, unit, value});
  if (silent_) return;
  std::string n = samples ? " [n=" + std::to_string(samples) + "]" : "";
  std::printf("%-34s = %.6g %s%s\n", name.c_str(), value, unit.c_str(),
              n.c_str());
}

void Report::line(const std::string& text) {
  if (!silent_) std::printf("%s\n", text.c_str());
}

bool Report::has(const std::string& name) const {
  for (const Entry& e : json_)
    if (e.name == name) return true;
  return false;
}

void Report::mergeChecks(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_printed_++ < 10)
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::finish() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < json_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", json_[i].value);
    out += (i ? ", \"" : "\"") + json_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + json_[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {

// Every per-layer metric of a traced run, with its unit. A workload
// reports the layers its path goes through; the rest read 0 (the layer
// did no work in the traced pass).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"lang.parse_ms", "ms"},
    {"lang.sema_ms", "ms"},
    {"ir.loop_tree_ms", "ms"},
    {"dataflow.base_ms", "ms"},
    {"dataflow.pred_ms", "ms"},
    {"dataflow.doacross_ms", "ms"},
    {"dataflow.vra_promote_ms", "ms"},
    {"dataflow.summary_hits", "count"},
    {"dataflow.summary_lookups", "count"},
    {"dataflow.loops_parallel", "count"},
    {"dataflow.loops_runtime_test", "count"},
    {"dataflow.loops_doacross", "count"},
    {"dataflow.loops_sequential", "count"},
    {"dataflow.loops_degraded", "count"},
    {"presburger.feasibility_hits", "count"},
    {"presburger.feasibility_lookups", "count"},
    {"presburger.feasibility_hit_rate", "ratio"},
    {"predicate.implies_hits", "count"},
    {"predicate.implies_lookups", "count"},
    {"predicate.simplify_hits", "count"},
    {"predicate.simplify_lookups", "count"},
    {"vra.fixpoint_ms", "ms"},
    {"vra.proofs", "count"},
    {"vra.proofs_discharged", "count"},
    {"vra.widenings", "count"},
    {"driver.compile_ms", "ms"},
    {"driver.overlap_ratio", "ratio"},
    {"audit.plan_audit_ms", "ms"},
    {"audit.loops_audited", "count"},
    {"audit.pairs_tested", "count"},
    {"audit.unsound", "count"},
    {"pdg.build_ms", "ms"},
    {"pdg.certify_ms", "ms"},
    {"pdg.disagreements", "count"},
    {"interp.par1_ms", "ms"},
    {"interp.regions_entered", "count"},
    {"interp.region_entry_us", "us"},
    {"interp.sim_ms", "ms"},
    {"interp.wall_over_sim", "ratio"},
    {"interp.parallel_coverage", "ratio"},
    {"interp.runtime_tests_evaluated", "count"},
    {"interp.runtime_tests_passed", "count"},
    {"interp.runtime_tests_pruned", "count"},
    {"interp.runtime_test_atoms", "count"},
    {"interp.doacross_regions", "count"},
    {"interp.doacross_waits", "count"},
    {"runtime.pool_dispatch_us", "us"},
    {"server.dispatch_ms_p50", "ms"},
    {"server.transport_ms_p50", "ms"},
    {"server.warm_ms_p50", "ms"},
    {"server.replay_ms_p50", "ms"},
    {"server.edit_ms_p50", "ms"},
    {"server.cold_ms_p50", "ms"},
    {"server.shed", "count"},
    {"server.errors", "count"},
    {"server.degraded", "count"},
    {"store.warm_hit_share", "ratio"},
    {"store.snapshot_bytes", "bytes"},
    {"store.flush_ms", "ms"},
    {"ipa.procs_replayed", "count"},
    {"ipa.procs_analyzed", "count"},
    {"ipa.replay_share", "ratio"},
    {"ipa.fingerprint_hit_rate", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

unsigned nprocCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Self time of the traced pass by layer (the span-name prefix), as a
/// share of the self time of all spans.
void printLayerShares(Report& r) {
  std::map<std::string, double> by_layer;
  double all = 0;
  for (const auto& [name, t] : Tracer::instance().totals()) {
    by_layer[name.substr(0, name.find('.'))] += t.self_ms;
    all += t.self_ms;
  }
  r.line("-- self time by layer (traced pass; 'bench' is harness time "
         "outside any layer call)");
  char buf[128];
  for (const auto& [layer, ms] : by_layer) {
    std::snprintf(buf, sizeof(buf), "   %-12s %10.3f ms  %5.1f%%",
                  layer.c_str(), ms, all > 0 ? 100.0 * ms / all : 0.0);
    r.line(buf);
  }
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile|execute|serve --seed N --seconds S --trace 0|1 "
               "[--forge 0|1] [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  o.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v.c_str());
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--forge") o.forge = v == "1";
    else if (a == "--work-dir") o.work_dir = v;
    else usage(("unknown flag " + a).c_str());
  }
  if (o.workload != "compile" && o.workload != "execute" &&
      o.workload != "serve")
    usage("--workload must be compile, execute or serve");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  // One vCPU is left to the rest of the host: a parallel region waits
  // for its slowest worker, and with every vCPU in use, any one the host
  // gives to another tenant stalls every region.
  const unsigned nproc = nprocCount();
  o.workers = nproc > 1 ? nproc - 1 : 1;

  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d forge=%d\n"
      "host nproc=%u hardware_concurrency=%u build_type=%s P=%u "
      "corpus_programs=%zu\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.forge ? 1 : 0, nproc,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, o.workers,
      padfa::corpus().size());

  Report r;
  try {
    if (o.workload == "compile") runCompile(o, r);
    else if (o.workload == "execute") runExecute(o, r);
    else runServe(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 1;
  }

  if (o.trace) {
    for (const auto& [name, unit] : kPerLayer)
      if (!r.has(name)) r.metric(name, 0, unit);
    printLayerShares(r);
    std::string path = o.work_dir + "/trace-" + o.workload + ".json";
    if (Tracer::instance().writeChromeTrace(path))
      r.line("trace: " + std::to_string(Tracer::instance().size()) +
             " spans written to " + path);
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  r.finish();
  return r.failed() == 0 ? 0 : 3;
}
