// `execute` workload: every corpus program at scale 4, compiled during
// set-up, run sequentially (the reference) and with its predicated
// plans on P = nproc - 1 workers. Each round runs every program in a
// seed-shuffled order with its plans; every fourth round also runs it
// sequentially, interleaved with the parallel run.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "bench.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "presburger/feasibility_cache.h"
#include "runtime/thread_pool.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace padfa;

// Scale 4 keeps the four coarsest programs at 40-50 ms sequential, far
// above region entry cost, while a run still holds 100 or more parallel
// runs of each program; a quantile of them follows the host's speed over
// the whole run rather than over a dozen moments of it.
constexpr int kScale = 4;
// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 15;
// One round in this many also times the sequential reference.
constexpr size_t kSeqEvery = 4;
// Untimed parallel rounds before timing starts: the first parallel
// rounds after set-up ran up to 3x slow.
constexpr double kWarmupSeconds = 1.0;

struct Input {
  std::string name;
  CompiledProgram cp;
  double ref_checksum = 0;  // sequential run, from set-up
  std::optional<double> par_checksum;  // first parallel run
};

std::vector<Input> setUp() {
  std::vector<Input> in;
  pb::FeasibilityCache::global().clear();
  for (const CorpusEntry& e : corpus()) {
    DiagEngine diags;
    auto cp = compileSource(instantiate(e, kScale), diags);
    if (!cp) throw std::runtime_error("corpus program " + e.name +
                                      " does not compile");
    InterpOptions seq;
    double ref = execute(*cp->program, seq).checksum;
    in.push_back({e.name, std::move(*cp), ref, std::nullopt});
  }
  return in;
}

bool closeTo(double got, double ref) {
  return std::abs(got - ref) <= 1e-9 * (std::abs(ref) + 1.0);
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Check a parallel checksum: within tolerance of the sequential
/// reference, and bit-identical to every earlier parallel run.
void checkParallel(Input& p, double got, Report& r) {
  r.check(closeTo(got, p.ref_checksum),
          p.name + ": parallel checksum " + std::to_string(got) +
              " differs from the sequential reference " +
              std::to_string(p.ref_checksum));
  if (!p.par_checksum) p.par_checksum = got;
  r.check(sameBits(got, *p.par_checksum),
          p.name + ": parallel checksum changed between repetitions");
}

InterpOptions parallelOptions(const Input& p, unsigned workers) {
  InterpOptions opt;
  opt.plans = &p.cp.pred;
  opt.num_threads = workers;
  return opt;
}

/// Share of the sequential time spent in outermost loops the predicated
/// plans run in parallel; returns {covered seconds, total seconds}.
std::pair<double, double> coverage(const Input& p, const InterpStats& st) {
  double covered = 0;
  for (const auto& [loop, prof] : st.profiles) {
    const LoopPlan* plan = p.cp.pred.planFor(loop);
    if (!plan) continue;
    bool par = plan->status == LoopStatus::Parallel ||
               plan->status == LoopStatus::RuntimeTest ||
               plan->status == LoopStatus::Doacross;
    if (par && !nestedInsideParallelized(p.cp, loop, p.cp.pred))
      covered += prof.seconds;
  }
  return {covered, st.total_seconds};
}

struct TracedTotals {
  double seq_ms = 0, par1_ms = 0, par_ms = 0, sim_ms = 0;
  double covered_s = 0, profiled_s = 0;
  uint64_t regions = 0, rt_eval = 0, rt_pass = 0, rt_pruned = 0, atoms = 0,
           doacross = 0, waits = 0;
};

/// Run one program sequentially, with its plans on 1 worker, on P
/// workers, and sequentially with per-loop profiling; add to `t`.
void runTraced(Input& p, unsigned workers, TracedTotals& t, Report& r) {
  auto t0 = Clock::now();
  InterpStats seq;
  {
    Span s("interp.seq");
    seq = execute(*p.cp.program, InterpOptions{});
  }
  t.seq_ms += msSince(t0);
  r.check(sameBits(seq.checksum, p.ref_checksum),
          p.name + ": sequential checksum changed");
  t0 = Clock::now();
  InterpStats one;
  {
    Span s("interp.par1");
    one = execute(*p.cp.program, parallelOptions(p, 1));
  }
  t.par1_ms += msSince(t0);
  r.check(closeTo(one.checksum, p.ref_checksum),
          p.name + ": 1-worker checksum differs from the reference");
  t0 = Clock::now();
  InterpStats par;
  {
    Span s("interp.par");
    par = execute(*p.cp.program, parallelOptions(p, workers));
  }
  t.par_ms += msSince(t0);
  checkParallel(p, par.checksum, r);
  t.sim_ms += par.simulated_seconds * 1e3;
  t.regions += one.parallel_loops_entered;
  t.rt_eval += par.runtime_tests_evaluated;
  t.rt_pass += par.runtime_tests_passed;
  t.rt_pruned += par.runtime_tests_pruned;
  t.atoms += par.runtime_test_atoms;
  t.doacross += par.doacross_loops_entered;
  t.waits += par.doacross_waits;
  InterpOptions prof;
  prof.profile = true;
  InterpStats ps;
  {
    Span s("interp.profile");
    ps = execute(*p.cp.program, prof);
  }
  auto [cov, tot] = coverage(p, ps);
  t.covered_s += cov;
  t.profiled_s += tot;
}

/// Median cost of one empty ThreadPool::runOnAll dispatch, in us.
double poolDispatchUs(unsigned workers) {
  ThreadPool pool(workers);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    auto t0 = Clock::now();
    {
      Span s("runtime.pool_dispatch");
      pool.runOnAll([](unsigned) {});
    }
    us.push_back(msSince(t0) * 1e3);
  }
  return median(us);
}

}  // namespace

void runExecute(const Options& o, Report& r) {
  std::vector<Input> in;
  double setup_s = medianSetupSeconds(kSetupReps, [&] { in = setUp(); });
  if (o.forge) in[0].ref_checksum += 1.0;
  const unsigned P = o.workers;
  const size_t n = in.size();

  if (o.trace) {
    // Each program runs untraced and traced, in alternating order; the
    // ratio of the summed wall times is the recorder's overhead. Metrics
    // come from the traced runs.
    Tracer& tr = Tracer::instance();
    TracedTotals plain, t;
    double plain_ms = 0, traced_ms = 0;
    for (size_t i = 0; i < in.size(); ++i) {
      for (bool on : {i % 2 == 1, i % 2 == 0}) {
        tr.setEnabled(on);
        auto t0 = Clock::now();
        {
          Span root("bench.program", static_cast<int64_t>(i));
          runTraced(in[i], P, on ? t : plain, r);
        }
        (on ? traced_ms : plain_ms) += msSince(t0);
      }
    }
    tr.setEnabled(true);
    double dispatch_us = poolDispatchUs(P);
    tr.setEnabled(false);
    r.metric("interp.par1_ms", t.par1_ms, "ms");
    r.metric("interp.regions_entered", static_cast<double>(t.regions), "count");
    r.metric("interp.region_entry_us",
             t.regions ? (t.par1_ms - t.seq_ms) * 1e3 / t.regions : 0, "us");
    r.metric("interp.sim_ms", t.sim_ms, "ms");
    r.metric("interp.wall_over_sim", t.sim_ms > 0 ? t.par_ms / t.sim_ms : 0,
             "ratio");
    r.metric("interp.parallel_coverage",
             t.profiled_s > 0 ? t.covered_s / t.profiled_s : 0, "ratio");
    r.metric("interp.runtime_tests_evaluated", static_cast<double>(t.rt_eval),
             "count");
    r.metric("interp.runtime_tests_passed", static_cast<double>(t.rt_pass),
             "count");
    r.metric("interp.runtime_tests_pruned", static_cast<double>(t.rt_pruned),
             "count");
    r.metric("interp.runtime_test_atoms", static_cast<double>(t.atoms),
             "count");
    r.metric("interp.doacross_regions", static_cast<double>(t.doacross),
             "count");
    r.metric("interp.doacross_waits", static_cast<double>(t.waits), "count");
    r.metric("runtime.pool_dispatch_us", dispatch_us, "us", 2000);
    r.metric("bench.trace_overhead", traced_ms / plain_ms, "ratio", n);
    return;
  }

  std::vector<std::vector<double>> seq_ms(n), par_ms(n);
  Rng rng(o.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  // One round: every program with its plans on P workers and, when
  // `with_seq`, sequentially, the two legs in a seeded order. Every
  // checksum is checked; times are kept when `timed`.
  auto runRound = [&](bool timed, bool with_seq) {
    std::shuffle(order.begin(), order.end(), rng);
    bool seq_first = rng() & 1;
    for (size_t i : order) {
      Input& p = in[i];
      for (int leg = 0; leg < 2; ++leg) {
        bool seq = (leg == 0) == seq_first;
        if (seq && !with_seq) continue;
        auto t0 = Clock::now();
        InterpStats st = execute(*p.cp.program,
                                 seq ? InterpOptions{} : parallelOptions(p, P));
        double ms = msSince(t0);
        if (seq) {
          if (timed) seq_ms[i].push_back(ms);
          r.check(sameBits(st.checksum, p.ref_checksum),
                  p.name + ": sequential checksum differs from the reference");
        } else {
          if (timed) par_ms[i].push_back(ms);
          checkParallel(p, st.checksum, r);
        }
      }
    }
  };
  auto warm_end = Clock::now() + std::chrono::duration<double>(kWarmupSeconds);
  do runRound(false, false);
  while (Clock::now() < warm_end);
  auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  size_t rounds = 0;
  while (rounds < 2 || Clock::now() < deadline) {
    runRound(true, rounds % kSeqEvery == 0);
    ++rounds;
  }

  double exec_ms = 0, exec_seq_ms = 0, log_speedup = 0, exec_q25_ms = 0;
  std::vector<double> par_medians, par_q25;
  r.line("-- per program (median over " + std::to_string(rounds) +
         " parallel and " + std::to_string(seq_ms[0].size()) +
         " sequential runs, P=" + std::to_string(P) + ")");
  r.line("   program          seq_ms     par_ms   speedup");
  char buf[128];
  std::vector<size_t> by_name(n);
  for (size_t i = 0; i < n; ++i) by_name[i] = i;
  std::sort(by_name.begin(), by_name.end(),
            [&](size_t a, size_t b) { return in[a].name < in[b].name; });
  for (size_t i : by_name) {
    double s = median(seq_ms[i]), p = median(par_ms[i]);
    par_medians.push_back(p);
    par_q25.push_back(quantile(par_ms[i], 0.25));
    exec_q25_ms += par_q25.back();
    exec_ms += p;
    exec_seq_ms += s;
    log_speedup += std::log(s / p);
    std::snprintf(buf, sizeof(buf), "   %-14s %9.3f %10.3f %9.3f",
                  in[i].name.c_str(), s, p, s / p);
    r.line(buf);
  }
  // Latencies are per program, as on `compile`, but each program's time
  // is the lower quartile over the rounds: a region waits for its slowest
  // worker, so a vCPU the host lends to another tenant stalls it, and
  // such interference only ever adds time. Percentiles are over the
  // programs.
  r.metric("setup_s", setup_s, "s", kSetupReps);
  r.metric("peak_rss_mb", peakRssMb(), "MB");
  r.metric("latency_ms_p99", quantile(par_q25, 0.99), "ms", n);
  r.metric("throughput_per_s", 1e3 * n / exec_q25_ms, "1/s", n);
  r.line("-- workload metrics (not gated)");
  r.metric("exec_q25_ms", exec_q25_ms, "ms", rounds, false);
  r.metric("exec_program_ms_p50", median(par_medians), "ms", n, false);
  r.metric("exec_ms", exec_ms, "ms", rounds, false);
  r.metric("exec_seq_ms", exec_seq_ms, "ms", seq_ms[0].size(), false);
  r.metric("exec_speedup_geomean", std::exp(log_speedup / n), "ratio", n,
           false);
  r.metric("failed_share",
           r.attempted() ? double(r.failed()) / r.attempted() : 0, "ratio",
           r.attempted(), false);
}

}  // namespace perfbench
