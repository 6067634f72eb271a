// `compile` workload: every corpus program at scale 1, in seed-shuffled
// order, one at a time, as separate `mfc report` processes would see
// them (the feasibility cache is cleared before each program). Each
// program is compiled with compileSource, then verified by the two
// static legs: auditPlans, then buildPdg + certifyPlans +
// crossCheckCertification.
#include <algorithm>
#include <memory>
#include <optional>

#include "audit/plan_audit.h"
#include "bench.h"
#include "corpus/corpus.h"
#include "dataflow/doacross.h"
#include "dataflow/vra_promote.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "pdg/certify.h"
#include "pdg/pdg.h"
#include "presburger/feasibility_cache.h"
#include "support/perf_stats.h"
#include "trace.h"
#include "vra/vra.h"

namespace perfbench {
namespace {

using namespace padfa;

struct Input {
  std::string name;
  std::string source;
  std::string signature;  // reference, from set-up
};

struct Verdict {
  size_t loops_audited = 0;
  size_t pairs_tested = 0;
  size_t unsound = 0;
  size_t disagreements = 0;
};

Verdict verify(const CompiledProgram& cp) {
  Verdict v;
  DiagEngine diags;
  AuditReport audit;
  {
    Span s("audit.plan_audit");
    audit = auditPlans(*cp.program, cp.pred, diags);
  }
  ProgramPdg pdg;
  {
    Span s("pdg.build");
    pdg = buildPdg(*cp.program, cp.loops);
  }
  Span s("pdg.certify");
  CertifyReport cert = certifyPlans(*cp.program, cp.pred, cp.loops, pdg);
  v.disagreements = cert.count(CertifyVerdict::Disagree) +
                    crossCheckCertification(*cp.program, cert, audit).size();
  v.loops_audited = audit.auditedCount();
  v.unsound = audit.count(AuditVerdict::Unsound);
  for (const LoopAudit& la : audit.loops) v.pairs_tested += la.pairs_tested;
  return v;
}

/// compileSource's layers called one after another, each under its own
/// span (compileSource itself runs the two analyses concurrently).
std::optional<CompiledProgram> compileByLayer(const std::string& source) {
  DiagEngine diags;
  std::unique_ptr<Program> prog;
  {
    Span s("lang.parse");
    prog = parseProgram(source, diags);
  }
  if (!prog) return std::nullopt;
  {
    Span s("lang.sema");
    if (!analyze(*prog, diags)) return std::nullopt;
  }
  CompiledProgram cp;
  {
    Span s("ir.loop_tree");
    cp.loops = LoopTree::build(*prog);
  }
  {
    Span s("dataflow.base");
    cp.base = analyzeProgram(*prog, AnalysisConfig::baseline());
  }
  {
    Span s("dataflow.pred");
    cp.pred = analyzeProgram(*prog, AnalysisConfig::predicated());
  }
  std::unique_ptr<vra::RangeAnalysis> ranges;
  if (vra::vraEnabled()) {
    Span s("vra.fixpoint");
    ranges = std::make_unique<vra::RangeAnalysis>(*prog);
  }
  const vra::RangeAnalysis* rp =
      ranges && ranges->enabled() ? ranges.get() : nullptr;
  {
    Span s("dataflow.doacross");
    upgradeDoacrossPlans(*prog, cp.pred, rp);
  }
  if (rp) {
    Span s("dataflow.vra_promote");
    applyVraPromotions(*prog, cp.pred, *rp);
  }
  cp.program = std::move(prog);
  return cp;
}

std::vector<Input> makeInputs(uint64_t seed) {
  std::vector<Input> in;
  for (const CorpusEntry& e : corpus())
    in.push_back({e.name, instantiate(e), {}});
  Rng rng(seed);
  std::shuffle(in.begin(), in.end(), rng);
  return in;
}

/// Reference signatures: one cold compile per program.
void computeReferences(std::vector<Input>& in) {
  for (Input& p : in) {
    pb::FeasibilityCache::global().clear();
    DiagEngine diags;
    auto cp = compileSource(p.source, diags);
    if (!cp) throw std::runtime_error("corpus program " + p.name +
                                      " does not compile");
    p.signature = planSignature(*cp);
  }
}

void tracedPass(const std::vector<Input>& in, Report& r) {
  PerfStats::instance().resetAll();
  Verdict total;
  size_t loops[5] = {0, 0, 0, 0, 0};
  size_t degraded = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    Span root("bench.program", static_cast<int64_t>(i));
    pb::FeasibilityCache::global().clear();
    auto cp = compileByLayer(in[i].source);
    r.check(cp && planSignature(*cp) == in[i].signature,
            "layer-by-layer compile of " + in[i].name +
                " differs from its reference signature");
    if (!cp) continue;
    for (const auto& [loop, plan] : cp->pred.plans) {
      switch (plan.status) {
        case LoopStatus::Parallel: ++loops[0]; break;
        case LoopStatus::RuntimeTest: ++loops[1]; break;
        case LoopStatus::Doacross: ++loops[2]; break;
        case LoopStatus::Sequential: ++loops[3]; break;
        default: break;
      }
    }
    degraded += cp->base.degradedCount() + cp->pred.degradedCount();
    Verdict v = verify(*cp);
    total.loops_audited += v.loops_audited;
    total.pairs_tested += v.pairs_tested;
    total.unsound += v.unsound;
    total.disagreements += v.disagreements;
    r.check(v.unsound == 0 && v.disagreements == 0,
            "verification of " + in[i].name + " is not clean");
  }
  reportAnalysisCounters(r);
  r.metric("dataflow.loops_parallel", static_cast<double>(loops[0]), "count");
  r.metric("dataflow.loops_runtime_test", static_cast<double>(loops[1]),
           "count");
  r.metric("dataflow.loops_doacross", static_cast<double>(loops[2]), "count");
  r.metric("dataflow.loops_sequential", static_cast<double>(loops[3]), "count");
  r.metric("dataflow.loops_degraded", static_cast<double>(degraded), "count");
  r.metric("audit.loops_audited", static_cast<double>(total.loops_audited),
           "count");
  r.metric("audit.pairs_tested", static_cast<double>(total.pairs_tested),
           "count");
  r.metric("audit.unsound", static_cast<double>(total.unsound), "count");
  r.metric("pdg.disagreements", static_cast<double>(total.disagreements),
           "count");

  // compileSource as a user calls it, against the sum of its layers.
  for (size_t i = 0; i < in.size(); ++i) {
    Span root("bench.program", static_cast<int64_t>(i));
    pb::FeasibilityCache::global().clear();
    DiagEngine diags;
    std::optional<CompiledProgram> cp;
    {
      Span s("driver.compile");
      cp = compileSource(in[i].source, diags);
    }
    r.check(cp && planSignature(*cp) == in[i].signature,
            "compileSource of " + in[i].name + " differs from its reference");
  }
}

// Set-up compiles the corpus once (~70 ms), short enough for a burst of
// host noise to move one repetition by half; the median of many is
// steady.
constexpr int kSetupReps = 60;

}  // namespace

void runCompile(const Options& o, Report& r) {
  std::vector<Input> in;
  double setup_s = medianSetupSeconds(kSetupReps, [&] {
    in = makeInputs(o.seed);
    computeReferences(in);
  });
  if (o.forge) in[0].signature += "forged";

  if (o.trace) {
    // The same pass untraced and traced, five times each in alternating
    // order; the ratio of the median wall times is the recorder's
    // overhead. Spans and metrics are those of the last traced pass.
    Tracer& t = Tracer::instance();
    std::vector<double> plain_ms, traced_ms;
    for (int k = 0; k < 10; ++k) {
      bool traced = (k % 2 == 1) == ((k / 2) % 2 == 0);
      bool last = k == 9;
      Report quiet(true);
      t.clear();
      t.setEnabled(traced);
      auto t0 = Clock::now();
      tracedPass(in, last ? r : quiet);
      (traced ? traced_ms : plain_ms).push_back(msSince(t0));
      t.setEnabled(false);
      r.mergeChecks(quiet);
    }
    auto tot = t.totals();
    auto self = [&](const char* n) { return tot[n].self_ms; };
    for (const char* n :
         {"lang.parse", "lang.sema", "ir.loop_tree", "dataflow.base",
          "dataflow.pred", "dataflow.doacross", "dataflow.vra_promote",
          "vra.fixpoint", "driver.compile", "audit.plan_audit", "pdg.build",
          "pdg.certify"})
      r.metric(std::string(n) + "_ms", self(n), "ms");
    double layers = 0;
    for (const char* n : {"lang.parse", "lang.sema", "ir.loop_tree",
                          "dataflow.base", "dataflow.pred", "vra.fixpoint",
                          "dataflow.doacross", "dataflow.vra_promote"})
      layers += self(n);
    r.metric("driver.overlap_ratio",
             self("driver.compile") > 0 ? layers / self("driver.compile") : 0,
             "ratio");
    r.metric("bench.trace_overhead", median(traced_ms) / median(plain_ms),
             "ratio", traced_ms.size());
    return;
  }

  std::vector<std::vector<double>> compile_ms(in.size()), verify_ms(in.size());
  Rng rng(o.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<size_t> order(in.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  size_t rounds = 0;
  while (rounds < 2 || Clock::now() < deadline) {
    for (size_t i : order) {
      const Input& p = in[i];
      pb::FeasibilityCache::global().clear();
      DiagEngine diags;
      auto t0 = Clock::now();
      auto cp = compileSource(p.source, diags);
      double c_ms = msSince(t0);
      bool same = cp && planSignature(*cp) == p.signature;
      r.check(same, "signature of " + p.name + " differs from its reference");
      if (!cp) continue;
      t0 = Clock::now();
      Verdict v = verify(*cp);
      verify_ms[i].push_back(msSince(t0));
      r.check(v.unsound == 0 && v.disagreements == 0,
              "verification of " + p.name + " is not clean");
      compile_ms[i].push_back(c_ms);
    }
    std::shuffle(order.begin(), order.end(), rng);
    ++rounds;
  }

  // Latencies are per program: each program's median over the rounds,
  // then percentiles over the programs.
  std::vector<double> compile_med = medians(compile_ms);
  std::vector<double> verify_med = medians(verify_ms);
  double corpus_ms = 0;
  for (double x : compile_med) corpus_ms += x;
  size_t n = in.size();
  double per_s = 1e3 * n / corpus_ms;
  r.metric("setup_s", setup_s, "s", kSetupReps);
  r.metric("peak_rss_mb", peakRssMb(), "MB");
  r.metric("latency_ms_p99", quantile(compile_med, 0.99), "ms", n);
  r.metric("throughput_per_s", per_s, "1/s", n);
  r.line("-- workload metrics, not gated (" + std::to_string(rounds) +
         " rounds; percentiles over the per-program medians)");
  r.metric("compile_ms_p50", median(compile_med), "ms", n, false);
  r.metric("compile_ms_p99", quantile(compile_med, 0.99), "ms", n, false);
  r.metric("compile_programs_per_s", per_s, "1/s", n, false);
  r.metric("compile_corpus_ms", corpus_ms, "ms", rounds, false);
  r.metric("verify_ms_p50", median(verify_med), "ms", n, false);
  r.metric("verify_ms_p99", quantile(verify_med, 0.99), "ms", n, false);
  r.metric("failed_share",
           r.attempted() ? double(r.failed()) / r.attempted() : 0, "ratio",
           r.attempted(), false);
}

}  // namespace perfbench
