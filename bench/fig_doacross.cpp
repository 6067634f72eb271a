// Experiment E12 — Doacross pipelining and the loop scheduler.
//
// Two questions, one harness:
//
//  1. Do the loops the Doacross upgrade rescues from Sequential actually
//     gain from pipelined execution? For every corpus loop planned
//     Doacross: sync requirements before/after redundant-sync
//     elimination, the loop's sequential vs pipelined simulated
//     4-processor time (per-loop profiles), and the resulting speedup.
//     Correctness-shaped: the harness aborts unless at least 3 loops
//     speed up, the PlanAuditor certifies every Doacross plan, and the
//     race oracle observes zero violations — a "speedup" on an
//     uncertified plan would be racing, not pipelining.
//
//  2. Does the work-stealing scheduler earn its keep? A triangular DOALL
//     microbenchmark (iteration i costs O(i)) is timed under every
//     scheduling policy; static's contiguous split eats the imbalance
//     (its last worker owns the heaviest quarter), so guided/steal must
//     beat it on the simulated makespan.
//
// Invoke with `--json <path>` for the machine-readable point committed
// under bench/trajectory/.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "bench_util.h"
#include "support/table.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

constexpr unsigned kThreads = 4;

struct DoacrossLoopRow {
  std::string program;
  std::string loop_id;
  uint32_t line = 0;
  int syncs_total = 0;
  int syncs_kept = 0;
  double seq_seconds = 0;
  double doa_seconds = 0;
  double speedup = 0;
};

/// Per-loop simulated-seconds profile of one full-program run.
std::map<const ForStmt*, LoopProfile> profileRun(const CompiledProgram& cp,
                                                 const AnalysisResult* plans) {
  InterpOptions opt;
  opt.plans = plans;
  opt.num_threads = plans ? kThreads : 1;
  opt.profile = true;
  return execute(*cp.program, opt).profiles;
}

const char* kTriangular = R"(
proc main() {
  real t[512, 512];
  for i = 0 to 511 {
    for j = 0 to i { t[i, j] = noise(i * 512 + j) * 0.5; }
  }
  sink(t[400, 200]);
}
)";

constexpr int kSchedReps = 9;

double timeTriangular(const CompiledProgram& cp, SchedPolicy pol) {
  // Median of kSchedReps: the simulated makespan is max-over-workers busy
  // time, which one preempted worker can inflate in any single run.
  std::vector<double> seconds;
  for (int rep = 0; rep < kSchedReps; ++rep) {
    InterpOptions opt;
    opt.plans = &cp.pred;
    opt.num_threads = kThreads;
    opt.sched = pol;
    seconds.push_back(execute(*cp.program, opt).simulated_seconds);
  }
  std::nth_element(seconds.begin(), seconds.begin() + kSchedReps / 2,
                   seconds.end());
  return seconds[kSchedReps / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = extractJsonFlag(&argc, argv);
  int scale = 4;
  for (int i = 1; i < argc; ++i)
    if (std::isdigit(static_cast<unsigned char>(argv[i][0])))
      scale = std::atoi(argv[i]);

  // ---- part 1: corpus Doacross loops ------------------------------
  std::vector<DoacrossLoopRow> rows;
  int unsound = 0, uncertified = 0;
  uint64_t violations = 0;
  for (const CorpusEntry& e : corpus()) {
    CompiledProgram cp = compileOrDie(e, scale);
    bool any_doacross = false;
    for (const auto& [loop, plan] : cp.pred.plans)
      any_doacross |= plan.status == LoopStatus::Doacross;
    if (!any_doacross) continue;

    // Static certification: every Doacross plan must come back
    // discharged-by-sync (or better).
    DiagEngine diags;
    AuditReport audit = auditPlans(*cp.program, cp.pred, diags);
    std::map<const ForStmt*, const LoopAudit*> audit_of;
    for (const auto& la : audit.loops) audit_of[la.loop] = &la;
    unsound += static_cast<int>(audit.count(AuditVerdict::Unsound));

    // Dynamic certification: zero violations modulo the declared syncs.
    RaceOracle oracle(*cp.program, cp.pred);
    InterpOptions ropt;
    ropt.plans = &cp.pred;
    ropt.race = &oracle;
    execute(*cp.program, ropt);
    violations += oracle.violationCount();

    auto seq = profileRun(cp, nullptr);
    auto par = profileRun(cp, &cp.pred);
    for (const LoopNode* node : cp.loops.allLoops()) {
      const LoopPlan* plan = cp.pred.planFor(node->loop);
      if (!plan || plan->status != LoopStatus::Doacross) continue;
      const LoopAudit* la = audit_of.count(node->loop)
                                ? audit_of[node->loop]
                                : nullptr;
      if (!la || (la->verdict != AuditVerdict::DischargedSync &&
                  la->verdict != AuditVerdict::Independent))
        ++uncertified;
      DoacrossLoopRow r;
      r.program = e.name;
      r.loop_id = node->loop->loop_id;
      r.line = node->loop->loc.line;
      r.syncs_total = static_cast<int>(plan->syncs.size());
      r.syncs_kept = static_cast<int>(plan->keptSyncCount());
      r.seq_seconds = seq[node->loop].simulated_seconds;
      r.doa_seconds = par[node->loop].simulated_seconds;
      r.speedup = r.doa_seconds > 0 ? r.seq_seconds / r.doa_seconds : 0;
      rows.push_back(std::move(r));
    }
  }

  TextTable table({"program", "loop", "syncs", "seq (s)", "doacross (s)",
                   "speedup"});
  int sped_up = 0;
  for (const auto& r : rows) {
    if (r.speedup > 1.0) ++sped_up;
    table.addRow({r.program, r.loop_id,
                  std::to_string(r.syncs_total) + "->" +
                      std::to_string(r.syncs_kept),
                  fmtDouble(r.seq_seconds, 4), fmtDouble(r.doa_seconds, 4),
                  fmtDouble(r.speedup, 2)});
  }
  std::printf("Figure: Doacross pipelining, sequential vs %u-processor "
              "simulated time (scale %d)\n%s\n",
              kThreads, scale, table.render().c_str());
  std::printf("%d/%zu doacross loops speed up; auditor: %d unsound, %d "
              "uncertified; race oracle: %llu violations\n\n",
              sped_up, rows.size(), unsound, uncertified,
              static_cast<unsigned long long>(violations));

  // ---- part 2: triangular scheduler microbenchmark ----------------
  DiagEngine tdiags;
  auto tri = compileSource(kTriangular, tdiags);
  if (!tri) {
    std::fprintf(stderr, "triangular microbench failed to compile:\n%s\n",
                 tdiags.dump().c_str());
    return 1;
  }
  const SchedPolicy policies[] = {SchedPolicy::Static, SchedPolicy::Dynamic,
                                  SchedPolicy::Guided, SchedPolicy::Steal};
  std::map<SchedPolicy, double> sched_seconds;
  TextTable sched_table({"policy", "simulated (s)", "vs static"});
  for (SchedPolicy pol : policies) sched_seconds[pol] = timeTriangular(*tri, pol);
  for (SchedPolicy pol : policies)
    sched_table.addRow({schedPolicyName(pol),
                        fmtDouble(sched_seconds[pol], 4),
                        fmtDouble(sched_seconds[SchedPolicy::Static] /
                                      sched_seconds[pol], 2)});
  std::printf("Triangular DOALL (iteration i costs O(i)), %u workers, "
              "median of %d runs:\n%s\n",
              kThreads, kSchedReps, sched_table.render().c_str());

  const double best_balanced = std::min(sched_seconds[SchedPolicy::Guided],
                                        sched_seconds[SchedPolicy::Steal]);
  const bool sched_wins = best_balanced < sched_seconds[SchedPolicy::Static];
  std::printf("load-aware scheduling %s static's contiguous split\n",
              sched_wins ? "beats" : "DOES NOT beat");

  // ---- machine-readable point -------------------------------------
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"doacross\",\n");
    std::fprintf(f, "  \"threads\": %u,\n  \"scale\": %d,\n", kThreads, scale);
    std::fprintf(f, "  \"loops\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"program\": \"%s\", \"loop\": \"%s\", \"line\": %u, "
                   "\"syncs_total\": %d, \"syncs_kept\": %d, "
                   "\"seq_seconds\": %.6f, \"doacross_seconds\": %.6f, "
                   "\"speedup\": %.3f}%s\n",
                   r.program.c_str(), r.loop_id.c_str(), r.line, r.syncs_total,
                   r.syncs_kept, r.seq_seconds, r.doa_seconds, r.speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"loops_speedup_gt1\": %d,\n", sped_up);
    std::fprintf(f, "  \"audit_unsound\": %d,\n", unsound);
    std::fprintf(f, "  \"audit_uncertified\": %d,\n", uncertified);
    std::fprintf(f, "  \"oracle_violations\": %llu,\n",
                 static_cast<unsigned long long>(violations));
    std::fprintf(f, "  \"sched\": {");
    bool first = true;
    for (SchedPolicy pol : policies) {
      std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ",
                   schedPolicyName(pol), sched_seconds[pol]);
      first = false;
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"sched_beats_static\": %s\n",
                 sched_wins ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Correctness-shaped exit: pipelined parallelism that is unsound,
  // racy, or pure overhead is a regression, not a data point.
  if (unsound > 0 || uncertified > 0 || violations > 0) {
    std::fprintf(stderr, "FAIL: doacross plans not certified clean\n");
    return 1;
  }
  if (sped_up < 3) {
    std::fprintf(stderr, "FAIL: fewer than 3 doacross loops speed up\n");
    return 1;
  }
  if (!sched_wins) {
    std::fprintf(stderr,
                 "FAIL: guided/steal no better than static on the "
                 "imbalanced triangular loop\n");
    return 1;
  }
  return 0;
}
