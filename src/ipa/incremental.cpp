#include "ipa/incremental.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "driver/plan_signature.h"
#include "ipa/callgraph.h"
#include "ipa/fingerprint.h"
#include "store/deep_codec.h"
#include "support/perf_stats.h"

namespace padfa::ipa {

namespace {

/// Replay state for one analysis kind (base or pred). The two kinds run
/// concurrently over the same immutable Program; each KindState is
/// written only during single-threaded setup and then read by exactly
/// one analysis thread (plus its own `replayed` out-set).
struct KindState {
  /// Replay candidates: the store bytes of every procedure whose deep
  /// fingerprint hit.
  std::map<const ProcDecl*, std::string> bytes;
  std::set<const ProcDecl*> replayed;
};

/// The store side of compileSource's replay hook: probe the store for
/// every procedure's deep fingerprint after Sema, and persist fresh
/// records after the degradation ladder.
class StoreReplay final : public ReplayHook {
 public:
  explicit StoreReplay(store::SummaryStore& store) : store_(store) {}

  void install(const Program& program, SummaryPreload& base,
               SummaryPreload& pred) override {
    cg_ = CallGraph::build(program);
    fps_ = fingerprintProgram(program, cg_);
    prepareKind(base_, store::kDeepKindBase, program, base);
    prepareKind(pred_, store::kDeepKindPred, program, pred);
  }

  void persist(const CompiledProgram& cp) override {
    persistKind(*cp.program, cp.base, store::kDeepKindBase);
    persistKind(*cp.program, cp.pred, store::kDeepKindPred);
  }

  const CallGraph& callGraph() const { return cg_; }
  bool replayedBoth(const ProcDecl* proc) const {
    return base_.replayed.count(proc) && pred_.replayed.count(proc);
  }
  uint64_t fp_hits = 0, fp_misses = 0;

 private:
  /// Probe the store for every procedure under one kind. A record that
  /// then fails to decode against the new AST is not replayed — the
  /// procedure just stays dirty.
  void prepareKind(KindState& st, uint8_t kind, const Program& program,
                   SummaryPreload& preload) {
    for (const ProcDecl* proc : cg_.procs()) {
      auto rec = store_.getDeepProc(fps_.deep.at(proc), kind);
      if (!rec) {
        ++fp_misses;
        continue;
      }
      ++fp_hits;
      st.bytes[proc] = std::move(*rec);
      preload.replay.insert(proc);
    }
    preload.replayed = &st.replayed;
    preload.load = [&program, &st](const ProcDecl* proc, VarTable& vt,
                                   RegionSummary& out,
                                   std::vector<LoopPlan>& plans) {
      const std::string& bytes = st.bytes.at(proc);
      std::string err;
      return store::decodeDeepProc(program, *proc, bytes, vt, out, plans,
                                   err);
    };
  }

  /// Persist fresh records for procedures whose (deep_fp, kind) key is
  /// not in the store yet. encodeDeepProc is fail-soft: degraded or
  /// otherwise non-rebindable state is simply not persisted.
  void persistKind(const Program& program, const AnalysisResult& result,
                   uint8_t kind) {
    for (const ProcDecl* proc : cg_.procs()) {
      uint64_t fp = fps_.deep.at(proc);
      if (store_.getDeepProc(fp, kind)) continue;
      auto sit = result.proc_summaries.find(proc);
      if (sit == result.proc_summaries.end()) continue;
      store::DeepEncodeInput in;
      in.program = &program;
      in.proc = proc;
      in.summary = &sit->second;
      in.vars = &result.vars;
      bool complete = true;
      for (const ForStmt* loop : store::procLoopsInOrder(*proc)) {
        const LoopPlan* plan = result.planFor(loop);
        if (!plan) {
          complete = false;
          break;
        }
        in.plans.push_back(plan);
      }
      if (!complete) continue;
      std::string bytes, err;
      if (encodeDeepProc(in, bytes, err))
        store_.putDeepProc(fp, kind, std::move(bytes));
    }
  }

  store::SummaryStore& store_;
  CallGraph cg_;
  ProcFingerprints fps_;
  KindState base_, pred_;
};

/// PADFA_IPA_CHECK tripwire: byte-compare the incremental result's plan
/// signature against a cold compile of the same bytes; abort on any
/// divergence so CI catches a broken replay immediately instead of
/// serving wrong-but-plausible plans.
void checkColdEquivalence(const std::string& source,
                          const BudgetLimits& limits,
                          const CompiledProgram& incremental) {
  DiagEngine diags;
  auto cold = compileSource(source, diags, limits);
  if (!cold) {
    std::fprintf(stderr,
                 "padfa-ipa: PADFA_IPA_CHECK cold compile failed where "
                 "incremental compile succeeded\n");
    std::abort();
  }
  std::string inc_sig = planSignature(incremental);
  std::string cold_sig = planSignature(*cold);
  if (inc_sig == cold_sig) return;
  std::fprintf(stderr,
               "padfa-ipa: PADFA_IPA_CHECK divergence — incremental plan "
               "signature differs from cold run\n--- incremental ---\n%s\n"
               "--- cold ---\n%s\n",
               inc_sig.c_str(), cold_sig.c_str());
  std::abort();
}

}  // namespace

std::optional<CompiledProgram> compileSourceIncremental(
    const std::string& source, DiagEngine& diags, const BudgetLimits& limits,
    store::SummaryStore& store, IncrementalInfo* info) {
  // Replay and persist are only sound for ungoverned, cache-enabled
  // compiles (same contract as the daemon's warm path); otherwise run
  // the plain pipeline.
  if (BudgetLimits::fromEnv(limits).governed() || !cachesEnabled()) {
    auto cp = compileSource(source, diags, limits);
    if (cp && info) {
      info->procs_total = cp->program->procs.size();
      info->procs_analyzed = info->procs_total;
      for (const auto& p : cp->program->procs)
        info->dirty.emplace_back(cp->interner().str(p->name));
    }
    return cp;
  }

  StoreReplay replay(store);
  auto cp = compileSource(source, diags, limits, &replay);
  if (!cp) return std::nullopt;

  size_t replayed_both = 0;
  std::vector<std::string> dirty_names, replayed_names;
  for (const ProcDecl* proc : replay.callGraph().procs()) {
    std::string name(cp->interner().str(proc->name));
    if (replay.replayedBoth(proc)) {
      ++replayed_both;
      replayed_names.push_back(std::move(name));
    } else {
      dirty_names.push_back(std::move(name));
    }
  }

  auto& counters = PerfStats::instance().incremental;
  counters.runs.fetch_add(1, std::memory_order_relaxed);
  counters.procs_analyzed.fetch_add(dirty_names.size(),
                                    std::memory_order_relaxed);
  counters.procs_replayed.fetch_add(replayed_both,
                                    std::memory_order_relaxed);
  counters.fingerprint_hits.fetch_add(replay.fp_hits,
                                      std::memory_order_relaxed);
  counters.fingerprint_misses.fetch_add(replay.fp_misses,
                                        std::memory_order_relaxed);
  counters.last_dirty_size.store(dirty_names.size(),
                                 std::memory_order_relaxed);

  if (info) {
    info->procs_total = replay.callGraph().procs().size();
    info->procs_replayed = replayed_both;
    info->procs_analyzed = dirty_names.size();
    info->dirty = std::move(dirty_names);
    info->replayed = std::move(replayed_names);
    info->fingerprint_hits = replay.fp_hits;
    info->fingerprint_misses = replay.fp_misses;
    info->incremental = true;
  }

  const char* check = std::getenv("PADFA_IPA_CHECK");
  if (check && *check && replayed_both > 0)
    checkColdEquivalence(source, limits, *cp);

  return cp;
}

}  // namespace padfa::ipa
