// Unit tests for the interprocedural change-impact layer (src/ipa/):
// call-graph structure and closures, canonical content fingerprints,
// the deep summary codec, and end-to-end incremental replay on
// hand-written multi-procedure programs.
#include <gtest/gtest.h>

#include "driver/plan_signature.h"
#include "ipa/callgraph.h"
#include "ipa/fingerprint.h"
#include "ipa/incremental.h"
#include "ipa/ipa_export.h"
#include "store/deep_codec.h"
#include "store/summary_store.h"

namespace padfa {
namespace {

// A diamond (main -> a, b -> c) plus an orphan procedure d that nobody
// calls. c is the shared leaf whose edit must dirty everything live.
const char* kDiamond = R"(proc c(real v[n], int n) {
  for i = 0 to n - 1 {
    v[i] = v[i] + 1.0;
  }
}
proc a(real v[n], int n) {
  c(v, n);
}
proc b(real v[n], int n) {
  c(v, n);
  for i = 0 to n - 1 {
    v[i] = v[i] * 2.0;
  }
}
proc d(real v[n], int n) {
  for i = 0 to n - 1 {
    v[i] = 0.0;
  }
}
proc main() {
  real x[16];
  for i = 0 to 15 {
    x[i] = noise(i);
  }
  a(x, 16);
  b(x, 16);
  sink(x[3]);
}
)";

std::optional<CompiledProgram> compile(const std::string& src) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return cp;
}

const ProcDecl* procNamed(const Program& p, std::string_view name) {
  const ProcDecl* d = p.findProc(name);
  EXPECT_NE(d, nullptr) << name;
  return d;
}

TEST(CallGraph, DiamondStructure) {
  auto cp = compile(kDiamond);
  ASSERT_TRUE(cp);
  const Program& prog = *cp->program;
  ipa::CallGraph cg = ipa::CallGraph::build(prog);
  const ProcDecl* a = procNamed(prog, "a");
  const ProcDecl* b = procNamed(prog, "b");
  const ProcDecl* c = procNamed(prog, "c");
  const ProcDecl* d = procNamed(prog, "d");
  const ProcDecl* main_p = procNamed(prog, "main");

  ASSERT_EQ(cg.procs().size(), 5u);
  EXPECT_EQ(cg.callees(main_p), (std::vector<const ProcDecl*>{a, b}));
  EXPECT_EQ(cg.callees(a), (std::vector<const ProcDecl*>{c}));
  EXPECT_EQ(cg.callees(b), (std::vector<const ProcDecl*>{c}));
  EXPECT_TRUE(cg.callees(c).empty());
  EXPECT_TRUE(cg.callees(d).empty());
  EXPECT_EQ(cg.callers(c), (std::vector<const ProcDecl*>{a, b}));
  EXPECT_EQ(cg.callers(a), (std::vector<const ProcDecl*>{main_p}));
  EXPECT_TRUE(cg.callers(main_p).empty());
  EXPECT_EQ(cg.callSites(main_p, a), 1u);
  EXPECT_EQ(cg.callSites(a, c), 1u);
  EXPECT_EQ(cg.callSites(c, a), 0u);

  // Acyclic program: every SCC is a singleton, ids callee-before-caller.
  EXPECT_EQ(cg.sccCount(), 5u);
  EXPECT_LT(cg.sccOf(c), cg.sccOf(a));
  EXPECT_LT(cg.sccOf(c), cg.sccOf(b));
  EXPECT_LT(cg.sccOf(a), cg.sccOf(main_p));
  EXPECT_LT(cg.sccOf(b), cg.sccOf(main_p));

  auto order = cg.bottomUpOrder();
  ASSERT_EQ(order.size(), 5u);
  auto pos = [&order](const ProcDecl* p) {
    for (size_t i = 0; i < order.size(); ++i)
      if (order[i] == p) return i;
    return order.size();
  };
  EXPECT_LT(pos(c), pos(a));
  EXPECT_LT(pos(c), pos(b));
  EXPECT_LT(pos(a), pos(main_p));

  EXPECT_EQ(cg.reachableFrom(main_p),
            (std::set<const ProcDecl*>{main_p, a, b, c}));
  EXPECT_EQ(cg.reachableFrom(a), (std::set<const ProcDecl*>{a, c}));

  // Editing the shared leaf dirties both paths up to main but not the
  // orphan; editing the orphan dirties only itself.
  EXPECT_EQ(cg.ancestorClosure({c}),
            (std::set<const ProcDecl*>{c, a, b, main_p}));
  EXPECT_EQ(cg.ancestorClosure({d}), (std::set<const ProcDecl*>{d}));
  EXPECT_EQ(cg.ancestorClosure({main_p}),
            (std::set<const ProcDecl*>{main_p}));
}

// main calls p1, which is declared after it; p2 is never called. The
// analysis order is the program-order pass rule (p1, p2, main), not a
// DFS post-order (p1, main, p2). VarIds are assigned in this order, so
// the plan signature below, VRA promotion included, pins it too.
const char* kForwardCall = R"(proc main() {
  real x[192];
  for j = 0 to 191 {
    x[j] = noise(j);
  }
  p1(x, inoise(5, 1) + 64);
  sink(x[100]);
}
proc p1(real x[192], int d) {
  for i = 64 to 127 {
    x[i] = x[i - d] * 0.5;
  }
}
proc p2(real y[n], int n, int k) {
  for i = 0 to n - 1 {
    y[i] = y[i + k] + 1.0;
  }
}
)";

const char* kForwardCallSignature = R"sig(main/L3 outcome=base-parallel
  base: parallel test=T degraded=0: reason= priv=[] ps=[] co=[] red=[] syncs=[] flags=.....
  pred: parallel test=T degraded=0: reason= priv=[] ps=[] co=[] red=[] syncs=[] flags=.....
p1/L10 outcome=pred-parallel-ct
  base: sequential test=T degraded=0: reason=loop-carried dependence on array 'x' priv=[] ps=[] co=[] red=[] syncs=[] flags=.....
  pred: parallel test=(&(|A!le(i0,b0(b2(i-1,v6.1#4),i-1));A!le(i0,b0(v6.1#4,i63)););(|A!le(i0,b0(b2(i-1,v6.1#4),i63));A!le(i0,b0(v6.1#4,i-1)););) degraded=0: reason= priv=[] ps=[] co=[] red=[] syncs=[] flags=..X.. vra=promoted-parallel
p2/L15 outcome=pred-parallel-rt
  base: sequential test=T degraded=0: reason=loop-carried dependence on array 'y' priv=[] ps=[] co=[] red=[] syncs=[] flags=.....
  pred: runtime-test test=(&(|A!le(i0,b0(b0(v10.1#7,b2(i-1,v11.2#8)),i-1));A!le(i0,b0(b0(v10.1#7,v11.2#8),i-1));A!le(i0,b0(b2(i-1,v11.2#8),i-1));A!le(i0,b0(v10.1#7,i-1)););(|A!le(i0,b0(b0(v10.1#7,b2(i-1,v11.2#8)),i-1));A!le(i0,b0(b0(v10.1#7,v11.2#8),i-1));A!le(i0,b0(v10.1#7,i-1));A!le(i0,b0(v11.2#8,i-1)););) degraded=0: reason= priv=[] ps=[] co=[] red=[] syncs=[] flags=..X..
base degraded_globally=0 causes=[]
pred degraded_globally=0 causes=[]
)sig";

TEST(CallGraph, BottomUpOrderIsTheAnalysisOrder) {
  auto cp = compile(kForwardCall);
  ASSERT_TRUE(cp);
  const Program& prog = *cp->program;
  ipa::CallGraph cg = ipa::CallGraph::build(prog);
  EXPECT_EQ(cg.bottomUpOrder(),
            (std::vector<const ProcDecl*>{procNamed(prog, "p1"),
                                          procNamed(prog, "p2"),
                                          procNamed(prog, "main")}));
  EXPECT_EQ(planSignature(*cp), kForwardCallSignature);
}

TEST(Fingerprint, InsensitiveToCommentsWhitespaceAndDeclPosition) {
  auto cp1 = compile(kDiamond);
  ASSERT_TRUE(cp1);
  // Same program with comment noise, extra whitespace, and main's
  // declarations swapped (MF hoists declarations, so order inside the
  // block is semantically irrelevant — and invisible to canonical text).
  std::string noisy(kDiamond);
  noisy = "// leading comment\n" + noisy;
  size_t pos = noisy.find("real x[16];");
  ASSERT_NE(pos, std::string::npos);
  noisy.insert(pos, "// about to declare\n  ");
  noisy += "\n// trailing comment\n";
  auto cp2 = compile(noisy);
  ASSERT_TRUE(cp2);

  ipa::CallGraph cg1 = ipa::CallGraph::build(*cp1->program);
  ipa::CallGraph cg2 = ipa::CallGraph::build(*cp2->program);
  auto fp1 = ipa::fingerprintProgram(*cp1->program, cg1);
  auto fp2 = ipa::fingerprintProgram(*cp2->program, cg2);
  for (const char* name : {"a", "b", "c", "d", "main"}) {
    const ProcDecl* p1 = procNamed(*cp1->program, name);
    const ProcDecl* p2 = procNamed(*cp2->program, name);
    EXPECT_EQ(fp1.local.at(p1), fp2.local.at(p2)) << name;
    EXPECT_EQ(fp1.deep.at(p1), fp2.deep.at(p2)) << name;
  }
}

TEST(Fingerprint, DeepPropagatesToAncestorsOnly) {
  auto cp1 = compile(kDiamond);
  ASSERT_TRUE(cp1);
  std::string edited(kDiamond);
  size_t pos = edited.find("v[i] = v[i] + 1.0;");  // inside c
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 18, "v[i] = v[i] + 3.0;");
  auto cp2 = compile(edited);
  ASSERT_TRUE(cp2);

  ipa::CallGraph cg1 = ipa::CallGraph::build(*cp1->program);
  ipa::CallGraph cg2 = ipa::CallGraph::build(*cp2->program);
  auto fp1 = ipa::fingerprintProgram(*cp1->program, cg1);
  auto fp2 = ipa::fingerprintProgram(*cp2->program, cg2);
  auto local_changed = [&](const char* name) {
    return fp1.local.at(procNamed(*cp1->program, name)) !=
           fp2.local.at(procNamed(*cp2->program, name));
  };
  auto deep_changed = [&](const char* name) {
    return fp1.deep.at(procNamed(*cp1->program, name)) !=
           fp2.deep.at(procNamed(*cp2->program, name));
  };
  EXPECT_TRUE(local_changed("c"));
  EXPECT_FALSE(local_changed("a"));
  EXPECT_FALSE(local_changed("b"));
  EXPECT_FALSE(local_changed("d"));
  EXPECT_FALSE(local_changed("main"));
  // Deep fingerprints close over callees: every transitive caller of c
  // shifts, the orphan does not.
  EXPECT_TRUE(deep_changed("c"));
  EXPECT_TRUE(deep_changed("a"));
  EXPECT_TRUE(deep_changed("b"));
  EXPECT_TRUE(deep_changed("main"));
  EXPECT_FALSE(deep_changed("d"));
}

TEST(DeepCodec, RoundTripThroughEphemeralStore) {
  store::SummaryStore st("");  // ephemeral
  DiagEngine diags;
  ipa::IncrementalInfo seed;
  auto cp1 = ipa::compileSourceIncremental(kDiamond, diags,
                                           BudgetLimits::defaults(), st,
                                           &seed);
  ASSERT_TRUE(cp1.has_value()) << diags.dump();
  EXPECT_TRUE(seed.incremental);
  EXPECT_EQ(seed.procs_replayed, 0u);  // store was empty
  EXPECT_EQ(seed.procs_analyzed, 5u);

  // Every procedure must now have deep records for both kinds, and they
  // must decode against a freshly parsed program.
  DiagEngine d2;
  auto fresh = compileSource(kDiamond, d2);
  ASSERT_TRUE(fresh.has_value());
  ipa::CallGraph cg = ipa::CallGraph::build(*fresh->program);
  auto fps = ipa::fingerprintProgram(*fresh->program, cg);
  for (const ProcDecl* proc : cg.procs()) {
    for (uint8_t kind : {store::kDeepKindBase, store::kDeepKindPred}) {
      auto rec = st.getDeepProc(fps.deep.at(proc), kind);
      ASSERT_TRUE(rec.has_value())
          << fresh->interner().str(proc->name) << " kind " << int(kind);
      std::vector<LoopPlan> plans;
      VarTable vt(&fresh->program->interner);
      RegionSummary summary;
      std::string err;
      EXPECT_TRUE(store::decodeDeepProc(*fresh->program, *proc, *rec, vt,
                                        summary, plans, err))
          << err;
      EXPECT_EQ(plans.size(), store::procLoopsInOrder(*proc).size());

      // Any single-byte corruption must be rejected, never half-applied.
      std::string bad = *rec;
      bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x41);
      VarTable bad_vt(&fresh->program->interner);
      RegionSummary bad_summary;
      std::vector<LoopPlan> bad_plans;
      bool ok = store::decodeDeepProc(*fresh->program, *proc, bad, bad_vt,
                                      bad_summary, bad_plans, err);
      if (ok) continue;  // corruption may land in an unread reason byte
      EXPECT_TRUE(bad_plans.empty());
      EXPECT_TRUE(bad_summary.arrays.empty());
      EXPECT_EQ(bad_vt.size(), VarTable(&fresh->program->interner).size());
      EXPECT_FALSE(err.empty());
    }
  }

  // Truncation must always fail.
  const ProcDecl* main_p = procNamed(*fresh->program, "main");
  auto rec = st.getDeepProc(fps.deep.at(main_p), store::kDeepKindPred);
  ASSERT_TRUE(rec.has_value());
  std::string err;
  VarTable vt(&fresh->program->interner);
  RegionSummary summary;
  std::vector<LoopPlan> plans;
  EXPECT_FALSE(store::decodeDeepProc(
      *fresh->program, *main_p,
      std::string_view(rec->data(), rec->size() / 2), vt, summary, plans,
      err));
  // Binding a record to the wrong procedure must fail too.
  const ProcDecl* a = procNamed(*fresh->program, "a");
  EXPECT_FALSE(store::decodeDeepProc(*fresh->program, *a, *rec, vt, summary,
                                     plans, err));
}

TEST(Incremental, FullReplayIsByteIdenticalToCold) {
  store::SummaryStore st("");
  DiagEngine diags;
  auto seed = ipa::compileSourceIncremental(kDiamond, diags,
                                            BudgetLimits::defaults(), st);
  ASSERT_TRUE(seed.has_value());

  DiagEngine d2;
  ipa::IncrementalInfo info;
  auto warm = ipa::compileSourceIncremental(kDiamond, d2,
                                            BudgetLimits::defaults(), st,
                                            &info);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(info.procs_replayed, 5u);
  EXPECT_EQ(info.procs_analyzed, 0u);
  EXPECT_TRUE(info.dirty.empty());

  DiagEngine d3;
  auto cold = compileSource(kDiamond, d3);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(planSignature(*warm), planSignature(*cold));
  EXPECT_EQ(renderPlanReport(*warm), renderPlanReport(*cold));
}

TEST(Incremental, LeafEditReanalyzesExactlyTheAncestorClosure) {
  store::SummaryStore st("");
  DiagEngine diags;
  auto seed = ipa::compileSourceIncremental(kDiamond, diags,
                                            BudgetLimits::defaults(), st);
  ASSERT_TRUE(seed.has_value());

  std::string edited(kDiamond);
  size_t pos = edited.find("v[i] = v[i] + 1.0;");  // inside c
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 18, "v[i] = v[i] + 3.0;");

  DiagEngine d2;
  ipa::IncrementalInfo info;
  auto inc = ipa::compileSourceIncremental(edited, d2,
                                           BudgetLimits::defaults(), st,
                                           &info);
  ASSERT_TRUE(inc.has_value());
  // Dirty = c plus its transitive callers (program order: c, a, b,
  // main); the orphan d replays.
  EXPECT_EQ(info.dirty,
            (std::vector<std::string>{"c", "a", "b", "main"}));
  EXPECT_EQ(info.replayed, (std::vector<std::string>{"d"}));

  DiagEngine d3;
  auto cold = compileSource(edited, d3);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(planSignature(*inc), planSignature(*cold));
}

TEST(Incremental, GovernedBudgetBypassesReplay) {
  store::SummaryStore st("");
  DiagEngine diags;
  auto seed = ipa::compileSourceIncremental(kDiamond, diags,
                                            BudgetLimits::defaults(), st);
  ASSERT_TRUE(seed.has_value());

  BudgetLimits governed;
  governed.deadline_seconds = 3600;  // finite => governed, never fires
  DiagEngine d2;
  ipa::IncrementalInfo info;
  auto cp = ipa::compileSourceIncremental(kDiamond, d2, governed, st, &info);
  ASSERT_TRUE(cp.has_value());
  EXPECT_FALSE(info.incremental);
  EXPECT_EQ(info.procs_analyzed, info.procs_total);
}

TEST(IpaExport, DeterministicDotAndJson) {
  auto cp = compile(kDiamond);
  ASSERT_TRUE(cp);
  ipa::CallGraph cg = ipa::CallGraph::build(*cp->program);
  auto fps = ipa::fingerprintProgram(*cp->program, cg);
  std::string dot = ipa::callGraphToDot(cg, fps, *cp->program);
  std::string json = ipa::callGraphToJson(cg, fps, *cp->program);
  // Determinism: a second build renders byte-identically.
  ipa::CallGraph cg2 = ipa::CallGraph::build(*cp->program);
  auto fps2 = ipa::fingerprintProgram(*cp->program, cg2);
  EXPECT_EQ(dot, ipa::callGraphToDot(cg2, fps2, *cp->program));
  EXPECT_EQ(json, ipa::callGraphToJson(cg2, fps2, *cp->program));
  // Structure smoke: edges and SCC clusters are present.
  EXPECT_NE(dot.find("\"main\" -> \"a\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("subgraph cluster_scc0"), std::string::npos);
  EXPECT_NE(json.find("\"bottom_up\": "), std::string::npos);
  EXPECT_NE(json.find("\"callees\": [{\"name\": \"c\", \"sites\": 1}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace padfa
