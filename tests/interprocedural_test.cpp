// Interprocedural analysis tests: summary translation across calls,
// scalar formal substitution, reshape, aliased actuals, predicate
// translation, and multi-level call chains.
#include <gtest/gtest.h>

#include "driver/padfa.h"

namespace padfa {
namespace {

CompiledProgram compileOk(std::string_view src) {
  DiagEngine diags;
  auto cp = compileSource(std::string(src), diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return std::move(*cp);
}

LoopStatus predStatusAt(const CompiledProgram& cp, uint32_t line) {
  for (const auto& [loop, plan] : cp.pred.plans)
    if (loop->loc.line == line) return plan.status;
  ADD_FAILURE() << "no loop at line " << line;
  return LoopStatus::NotCandidate;
}

LoopStatus baseStatusAt(const CompiledProgram& cp, uint32_t line) {
  for (const auto& [loop, plan] : cp.base.plans)
    if (loop->loc.line == line) return plan.status;
  ADD_FAILURE() << "no loop at line " << line;
  return LoopStatus::NotCandidate;
}

TEST(Interproc, CalleeWritesTranslateToDisjointActualSections) {
  // setrow writes row `r` of the grid; the caller loop passes disjoint
  // rows, so the loop is parallel — provable only by translating the
  // callee's section through the formal->actual scalar mapping.
  auto cp = compileOk(R"(
proc setrow(real g[64, 64], int r, int seed) {
  for j = 0 to 63 { g[r, j] = noise(seed + j); }
}
proc main() {
  real grid[64, 64];
  for i = 0 to 63 {
    setrow(grid, i, i * 64);
  }
  sink(grid[5, 5]);
}
)");
  EXPECT_EQ(baseStatusAt(cp, 7), LoopStatus::Parallel);
}

TEST(Interproc, OverlappingCalleeWritesStaySequential) {
  // Every call writes row 0: cross-iteration output dependence through
  // the call. (Privatizing a formal's target is not attempted across
  // calls when coverage cannot be shown per iteration.)
  auto cp = compileOk(R"(
proc setrow(real g[64, 64], int r, int seed) {
  for j = 0 to 63 { g[r, j] = noise(seed + j); }
}
proc main() {
  real grid[64, 64];
  for i = 0 to 63 {
    setrow(grid, 0, i);
  }
  sink(grid[0, 5]);
}
)");
  // Writes to the same row by all iterations: must-write coverage exists
  // (the callee writes the full row unconditionally), so privatization
  // with copy-out applies — matching direct-code behavior.
  for (const auto& [loop, plan] : cp.base.plans) {
    if (loop->loc.line != 7) continue;
    if (plan.status == LoopStatus::Parallel) {
      EXPECT_FALSE(plan.privatized.empty());
    }
  }
}

TEST(Interproc, NonAffineActualKillsPrecision) {
  // The row index is data-dependent (inoise): the formal's section
  // cannot be translated, so the write is approximated and the loop
  // stays sequential in both systems.
  auto cp = compileOk(R"(
proc setrow(real g[64, 64], int r, int seed) {
  for j = 0 to 63 { g[r, j] = noise(seed + j); }
}
proc main() {
  real grid[64, 64];
  for i = 0 to 63 {
    setrow(grid, inoise(i, 64), i);
  }
  sink(grid[0, 5]);
}
)");
  EXPECT_EQ(predStatusAt(cp, 7), LoopStatus::Sequential);
}

TEST(Interproc, TwoLevelCallChain) {
  auto cp = compileOk(R"(
proc inner(real v[n], int n, int seed) {
  for q = 0 to n - 1 { v[q] = noise(seed + q); }
}
proc outer(real v[n], int n, int seed) {
  inner(v, n, seed);
}
proc main() {
  real out[40];
  real help[16];
  for i = 0 to 39 {
    outer(help, 16, i);
    real s; s = 0.0;
    for j = 0 to 15 { s = s + help[j]; }
    out[i] = s;
  }
  sink(out[3]);
}
)");
  // The must-write of `inner` must survive two translations for the
  // privatization of `help` in main's loop.
  for (const auto& [loop, plan] : cp.base.plans) {
    if (loop->loc.line != 10) continue;
    EXPECT_EQ(plan.status, LoopStatus::Parallel) << plan.reason;
    EXPECT_EQ(plan.privatized.size(), 1u);
  }
}

TEST(Interproc, AliasedActualsAreMergedConservatively) {
  // Passing the same array for both formals: writes through `dst` and
  // reads through `src` alias. The translated summary merges both onto
  // the same actual, creating a (true) dependence.
  auto cp = compileOk(R"(
proc shift(real dst[n], real src[n], int n) {
  for q = 1 to n - 1 { dst[q] = src[q - 1]; }
}
proc main() {
  real a[64];
  for j = 0 to 63 { a[j] = noise(j); }
  for i = 0 to 9 {
    shift(a, a, 64);
  }
  sink(a[10]);
}
)");
  EXPECT_EQ(predStatusAt(cp, 8), LoopStatus::Sequential);
}

TEST(Interproc, GuardedFullCoverageThroughCallPrivatizesCT) {
  // The callee's conditional whole-array write translates as a guarded
  // must-write; predicated subtraction shows the exposed remainder is
  // read-only pre-loop data, so copy-in privatization wins at compile
  // time (no run-time test needed).
  auto cp = compileOk(R"(
proc maybefill(real v[n], int n, int go, int seed) {
  if (go > 0) {
    for q = 0 to n - 1 { v[q] = noise(seed + q); }
  }
}
proc main() {
  int flag; flag = inoise(3, 1);
  real out[40];
  real buf[64];
  for j = 0 to 63 { buf[j] = noise(j); }
  for i = 1 to 39 {
    maybefill(buf, 64, flag, i);
    out[i] = buf[i - 1];
  }
  sink(out[7]);
}
)");
  for (const auto& [loop, plan] : cp.pred.plans) {
    if (loop->loc.line != 12) continue;
    EXPECT_EQ(plan.status, LoopStatus::Parallel) << plan.reason;
    ASSERT_EQ(plan.privatized.size(), 1u);
    EXPECT_TRUE(plan.privatized[0].copy_in);
  }
}

TEST(Interproc, PredicateGuardsTranslateThroughCalls) {
  // Single-element guarded write through a call plus a shifted read: the
  // dependence exists only when the flag is set. The callee's guard `go >
  // 0` must be rewritten to the actual `flag` for the run-time test.
  auto cp = compileOk(R"(
proc maybeset(real v[n], int n, int go, int at, real val) {
  if (go > 0) { v[at] = val; }
}
proc main() {
  int flag; flag = inoise(3, 2);
  real out[40];
  real buf[64];
  for j = 0 to 63 { buf[j] = noise(j); }
  for i = 1 to 39 {
    maybeset(buf, 64, flag, i, noise(i));
    out[i] = buf[i - 1];
  }
  sink(out[7]);
}
)");
  for (const auto& [loop, plan] : cp.pred.plans) {
    if (loop->loc.line != 10) continue;
    ASSERT_EQ(plan.status, LoopStatus::RuntimeTest) << plan.reason;
    std::string test = plan.runtime_test.str(cp.interner());
    EXPECT_NE(test.find("flag"), std::string::npos) << test;
  }
}

TEST(Interproc, ReshapeWholeArrayCoverage) {
  // 1-D formal over a 2-D actual with a constant matching size: the
  // Reshape predicate folds to true and must-write coverage survives,
  // privatizing the grid in the caller's loop.
  auto cp = compileOk(R"(
proc fill1d(real v[len], int len, int seed) {
  for q = 0 to len - 1 { v[q] = noise(seed + q); }
}
proc main() {
  real g[4, 8];
  real out[30];
  for i = 0 to 29 {
    fill1d(g, 32, i);
    real s; s = 0.0;
    for r = 0 to 3 {
      for c = 0 to 7 { s = s + g[r, c]; }
    }
    out[i] = s;
  }
  sink(out[2]);
}
)");
  for (const auto& [loop, plan] : cp.pred.plans) {
    if (loop->loc.line != 8) continue;
    EXPECT_TRUE(plan.status == LoopStatus::Parallel ||
                plan.status == LoopStatus::RuntimeTest)
        << plan.reason;
  }
}

TEST(Interproc, CalleeSinkMakesLoopNotCandidate) {
  auto cp = compileOk(R"(
proc report(real x) { sink(x); }
proc main() {
  real a[10];
  for i = 0 to 9 {
    a[i] = noise(i);
    report(a[i]);
  }
}
)");
  EXPECT_EQ(predStatusAt(cp, 5), LoopStatus::NotCandidate);
}

TEST(Interproc, TransitiveCalleeSinkMakesLoopNotCandidate) {
  // The sink sits two calls below the first loop (main -> mid -> report
  // -> sink), so it reaches the loop only through mid's summary. The
  // second loop's two-level chain never sinks and stays a candidate.
  auto cp = compileOk(R"(
proc report(real x) { sink(x); }
proc mid(real x) { report(x); }
proc leaf(real v[4]) { v[0] = 1.0; }
proc wrap(real v[4]) { leaf(v); }
proc main() {
  real a[10];
  real b[4];
  for i = 0 to 9 {
    a[i] = noise(i);
    mid(a[i]);
  }
  for i = 0 to 3 { wrap(b); }
}
)");
  EXPECT_EQ(baseStatusAt(cp, 9), LoopStatus::NotCandidate);
  EXPECT_EQ(predStatusAt(cp, 9), LoopStatus::NotCandidate);
  EXPECT_NE(predStatusAt(cp, 13), LoopStatus::NotCandidate);
}

TEST(Interproc, ExecutionMatchesAcrossAllCases) {
  // Each scenario above must also run correctly under the derived plans.
  const char* src = R"(
proc setrow(real g[32, 32], int r, int seed) {
  for j = 0 to 31 { g[r, j] = noise(seed + j); }
}
proc maybefill(real v[n], int n, int go, int seed) {
  if (go > 0) {
    for q = 0 to n - 1 { v[q] = noise(seed + q); }
  }
}
proc main() {
  int flag; flag = inoise(3, 1);
  real grid[32, 32];
  real buf[64];
  real out[32];
  for j = 0 to 63 { buf[j] = noise(j); }
  for i = 0 to 31 {
    setrow(grid, i, i * 32);
  }
  for i = 1 to 31 {
    maybefill(buf, 64, flag, i);
    out[i] = buf[i - 1] + grid[i, 3];
  }
  real chk; chk = 0.0;
  for i = 0 to 31 { chk = chk + out[i]; }
  sink(chk);
}
)";
  auto cp = compileOk(src);
  InterpStats seq = execute(*cp.program, {});
  InterpOptions opt;
  opt.plans = &cp.pred;
  opt.num_threads = 4;
  InterpStats par = execute(*cp.program, opt);
  EXPECT_NEAR(par.checksum, seq.checksum,
              1e-9 * (std::abs(seq.checksum) + 1.0));
}

}  // namespace
}  // namespace padfa
