// Deeper MF semantics tests: scoping, return, intrinsic edge cases,
// negative steps, copy-out scalars, reduction identities, runtime
// statistics, and faults raised inside parallel regions.
#include <gtest/gtest.h>

#include <cmath>

#include "audit/race_oracle.h"
#include "dataflow/analysis.h"
#include "driver/padfa.h"
#include "interp/interp.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "predicate/pred.h"
#include "runtime/elpd.h"

namespace padfa {
namespace {

struct Prog {
  std::unique_ptr<Program> program;
  AnalysisResult pred;
};

Prog build(std::string_view src) {
  Prog p;
  DiagEngine diags;
  p.program = parseProgram(src, diags);
  EXPECT_NE(p.program, nullptr) << diags.dump();
  if (!p.program) return p;
  EXPECT_TRUE(analyze(*p.program, diags)) << diags.dump();
  p.pred = analyzeProgram(*p.program, AnalysisConfig::predicated());
  return p;
}

double checksum(std::string_view src) {
  Prog p = build(src);
  return execute(*p.program, {}).checksum;
}

TEST(Semantics, BlockScopedDeclsResetPerIteration) {
  // `t` is re-declared (and zero-initialized) every iteration.
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real total; total = 0.0;
  for i = 0 to 4 {
    real t;
    t = t + 1.0;
    total = total + t;
  }
  sink(total);
}
)"),
                   5.0);
}

TEST(Semantics, DeclInitializersEvaluate) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int a; a = 3;
  int b; b = a * 2 + 1;
  real c; c = b * 0.5;
  sink(c);
}
)"),
                   3.5);
}

TEST(Semantics, ReturnUnwindsNestedBlocks) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real x; x = 1.0;
  for i = 0 to 9 {
    if (i == 3) {
      sink(x + i);
      return;
    }
    x = x + 1.0;
  }
  sink(100.0);
}
)"),
                   4.0 + 3.0);  // x became 4 after i=0,1,2; sink(4+3)
}

TEST(Semantics, ReturnFromCalleeOnly) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc maybe(real v[1], int stop) {
  if (stop > 0) { return; }
  v[0] = 7.0;
}
proc main() {
  real a[1];
  maybe(a, 1);
  sink(a[0]);   // 0: callee returned before writing
  maybe(a, 0);
  sink(a[0]);   // 7
}
)"),
                   7.0);
}

TEST(Semantics, NegativeStepLoops) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real s; s = 0.0;
  for i = 10 to 1 step 0 - 2 { s = s + i; }
  sink(s);
}
)"),
                   10 + 8 + 6 + 4 + 2);
}

TEST(Semantics, ZeroTripLoops) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real s; s = 5.0;
  for i = 3 to 2 { s = s + 100.0; }
  sink(s);
}
)"),
                   5.0);
}

TEST(Semantics, IntrinsicEdgeCases) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int a; a = min(3, -2);
  int b; b = max(3, -2);
  int c; c = abs(0 - 9);
  real d; d = sqrt(16.0);
  real e; e = min(1.5, 2);
  sink(a + b + c + d + e);
}
)"),
                   -2 + 3 + 9 + 4.0 + 1.5);
}

TEST(Semantics, ShortCircuitEvaluation) {
  // The second operand of && must not evaluate when the first is false:
  // here it would divide by zero.
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int z; z = 0;
  int r; r = 0;
  if (z != 0 && 10 / z > 1) { r = 1; }
  if (z == 0 || 10 / z > 1) { r = r + 2; }
  sink(r);
}
)"),
                   2.0);
}

TEST(Semantics, IntegerModuloAndNegatives) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int a; a = 7 % 3;
  int b; b = 0 - 7;
  int c; c = b / 2;
  sink(a + c);
}
)"),
                   1 - 3);  // C++ truncation semantics
}

TEST(Semantics, CopyOutScalarsInParallelLoop) {
  // `last` is written every iteration: the parallel version must copy
  // out the final iteration's value.
  Prog p = build(R"(
proc main() {
  real a[100];
  real last; last = 0.0;
  for i = 0 to 99 {
    a[i] = noise(i);
    last = a[i] * 2.0;
  }
  sink(last);
}
)");
  InterpStats seq = execute(*p.program, {});
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 4;
  InterpStats par = execute(*p.program, opt);
  EXPECT_DOUBLE_EQ(par.checksum, seq.checksum);
  EXPECT_GE(par.parallel_loops_entered, 1u);
}

TEST(Semantics, MinMaxReductionsParallel) {
  Prog p = build(R"(
proc main() {
  real a[5000];
  for i = 0 to 4999 { a[i] = noise(i); }
  real lo; lo = 1000000.0;
  real hi; hi = 0.0 - 1000000.0;
  for i = 0 to 4999 {
    lo = min(lo, a[i]);
    hi = max(hi, a[i]);
  }
  sink(lo);
  sink(hi);
}
)");
  InterpStats seq = execute(*p.program, {});
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 4;
  InterpStats par = execute(*p.program, opt);
  // Min/max reductions are exact (no reassociation error).
  EXPECT_DOUBLE_EQ(par.checksum, seq.checksum);
}

TEST(Semantics, ProductReductionParallel) {
  Prog p = build(R"(
proc main() {
  real a[64];
  for i = 0 to 63 { a[i] = 1.0 + noise(i) * 0.01; }
  real prod; prod = 1.0;
  for i = 0 to 63 { prod = prod * a[i]; }
  sink(prod);
}
)");
  InterpStats seq = execute(*p.program, {});
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 3;
  InterpStats par = execute(*p.program, opt);
  EXPECT_NEAR(par.checksum, seq.checksum, 1e-12 * std::abs(seq.checksum));
}

TEST(Semantics, RuntimeTestStatisticsTracked) {
  Prog p = build(R"(
proc kernel(real x[300], int d) {
  for i = 100 to 199 { x[i] = x[i - d] + 1.0; }
}
proc main() {
  real x[300];
  for j = 0 to 299 { x[j] = noise(j); }
  kernel(x, 0 - 100);
  kernel(x, 3);
  sink(x[150]);
}
)");
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 2;
  InterpStats s = execute(*p.program, opt);
  EXPECT_EQ(s.runtime_tests_evaluated, 2u);
  EXPECT_EQ(s.runtime_tests_passed, 1u);  // d=150 passes, d=3 fails
  EXPECT_GT(s.runtime_test_atoms, 0u);
}

TEST(Semantics, SimulatedTimeNoGreaterThanWallOnSingleCore) {
  Prog p = build(R"(
proc main() {
  real a[20000];
  for i = 0 to 19999 { a[i] = noise(i) * 2.0 + 1.0; }
  sink(a[5]);
}
)");
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 4;
  InterpStats s = execute(*p.program, opt);
  EXPECT_GT(s.simulated_seconds, 0.0);
  EXPECT_LE(s.simulated_seconds, s.total_seconds * 1.5 + 0.01);
}

TEST(Semantics, SinkCountsAndAccumulates) {
  Prog p = build(R"(
proc main() {
  for i = 1 to 4 { sink(i); }
}
)");
  InterpStats s = execute(*p.program, {});
  EXPECT_EQ(s.sink_count, 4u);
  EXPECT_DOUBLE_EQ(s.checksum, 10.0);
}

// ------------------------------------------------------------- parity --
// The interpreter executes lowered code, not the AST; these pin the
// behaviours a lowering could silently change: evaluation order, fault
// messages and locations, static typing of mixed expressions, and the
// instrumentation hooks.

/// The message of the RuntimeError execute() throws under `opt` ("" if
/// none); by default, a sequential run's.
std::string faultOf(const Program& program, const InterpOptions& opt = {}) {
  try {
    execute(program, opt);
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "";
}

std::string faultOf(Prog& p) { return faultOf(*p.program); }

std::string faultOf(std::string_view src) {
  Prog p = build(src);
  return faultOf(p);
}

TEST(Parity, LhsFaultIsReportedBeforeRhsFault) {
  // Both operands fault; the left one runs first and its fault wins.
  EXPECT_EQ(faultOf(R"(
proc main() {
  int z; z = 0;
  int x; x = (1 / z) + (1 % z);
  sink(x);
}
)"),
            "runtime error at 4:17: integer division by zero");
  EXPECT_EQ(faultOf(R"(
proc main() {
  int z; z = 0;
  real a[4, 4];
  sink(a[1 % z, 1 / z]);
}
)"),
            "runtime error at 5:12: integer modulo by zero");
  EXPECT_EQ(faultOf(R"(
proc main() {
  int z; z = 0;
  sink(min(1 % z, 1 / z));
}
)"),
            "runtime error at 4:14: integer modulo by zero");
  // An assignment evaluates its value before the target's subscripts.
  EXPECT_EQ(faultOf(R"(
proc main() {
  int z; z = 0;
  real a[4];
  a[1 % z] = 1 / z;
}
)"),
            "runtime error at 5:16: integer division by zero");
}

TEST(Parity, ShortCircuitSkipsFaultingRhs) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int z; z = 0;
  real a[4];
  int t; t = (z != 0) && (a[9] > 0.0);
  int u; u = (z == 0) || (10 / z > 1);
  int v; v = !((z != 0) && (10 % z > 1));
  sink(t * 100 + u * 10 + v);
}
)"),
                   11.0);
}

TEST(Parity, MixedIntRealComparisonsAndMinMax) {
  auto value = [](const char* decls, const char* expr) {
    return checksum(std::string("proc main() {\n") + decls + "\n  sink(" +
                    expr + ");\n}\n");
  };
  const char* d = "int i; i = 3; real r; r = 2.5; int big; "
                  "big = 9007199254740993; real rb; rb = 9007199254740992.0;";
  EXPECT_DOUBLE_EQ(value(d, "i > r"), 1.0);
  EXPECT_DOUBLE_EQ(value(d, "i <= r"), 0.0);
  // The int operand is promoted to real exactly where the comparison is
  // mixed: 2^53 + 1 rounds to 2^53 and compares equal.
  EXPECT_DOUBLE_EQ(value(d, "big == rb"), 1.0);
  EXPECT_DOUBLE_EQ(value(d, "big == big - 1"), 0.0);
  EXPECT_DOUBLE_EQ(value(d, "min(i, r)"), 2.5);
  EXPECT_DOUBLE_EQ(value(d, "max(i, r)"), 3.0);
  // int min/max stay integer: the division truncates.
  EXPECT_DOUBLE_EQ(value(d, "max(7, i) / 2"), 3.0);
  EXPECT_DOUBLE_EQ(value(d, "min(7, r) / 2"), 1.25);
  EXPECT_DOUBLE_EQ(value(d, "i / 2 * r"), 2.5);
  EXPECT_DOUBLE_EQ(value(d, "i * r / 2"), 3.75);
}

TEST(Parity, IntAbsAndNegationStayInteger) {
  auto value = [](const char* expr) {
    return checksum(std::string("proc main() {\n  int i; i = 7;\n  sink(") +
                    expr + ");\n}\n");
  };
  EXPECT_DOUBLE_EQ(value("abs(0 - i) / 2"), 3.0);
  EXPECT_DOUBLE_EQ(value("-i / 2"), -3.0);
  EXPECT_DOUBLE_EQ(value("abs(0.0 - i) / 2"), 3.5);
  EXPECT_DOUBLE_EQ(value("-(i * 1.0) / 2"), -3.5);
}

TEST(Parity, OutOfBoundsMessageNamesTheDimension) {
  // a[i, j + 1] is the var / var+const subscript shape.
  EXPECT_EQ(faultOf(R"(
proc main() {
  real a[4, 4];
  int i; i = 1;
  int j; j = 3;
  a[i, j + 1] = 1.0;
}
)"),
            "runtime error at 6:3: index 4 out of bounds [0, 3] in "
            "dimension 1");
  EXPECT_EQ(faultOf(R"(
proc main() {
  real a[4, 4];
  int i; i = 1;
  int j; j = 3;
  sink(a[i - 2, j + 1]);
}
)"),
            "runtime error at 6:8: index -1 out of bounds [0, 3] in "
            "dimension 0");
  // A subscript of any other shape reports the same way.
  EXPECT_EQ(faultOf(R"(
proc main() {
  real a[4, 4];
  int i; i = 1;
  int j; j = 3;
  sink(a[i, (j + 1) * 1]);
}
)"),
            "runtime error at 6:8: index 4 out of bounds [0, 3] in "
            "dimension 1");
}

TEST(Parity, ArrayUsedBeforeAllocation) {
  // Declarations are allocated in order at block entry. Swapping them
  // after Sema makes x's initializer read k before k is allocated.
  Prog p = build(R"(
proc main() {
  int k[2];
  int x = k[0] + 1;
  sink(x);
}
)");
  auto& decls = p.program->findProc("main")->body->decls;
  ASSERT_EQ(decls.size(), 2u);
  std::swap(decls[0], decls[1]);
  EXPECT_EQ(faultOf(p), "runtime error at 4:11: array used before allocation");
}

TEST(Parity, FaultingRuntimeTestAtomIsTrappedAndLoopRunsSequentially) {
  Prog p = build(R"(
proc kernel(real x[300], int d) {
  for i = 100 to 199 { x[i] = x[i - d] + 1.0; }
}
proc main() {
  real x[300];
  for j = 0 to 299 { x[j] = noise(j); }
  kernel(x, 0 - 100);
  sink(x[150]);
}
)");
  InterpStats seq = execute(*p.program, {});
  ProcDecl* kernel = p.program->findProc("kernel");
  ASSERT_NE(kernel, nullptr);
  // Replace the kernel loop's derived test by `1 / (d - d) <= 0`, whose
  // evaluation divides by zero.
  VarDecl* d = kernel->params[1].get();
  auto ref = [&] {
    auto e = std::make_unique<VarRefExpr>(d->name);
    e->decl = d;
    return e;
  };
  BinaryExpr lhs(BinOp::Div, std::make_unique<IntLitExpr>(1),
                 std::make_unique<BinaryExpr>(BinOp::Sub, ref(), ref()));
  IntLitExpr zero(0);
  int replaced = 0;
  for (auto& [loop, plan] : p.pred.plans) {
    if (plan.status != LoopStatus::RuntimeTest) continue;
    plan.runtime_test =
        Pred::atom(AtomOp::Le, lhs, zero, false, p.program->interner);
    ++replaced;
  }
  ASSERT_EQ(replaced, 1);

  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 2;
  InterpStats par = execute(*p.program, opt);
  EXPECT_EQ(par.runtime_tests_evaluated, 1u);
  EXPECT_EQ(par.runtime_tests_trapped, 1u);
  EXPECT_EQ(par.runtime_tests_passed, 0u);
  EXPECT_DOUBLE_EQ(par.checksum, seq.checksum);

  // The race oracle evaluates the same test at entry; a faulting test
  // leaves the loop's independence claim unarmed.
  RaceOracle oracle(*p.program, p.pred);
  InterpOptions ropt;
  ropt.race = &oracle;
  execute(*p.program, ropt);
  for (const auto& v : oracle.verdicts())
    if (v.status == LoopStatus::RuntimeTest) {
      EXPECT_EQ(v.invocations, 0u);
    }
  EXPECT_EQ(oracle.violationCount(), 0u);
}

const char* kPrivatizable = R"(
proc main() {
  real out[50];
  real help[4];
  for i = 0 to 49 {
    help[0] = noise(i);
    out[i] = help[0] * 2.0;
  }
  sink(out[3]);
}
)";

const char* kDependent = R"(
proc main() {
  real a[100];
  int k; k = 1;
  a[0] = 1.0;
  for i = 1 to 99 { a[i] = a[i - k] + 1.0; }
  sink(a[99]);
}
)";

const ForStmt* loopAtLine(const Prog& p, uint32_t line) {
  for (const auto& [loop, plan] : p.pred.plans)
    if (loop->loc.line == line) return loop;
  return nullptr;
}

TEST(Parity, ElpdVerdictsOnPrivatizableAndDependentLoops) {
  struct Case {
    const char* src;
    uint32_t line;
    bool conflict, flow;
    uint64_t accesses;
  };
  for (const Case& c : {Case{kPrivatizable, 5, true, false, 150},
                        Case{kDependent, 6, true, true, 198}}) {
    Prog p = build(c.src);
    const ForStmt* loop = loopAtLine(p, c.line);
    ASSERT_NE(loop, nullptr);
    ElpdCollector collector;
    collector.instrument(loop);
    InterpOptions opt;
    opt.elpd = &collector;
    execute(*p.program, opt);
    auto v = collector.verdict(loop);
    EXPECT_TRUE(v.executed) << c.line;
    EXPECT_EQ(v.conflict, c.conflict) << c.line;
    EXPECT_EQ(v.flow, c.flow) << c.line;
    EXPECT_EQ(v.accesses, c.accesses) << c.line;
    EXPECT_EQ(collector.totalAccesses(), c.accesses) << c.line;
  }
}

TEST(Parity, RaceOracleVerdictsOnPrivatizableAndDependentLoops) {
  // The scalar j is read through the a[j + 1] subscript before the
  // iteration writes it: a cross-iteration scalar flow.
  const char* scalar_flow = R"(
proc main() {
  real a[100];
  int j; j = 0;
  for i = 0 to 98 {
    a[j + 1] = noise(i);
    j = i;
  }
  sink(a[5]);
}
)";
  struct Case {
    const char* src;
    uint32_t line;
    bool force_parallel;
    size_t violations;
    uint64_t accesses;
    const char* report;
  };
  for (const Case& c :
       {Case{kPrivatizable, 5, false, 0, 150,
             "loop main/L5 [parallel] clean over 1 invocation(s)\n"},
        Case{kDependent, 6, true, 1, 198,
             "loop main/L6 [parallel] VIOLATION: shared array 'a' element "
             "read by iteration 1 was written by iteration 0\n"},
        Case{scalar_flow, 5, true, 1, 99,
             "loop main/L5 [parallel] VIOLATION: scalar 'j' read in "
             "iteration 1 carries the value written by iteration 0\n"}}) {
    Prog p = build(c.src);
    const ForStmt* loop = loopAtLine(p, c.line);
    ASSERT_NE(loop, nullptr);
    if (c.force_parallel) p.pred.plans.at(loop).status = LoopStatus::Parallel;
    RaceOracle oracle(*p.program, p.pred);
    InterpOptions opt;
    opt.race = &oracle;
    execute(*p.program, opt);
    EXPECT_EQ(oracle.violationCount(), c.violations) << c.line;
    EXPECT_EQ(oracle.totalAccesses(), c.accesses) << c.line;
    EXPECT_EQ(oracle.report(p.program->interner), c.report);
  }
}

// ------------------------------------------------------ region faults --
// A fault inside a parallel region must surface from execute() with the
// sequential run's message: the faulting worker's error is rethrown at
// the barrier, and its siblings stop at the next block (DOALL) or give up
// their spin on a post that will never come (Doacross cancel) instead of
// hanging. Every faulting iteration below reports the same index, so the
// message does not depend on which worker faults first.

void expectRegionFaultMatchesSequential(const char* src, LoopStatus status) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  ASSERT_TRUE(cp.has_value()) << diags.dump();
  size_t planned = 0;
  for (const auto& [loop, plan] : cp->pred.plans)
    planned += plan.status == status ? 1 : 0;
  ASSERT_EQ(planned, 1u) << loopStatusName(status);
  const std::string seq = faultOf(*cp->program);
  ASSERT_NE(seq.find("index 64 out of bounds"), std::string::npos) << seq;
  for (unsigned threads : {1u, 4u}) {
    InterpOptions opt;
    opt.plans = &cp->pred;
    opt.num_threads = threads;
    EXPECT_EQ(faultOf(*cp->program, opt), seq)
        << loopStatusName(status) << " at P=" << threads;
  }
}

TEST(RegionFault, DoallFaultSurfacesWithTheSequentialMessage) {
  // Iterations 150..199 all fault; the rest run in other blocks.
  expectRegionFaultMatchesSequential(R"(
proc main() {
  real a[200];
  int c[64];
  for i = 0 to 199 { a[i] = noise(i) + c[i / 150 * 64]; }
  sink(a[5]);
}
)",
                                     LoopStatus::Parallel);
}

TEST(RegionFault, DoacrossFaultCancelsWaitingSiblings) {
  // Ordinal 47 (i = 48) faults after its wait but before its post of
  // a[i]; every later iteration then spins on that post until the
  // region cancels it.
  expectRegionFaultMatchesSequential(R"(
proc main() {
  real a[64];
  real b[64];
  int c[64];
  for i = 1 to 63 {
    b[i] = noise(i) * 0.25;
    a[i] = a[i - 1] * 0.5 + b[i] + c[i / 48 * 64];
  }
  sink(a[63]);
}
)",
                                     LoopStatus::Doacross);
}

}  // namespace
}  // namespace padfa
