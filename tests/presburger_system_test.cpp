// Unit tests for pb::System: normalization, Fourier–Motzkin elimination,
// feasibility, projection, and the remembered feasibility verdict.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "presburger/feasibility_cache.h"
#include "presburger/system.h"
#include "support/budget.h"
#include "support/perf_stats.h"

namespace padfa::pb {
namespace {

// Convenience: x is var 0, y var 1, z var 2, n var 3.
LinExpr X() { return LinExpr::var(0); }
LinExpr Y() { return LinExpr::var(1); }
LinExpr Z() { return LinExpr::var(2); }
LinExpr N() { return LinExpr::var(3); }
LinExpr C(int64_t k) { return LinExpr(k); }

TEST(System, EmptySystemFeasible) {
  System s;
  EXPECT_TRUE(s.feasible());
}

TEST(System, SimpleBoundsFeasible) {
  System s;
  s.addGE0(X() - C(1));        // x >= 1
  s.addGE0(C(10) - X());       // x <= 10
  EXPECT_TRUE(s.feasible());
}

TEST(System, ContradictoryBoundsInfeasible) {
  System s;
  s.addGE0(X() - C(5));   // x >= 5
  s.addGE0(C(3) - X());   // x <= 3
  EXPECT_FALSE(s.feasible());
}

TEST(System, EqualityChainInfeasible) {
  System s;
  s.addEQ0(X() - Y());       // x == y
  s.addEQ0(Y() - Z());       // y == z
  s.addGE0(X() - Z() - C(1));  // x >= z + 1
  EXPECT_FALSE(s.feasible());
}

TEST(System, GcdEqualityInfeasible) {
  // 2x == 2y + 1 has no integer solution.
  System s;
  s.addEQ0(X() * 2 - Y() * 2 - C(1));
  EXPECT_FALSE(s.feasible());
}

TEST(System, GcdTighteningCatchesGap) {
  // 3x >= 1 and 3x <= 2 -> x >= 1 (ceil) and x <= 0 (floor): infeasible.
  System s;
  s.addGE0(X() * 3 - C(1));
  s.addGE0(C(2) - X() * 3);
  EXPECT_FALSE(s.feasible());
}

TEST(System, EliminateBySubstitution) {
  // x == y + 2, x <= 5, x >= 4 -> after eliminating x: 2 <= y <= 3.
  System s;
  s.addEQ0(X() - Y() - C(2));
  s.addGE0(C(5) - X());
  s.addGE0(X() - C(4));
  ASSERT_TRUE(s.eliminate(0));
  EXPECT_TRUE(s.feasible());
  // y == 2 should be inside, y == 4 outside (vars: index 1).
  std::vector<int64_t> vals(4, 0);
  vals[1] = 2;
  EXPECT_TRUE(s.contains(vals));
  vals[1] = 4;
  EXPECT_FALSE(s.contains(vals));
}

TEST(System, FourierMotzkinPairing) {
  // y <= x <= y + 1 and x >= 10, y <= 5: infeasible after eliminating x?
  // x >= 10 and x <= y+1 gives y >= 9; with y <= 5 infeasible.
  System s;
  s.addGE0(X() - Y());
  s.addGE0(Y() + C(1) - X());
  s.addGE0(X() - C(10));
  s.addGE0(C(5) - Y());
  EXPECT_FALSE(s.feasible());
}

TEST(System, ProjectOntoKeepsParams) {
  // 1 <= x <= n ; project out x, keep n: requires n >= 1.
  System s;
  s.addGE0(X() - C(1));
  s.addGE0(N() - X());
  ASSERT_TRUE(s.projectOnto([](VarId v) { return v == 3; }));
  std::vector<int64_t> vals(4, 0);
  vals[3] = 0;
  EXPECT_FALSE(s.contains(vals));
  vals[3] = 1;
  EXPECT_TRUE(s.contains(vals));
}

TEST(System, NormalizeDropsTrivial) {
  System s;
  s.addGE0(C(5));
  s.addEQ0(C(0));
  ASSERT_TRUE(s.normalize());
  EXPECT_TRUE(s.trivial());
}

TEST(System, NormalizeDetectsConstantContradiction) {
  System s;
  s.addGE0(C(-1));
  EXPECT_FALSE(s.normalize());
}

TEST(System, NormalizeMergesParallelGE) {
  System s;
  s.addGE0(X() - C(3));
  s.addGE0(X() - C(7));  // tighter
  ASSERT_TRUE(s.normalize());
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.constraints()[0].expr.constant(), -7);
}

TEST(System, ConflictingEqualities) {
  System s;
  s.addEQ0(X() - C(3));
  s.addEQ0(X() - C(4));
  EXPECT_FALSE(s.normalize());
}

TEST(System, NegatedGEIsIntegerNegation) {
  // !(x - 3 >= 0)  ==  (-x + 2 >= 0)  ==  x <= 2.
  Constraint c = Constraint::ge0(X() - C(3));
  Constraint n = c.negatedGE();
  std::vector<int64_t> vals(1, 2);
  EXPECT_EQ(n.expr.evaluate(vals), 0);  // x=2 boundary holds
  vals[0] = 3;
  EXPECT_LT(n.expr.evaluate(vals), 0);  // x=3 violates
}

TEST(System, SubstituteThenFeasible) {
  // x == 2y; x odd bound: x >= 3, x <= 3 -> y must satisfy 2y == 3: infeasible.
  System s;
  s.addGE0(X() - C(3));
  s.addGE0(C(3) - X());
  s.substitute(0, Y() * 2);
  EXPECT_FALSE(s.feasible());
}

TEST(System, UsedVars) {
  System s;
  s.addGE0(X() + Z());
  s.addEQ0(N() - C(2));
  auto vars = s.usedVars();
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars[0], 0u);
  EXPECT_EQ(vars[1], 2u);
  EXPECT_EQ(vars[2], 3u);
}

TEST(System, ContainsEvaluatesAllConstraints) {
  System s;
  s.addGE0(X() - C(1));
  s.addEQ0(Y() - X());
  std::vector<int64_t> v = {2, 2};
  EXPECT_TRUE(s.contains(v));
  v[1] = 3;
  EXPECT_FALSE(s.contains(v));
}

// Property-style sweep: for random-ish small boxes, feasibility matches
// brute-force integer enumeration.
class SystemBoxSweep : public ::testing::TestWithParam<int> {};

TEST_P(SystemBoxSweep, FeasibilityMatchesBruteForce) {
  int seed = GetParam();
  // Deterministic pseudo-random constraint soup over x,y in [-4,4].
  uint64_t state = 88172645463325252ull + static_cast<uint64_t>(seed);
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  System s;
  s.addGE0(X() + C(4));
  s.addGE0(C(4) - X());
  s.addGE0(Y() + C(4));
  s.addGE0(C(4) - Y());
  int nc = 2 + static_cast<int>(next() % 4);
  for (int i = 0; i < nc; ++i) {
    int64_t a = static_cast<int64_t>(next() % 7) - 3;
    int64_t b = static_cast<int64_t>(next() % 7) - 3;
    int64_t c = static_cast<int64_t>(next() % 11) - 5;
    LinExpr e = X() * a + Y() * b + C(c);
    if (next() % 4 == 0)
      s.addEQ0(e);
    else
      s.addGE0(e);
  }
  bool brute = false;
  for (int64_t x = -4; x <= 4 && !brute; ++x)
    for (int64_t y = -4; y <= 4 && !brute; ++y)
      if (s.contains({x, y})) brute = true;
  bool fm = s.feasible();
  // FM is a relaxation: it may say feasible when brute-force (integer)
  // says no, but must never say infeasible when integer points exist.
  if (brute) {
    EXPECT_TRUE(fm) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemBoxSweep, ::testing::Range(0, 60));

TEST(System, QuickInfeasibleOnNormalizedPairs) {
  // Built directly in normalize order (GE0 sorted by term vector, then EQ0).
  System ge_pair;  // -x - y - 1 >= 0 && x + y >= 0: one short
  ge_pair.addGE0(C(-1) - X() - Y());
  ge_pair.addGE0(X() + Y());
  EXPECT_TRUE(ge_pair.quickInfeasible());

  System tight;  // -x - y + 1 >= 0 && x + y - 1 >= 0, i.e. x + y == 1
  tight.addGE0(C(1) - X() - Y());
  tight.addGE0(X() + Y() - C(1));
  EXPECT_FALSE(tight.quickInfeasible());

  System ge_eq;  // x - 3 >= 0 && -x + 2 == 0: one short
  ge_eq.addGE0(X() - C(3));
  ge_eq.addEQ0(C(2) - X());
  EXPECT_TRUE(ge_eq.quickInfeasible());
}

// Random small systems over x, y, z, checked against brute force over the
// box [-kBox, kBox]^3. Generation favours what normalize() must handle:
// constant constraints, common factors, parallel and mirrored pairs.
class SystemNormalizeProperty : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int64_t kBox = 3;

  uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int64_t pick(int64_t lo, int64_t hi) {
    uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(next() % span);
  }

  System randomSystem() {
    state_ = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(GetParam() + 1);
    System s;
    std::vector<LinExpr> made;
    int n = static_cast<int>(pick(1, 6));
    for (int i = 0; i < n; ++i) {
      LinExpr e;
      uint64_t shape = next() % 8;
      if (shape == 0 && !made.empty()) {  // parallel: same terms
        e = made[next() % made.size()];
        e.setConstant(pick(-6, 6));
      } else if (shape == 1 && !made.empty()) {  // mirrored
        e = made[next() % made.size()].negated();
        e.setConstant(pick(-6, 6));
      } else {
        e = X() * pick(-3, 3) + Y() * pick(-3, 3) + Z() * pick(-2, 2) +
            C(pick(-6, 6));
      }
      if (next() % 4 == 0) e *= pick(2, 3);  // common factor
      made.push_back(e);
      if (next() % 5 == 0)
        s.addEQ0(e);
      else
        s.addGE0(e);
    }
    return s;
  }

  template <typename Fn>
  static void forEachPoint(Fn fn) {
    for (int64_t x = -kBox; x <= kBox; ++x)
      for (int64_t y = -kBox; y <= kBox; ++y)
        for (int64_t z = -kBox; z <= kBox; ++z)
          fn(std::vector<int64_t>{x, y, z});
  }

  uint64_t state_ = 0;
};

TEST_P(SystemNormalizeProperty, PreservesIntegerPoints) {
  System s = randomSystem();
  System n = s;
  bool ok = n.normalize();
  forEachPoint([&](const std::vector<int64_t>& p) {
    if (ok)
      EXPECT_EQ(s.contains(p), n.contains(p)) << s.str() << " vs " << n.str();
    else
      EXPECT_FALSE(s.contains(p)) << s.str() << " rejected by normalize";
  });
  // feasible() is a relaxation, never a false "infeasible".
  if (!s.feasible())
    forEachPoint([&](const std::vector<int64_t>& p) {
      EXPECT_FALSE(s.contains(p)) << s.str();
    });
}

TEST_P(SystemNormalizeProperty, OutputIsSortedUniqueAndIdempotent) {
  System n = randomSystem();
  if (!n.normalize()) return;
  const auto& cs = n.constraints();
  for (size_t i = 0; i < cs.size(); ++i) {
    EXPECT_FALSE(cs[i].expr.isConstant()) << n.str();
    if (i == 0) continue;
    const Constraint& a = cs[i - 1];
    const Constraint& b = cs[i];
    bool less = a.kind != b.kind ? a.kind == CmpKind::GE0
                                 : a.expr.terms() < b.expr.terms();
    EXPECT_TRUE(less) << "not strictly ascending at " << i << ": " << n.str();
  }
  // normalize() already ran quickInfeasible() on its output.
  EXPECT_FALSE(n.quickInfeasible()) << n.str();
  System again = n;
  ASSERT_TRUE(again.normalize());
  EXPECT_EQ(again, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemNormalizeProperty,
                         ::testing::Range(0, 200));

// The remembered verdict. Each test enables caches explicitly (the
// environment may set PADFA_NO_CACHE) and restores the default after.
class SystemVerdict : public ::testing::Test {
 protected:
  void SetUp() override {
    setCachesEnabled(true);
    FeasibilityCache::global().clear();
  }
  void TearDown() override { clearCachesEnabledOverride(); }

  // 0 <= x <= 10 && 0 <= y <= 10 && x - y >= 0: feasible, needs FM.
  static System boxed() {
    System s;
    s.addGE0(X());
    s.addGE0(C(10) - X());
    s.addGE0(Y());
    s.addGE0(C(10) - Y());
    s.addGE0(X() - Y());
    return s;
  }

  // FM steps the calls in `fn` charge under an installed budget.
  template <typename Fn>
  static uint64_t fmStepsOf(const BudgetLimits& limits, Fn fn) {
    AnalysisBudget budget(limits);
    BudgetScope scope(budget);
    fn();
    return budget.fmSteps();
  }
};

TEST_F(SystemVerdict, RepeatCountsAsHitWithoutWork) {
  CacheStats& stats = PerfStats::instance().feasibility;
  System s = boxed();
  uint64_t hits = stats.hits.load(), misses = stats.misses.load();
  uint64_t first =
      fmStepsOf(BudgetLimits::defaults(), [&] { EXPECT_TRUE(s.feasible()); });
  EXPECT_GT(first, 0u);
  EXPECT_EQ(stats.misses.load(), misses + 1);
  uint64_t second =
      fmStepsOf(BudgetLimits::defaults(), [&] { EXPECT_TRUE(s.feasible()); });
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(stats.hits.load(), hits + 1);  // same count as a cache hit
  EXPECT_EQ(stats.misses.load(), misses + 1);

  // A copy carries the verdict; clearing the cache retires it.
  System copy = s;
  EXPECT_TRUE(copy.feasible());
  EXPECT_EQ(stats.hits.load(), hits + 2);
  FeasibilityCache::global().clear();
  EXPECT_TRUE(copy.feasible());
  EXPECT_EQ(stats.misses.load(), misses + 2);

  // Systems decided by normalize() alone never count a lookup.
  System empty;
  empty.addGE0(C(-1));
  EXPECT_FALSE(empty.feasible());
  EXPECT_FALSE(empty.feasible());
  EXPECT_EQ(stats.lookups(), hits + misses + 4);
}

TEST_F(SystemVerdict, EveryMutatorClearsIt) {
  // Each mutation flips the answer, so a stale verdict would show.
  {
    System s = boxed();
    ASSERT_TRUE(s.feasible());
    s.add(Constraint::ge0(Y() - X() - C(1)));  // y > x
    EXPECT_FALSE(s.feasible());
  }
  {
    System s = boxed();
    ASSERT_TRUE(s.feasible());
    System more;
    more.addGE0(Y() - X() - C(1));
    s.conjoin(more);
    EXPECT_FALSE(s.feasible());
  }
  {
    System s = boxed();
    ASSERT_TRUE(s.feasible());
    s.substitute(0, Y() - C(1));  // x := y - 1 contradicts x >= y
    EXPECT_FALSE(s.feasible());
  }
  // 2x == y && y == 1 has no integer point, but its rational shadow on y
  // (after eliminating x) does.
  auto parity = [] {
    System s;
    s.addEQ0(X() * 2 - Y());
    s.addEQ0(Y() - C(1));
    return s;
  };
  {
    System s = parity();
    ASSERT_FALSE(s.feasible());
    ASSERT_TRUE(s.eliminate(0));
    EXPECT_TRUE(s.feasible());
  }
  {
    System s = parity();
    ASSERT_FALSE(s.feasible());
    bool exact = true;
    ASSERT_TRUE(s.eliminateTracked(0, exact));
    EXPECT_TRUE(s.feasible());
  }
  {
    System s = parity();
    ASSERT_FALSE(s.feasible());
    ASSERT_TRUE(s.projectOnto([](VarId v) { return v == 1; }));
    EXPECT_TRUE(s.feasible());
  }
  {
    // A successful normalize keeps the point set, so the verdict stands.
    System s = boxed();
    ASSERT_TRUE(s.feasible());
    ASSERT_TRUE(s.normalize());
    EXPECT_TRUE(s.feasible());
  }
}

TEST_F(SystemVerdict, GovernedBudgetRechargesEveryQuery) {
  BudgetLimits governed = BudgetLimits::defaults();
  governed.max_fm_steps = 1000000;
  System s = boxed();
  uint64_t first = fmStepsOf(governed, [&] { EXPECT_TRUE(s.feasible()); });
  EXPECT_GT(first, 0u);
  uint64_t second = fmStepsOf(governed, [&] { EXPECT_TRUE(s.feasible()); });
  EXPECT_EQ(second, first);
  // Nor does a verdict filled outside the budget excuse a governed query.
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(fmStepsOf(governed, [&] { EXPECT_TRUE(s.feasible()); }), first);
}

TEST_F(SystemVerdict, ConcurrentQueriesAgree) {
  // Const queries on one shared System fill its verdict from several
  // threads at once (a race-detector build checks the field).
  const System s = boxed();
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i)
        if (!s.feasible()) wrong.fetch_add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(SystemVerdict, DisabledCachesBypassIt) {
  CacheStats& stats = PerfStats::instance().feasibility;
  System s = boxed();
  ASSERT_TRUE(s.feasible());  // verdict filled while caches are on
  setCachesEnabled(false);
  uint64_t lookups = stats.lookups();
  for (int i = 0; i < 2; ++i) {
    uint64_t steps = fmStepsOf(BudgetLimits::defaults(),
                               [&] { EXPECT_TRUE(s.feasible()); });
    EXPECT_GT(steps, 0u) << "query " << i << " skipped elimination";
  }
  EXPECT_EQ(stats.lookups(), lookups);
}

}  // namespace
}  // namespace padfa::pb
