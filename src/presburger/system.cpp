#include "presburger/system.h"

#include <algorithm>
#include <map>

#include "presburger/feasibility_cache.h"
#include "support/budget.h"
#include "support/perf_stats.h"

namespace padfa::pb {

namespace {

// Overflow-checked helpers: on (rare) overflow we saturate, which can only
// make feasibility answers more conservative because callers treat
// "couldn't decide" as feasible.
int64_t mulSat(int64_t a, int64_t b) {
  __int128 p = static_cast<__int128>(a) * b;
  if (p > INT64_MAX) return INT64_MAX;
  if (p < INT64_MIN) return INT64_MIN;
  return static_cast<int64_t>(p);
}

// Scale-combine: out = a*x + b*y computed with saturation on each term.
LinExpr combine(const LinExpr& x, int64_t a, const LinExpr& y, int64_t b) {
  LinExpr out;
  std::map<VarId, int64_t> acc;
  for (const auto& [v, c] : x.terms()) acc[v] += mulSat(c, a);
  for (const auto& [v, c] : y.terms()) acc[v] += mulSat(c, b);
  for (const auto& [v, c] : acc) out.addTerm(v, c);
  out.setConstant(mulSat(x.constant(), a) + mulSat(y.constant(), b));
  return out;
}

}  // namespace

Constraint Constraint::negatedGE() const {
  LinExpr e = expr.negated();
  e.setConstant(e.constant() - 1);
  return Constraint::ge0(std::move(e));
}

std::string Constraint::str(
    const std::function<std::string(VarId)>& name) const {
  return expr.str(name) + (kind == CmpKind::GE0 ? " >= 0" : " == 0");
}

void System::conjoin(const System& o) {
  forgetVerdict();
  constraints_.insert(constraints_.end(), o.constraints_.begin(),
                      o.constraints_.end());
}

namespace {

using Terms = std::vector<std::pair<VarId, int64_t>>;

// The normalize order: GE0 before EQ0, then term vectors lexicographically.
bool keyLess(const Constraint& a, const Constraint& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.expr.terms() < b.expr.terms();
}

bool sameKey(const Constraint& a, const Constraint& b) {
  return a.kind == b.kind && a.expr.terms() == b.expr.terms();
}

// Two's-complement negation (INT64_MIN maps to itself).
int64_t wrapNeg(int64_t c) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(c));
}

// Three-way lexicographic comparison of `a` against the negation of `b`,
// without materializing the negation.
int compareToNegated(const Terms& a, const Terms& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i].first != b[i].first) return a[i].first < b[i].first ? -1 : 1;
    int64_t nb = wrapNeg(b[i].second);
    if (a[i].second != nb) return a[i].second < nb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

// The constraint in the sorted range [first, last) whose term vector is
// the negation of `terms`, or null.
const Constraint* findNegated(const Constraint* first, const Constraint* last,
                              const Terms& terms) {
  const Constraint* it = std::lower_bound(
      first, last, terms, [](const Constraint& c, const Terms& t) {
        return compareToNegated(c.expr.terms(), t) < 0;
      });
  if (it != last && compareToNegated(it->expr.terms(), terms) == 0) return it;
  return nullptr;
}

}  // namespace

bool System::normalize() {
  // gcd reduction / constant-only checks, compacting in place.
  size_t kept = 0;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    Constraint& c = constraints_[i];
    if (c.expr.isConstant()) {
      int64_t k = c.expr.constant();
      if ((c.kind == CmpKind::EQ0 && k != 0) ||
          (c.kind == CmpKind::GE0 && k < 0)) {
        forgetVerdict();
        return false;
      }
      continue;  // trivially true
    }
    int64_t g = c.expr.coeffGcd();
    if (g > 1) {
      if (c.kind == CmpKind::EQ0) {
        if (c.expr.constant() % g != 0) {  // no integer solution
          forgetVerdict();
          return false;
        }
        c.expr.divideExact(g);
      } else {
        c.expr.divideFloorConstant(g);  // integer tightening
      }
    }
    if (kept != i) constraints_[kept] = std::move(c);
    ++kept;
  }
  constraints_.erase(constraints_.begin() + kept, constraints_.end());

  // Merge constraints with the same (kind, term vector) key: a GE keeps
  // the tightest (smallest) constant; EQs with different constants
  // (e + a == 0 and e + b == 0, a != b) are a contradiction.
  if (!std::is_sorted(constraints_.begin(), constraints_.end(), keyLess))
    std::sort(constraints_.begin(), constraints_.end(), keyLess);
  size_t out = 0;
  for (size_t i = 0; i < constraints_.size(); ++i) {
    Constraint& c = constraints_[i];
    if (out > 0 && sameKey(constraints_[out - 1], c)) {
      LinExpr& prev = constraints_[out - 1].expr;
      if (c.kind == CmpKind::GE0) {
        prev.setConstant(std::min(prev.constant(), c.expr.constant()));
      } else if (prev.constant() != c.expr.constant()) {
        forgetVerdict();
        return false;
      }
      continue;
    }
    if (out != i) constraints_[out] = std::move(c);
    ++out;
  }
  constraints_.erase(constraints_.begin() + out, constraints_.end());
  if (quickInfeasible()) {
    forgetVerdict();
    return false;
  }
  return true;
}

bool System::quickInfeasible() const {
  // Normalized: GE0 constraints form a sorted prefix, EQ0 a sorted suffix,
  // each key unique and no constraint constant.
  const Constraint* first = constraints_.data();
  const Constraint* last = first + constraints_.size();
  const Constraint* eqs = std::partition_point(
      first, last, [](const Constraint& c) { return c.kind == CmpKind::GE0; });
  for (const Constraint* c = first; c != eqs; ++c) {
    int64_t cst = c->expr.constant();
    // e + cst >= 0 and -e + cst2 >= 0  =>  -cst <= e <= cst2.
    if (const Constraint* ge = findNegated(first, eqs, c->expr.terms()))
      if (cst + ge->expr.constant() < 0) return true;
    // -e + k == 0 => e == k; need k + cst >= 0.
    if (const Constraint* eq = findNegated(eqs, last, c->expr.terms()))
      if (eq->expr.constant() + cst < 0) return true;
  }
  return false;
}

bool System::eliminate(VarId v) {
  bool exact = true;
  return eliminateTracked(v, exact);
}

bool System::eliminateTracked(VarId v, bool& exact) {
  forgetVerdict();
  // Cooperative budget check point: one FM elimination step, charged at
  // the current constraint count. No-op unless a BudgetScope is active.
  if (AnalysisBudget* budget = AnalysisBudget::current())
    budget->chargeFmStep(constraints_.size());
  // Prefer substitution using an equality with coefficient ±1 on v.
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const Constraint& c = constraints_[i];
    if (c.kind != CmpKind::EQ0) continue;
    int64_t a = c.expr.coeff(v);
    if (a == 1 || a == -1) {
      // v = (-(expr - a*v)) / a
      LinExpr rest = c.expr;
      rest.addTerm(v, -a);
      LinExpr repl = rest.negated();
      if (a == -1) repl = repl.negated();
      constraints_.erase(constraints_.begin() + i);
      substitute(v, repl);
      return normalize();
    }
  }

  std::vector<Constraint> lower, upper, rest;
  std::vector<Constraint> eqs;
  for (auto& c : constraints_) {
    int64_t a = c.expr.coeff(v);
    if (a == 0) {
      rest.push_back(std::move(c));
    } else if (c.kind == CmpKind::EQ0) {
      eqs.push_back(std::move(c));
    } else if (a > 0) {
      lower.push_back(std::move(c));
    } else {
      upper.push_back(std::move(c));
    }
  }

  // An equality a*v + e == 0 with |a| > 1: treat as pair of inequalities
  // (conservative for elimination; gcd check already ran in normalize).
  for (auto& c : eqs) {
    int64_t a = c.expr.coeff(v);
    Constraint geq = Constraint::ge0(c.expr);
    Constraint leq = Constraint::ge0(c.expr.negated());
    if (a > 0) {
      lower.push_back(geq);
      upper.push_back(leq);
    } else {
      lower.push_back(leq);
      upper.push_back(geq);
    }
  }

  if (rest.size() + lower.size() * upper.size() > kMaxConstraints) {
    // Bail out: drop all constraints involving v (over-approximation).
    exact = false;
    constraints_ = std::move(rest);
    return normalize();
  }

  std::vector<Constraint> out = std::move(rest);
  for (const auto& lo : lower) {
    int64_t a = lo.expr.coeff(v);  // a > 0
    for (const auto& up : upper) {
      int64_t b = -up.expr.coeff(v);  // b > 0
      // a*v + e >= 0, -b*v + f >= 0  =>  b*e + a*f >= 0.
      // Integer-exact when min(a, b) == 1 (Pugh's exact-shadow condition).
      if (a > 1 && b > 1) exact = false;
      LinExpr comb = combine(lo.expr, b, up.expr, a);
      // coefficient of v: b*a + a*(-b) = 0 by construction.
      out.push_back(Constraint::ge0(std::move(comb)));
    }
  }
  constraints_ = std::move(out);
  return normalize();
}

bool System::projectOnto(const VarFilter& keep) {
  bool exact = true;
  return projectOntoTracked(keep, exact);
}

bool System::projectOntoTracked(const VarFilter& keep, bool& exact) {
  while (true) {
    // Prefer victims with a unit-coefficient equality (exact
    // substitution; preserves divisibility facts — see feasible()).
    VarId victim = kInvalidVar;
    bool victim_unit = false;
    for (VarId v : usedVars()) {
      if (keep(v)) continue;
      bool unit = false;
      for (const auto& c : constraints_) {
        if (c.kind != CmpKind::EQ0) continue;
        int64_t a = c.expr.coeff(v);
        if (a == 1 || a == -1) unit = true;
      }
      if (victim == kInvalidVar || (unit && !victim_unit)) {
        victim = v;
        victim_unit = unit;
        if (unit) break;
      }
    }
    if (victim == kInvalidVar) return true;
    if (!eliminateTracked(victim, exact)) return false;
  }
}

namespace {

/// The full elimination loop behind feasible(), over an already
/// normalized, not-quickly-infeasible system. Consumes `copy`.
Feasibility eliminateFeasibility(System copy) {
  // Eliminate all variables. Variables with a unit-coefficient equality
  // are substituted first: substitution is exact and, crucially,
  // propagates divisibility information (e.g. i == 3k) into the
  // remaining constraints where the gcd check can catch integer
  // infeasibility that pure Fourier–Motzkin would lose.
  while (true) {
    auto vars = copy.usedVars();
    if (vars.empty()) break;
    VarId best = vars[0];
    size_t bestCost = SIZE_MAX;
    bool bestUnit = false;
    for (VarId v : vars) {
      size_t lo = 0, up = 0, eq = 0;
      bool unit = false;
      for (const auto& c : copy.constraints()) {
        int64_t a = c.expr.coeff(v);
        if (a == 0) continue;
        if (c.kind == CmpKind::EQ0) {
          ++eq;
          if (a == 1 || a == -1) unit = true;
        } else if (a > 0) {
          ++lo;
        } else {
          ++up;
        }
      }
      size_t cost = (lo + eq) * (up + eq);
      if ((unit && !bestUnit) || (unit == bestUnit && cost < bestCost)) {
        bestCost = cost;
        best = v;
        bestUnit = unit;
      }
    }
    if (!copy.eliminate(best)) return Feasibility::Infeasible;
    if (copy.size() > System::kMaxConstraints)
      return Feasibility::FeasibleInexact;  // give up: assume feasible
  }
  // No variables left, and a normalized system keeps no constant
  // constraints: every constraint was satisfied and dropped.
  return Feasibility::Feasible;
}

/// The global feasibility memo, or null when it must not be consulted:
/// caches disabled process-wide, or a governed budget is installed (a
/// cache hit would skip the FM charge points a starved analysis is
/// contractually required to hit).
FeasibilityCache* usableFeasibilityCache() {
  if (!cachesEnabled()) return nullptr;
  if (AnalysisBudget* b = AnalysisBudget::current())
    if (b->governed()) return nullptr;
  return &FeasibilityCache::global();
}

// System::verdict_ encoding: the cache generation shifted left by 3, then
// a "filled by the keyed path" bit (a repeat counts as a cache hit), the
// answer, and a "known" bit.
constexpr uint64_t kVerdictKnown = 1;
constexpr uint64_t kVerdictFeasible = 2;
constexpr uint64_t kVerdictKeyed = 4;
constexpr uint64_t kVerdictFlags = 7;
constexpr int kVerdictGenShift = 3;

}  // namespace

bool System::feasible() const {
  // The remembered verdict stands in for the cache: it is consulted and
  // filled only when the cache is usable, and only for the generation
  // (FeasibilityCache::clear count) that answered it.
  FeasibilityCache* cache = usableFeasibilityCache();
  uint64_t gen = cache ? cache->generation() << kVerdictGenShift : 0;
  if (cache) {
    uint64_t v = verdict_.load(kRelaxed);
    if ((v & kVerdictKnown) && (v & ~kVerdictFlags) == gen) {
      if (v & kVerdictKeyed) PerfStats::instance().feasibility.hit();
      return (v & kVerdictFeasible) != 0;
    }
  }
  auto remember = [&](bool feasible, bool keyed) {
    if (cache)
      verdict_.store(gen | kVerdictKnown | (feasible ? kVerdictFeasible : 0) |
                         (keyed ? kVerdictKeyed : 0),
                     kRelaxed);
    return feasible;
  };

  System copy = *this;
  if (!copy.normalize()) return remember(false, false);
  if (copy.trivial()) return remember(true, false);
  if (!cache)
    return eliminateFeasibility(std::move(copy)) != Feasibility::Infeasible;
  // Key the *normalized* system so structurally equal queries (up to
  // variable renaming) share one entry across programs and threads.
  std::string key = canonicalSystemKey(copy);
  CacheStats& stats = PerfStats::instance().feasibility;
  if (std::optional<Feasibility> hit = cache->lookup(key)) {
    stats.hit();
    return remember(*hit != Feasibility::Infeasible, true);
  }
  stats.miss();
  Feasibility f = eliminateFeasibility(std::move(copy));
  cache->insert(key, f);
  stats.insert();
  return remember(f != Feasibility::Infeasible, true);
}

std::vector<VarId> System::usedVars() const {
  std::vector<VarId> vars;
  for (const auto& c : constraints_)
    for (const auto& [v, coeff] : c.expr.terms()) vars.push_back(v);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

void System::substitute(VarId v, const LinExpr& repl) {
  forgetVerdict();
  for (auto& c : constraints_) c.expr.substitute(v, repl);
}

bool System::contains(const std::vector<int64_t>& values) const {
  for (const auto& c : constraints_) {
    int64_t val = c.expr.evaluate(values);
    if (c.kind == CmpKind::EQ0 && val != 0) return false;
    if (c.kind == CmpKind::GE0 && val < 0) return false;
  }
  return true;
}

std::string System::str(
    const std::function<std::string(VarId)>& name) const {
  if (constraints_.empty()) return "{ true }";
  std::string out = "{ ";
  for (size_t i = 0; i < constraints_.size(); ++i) {
    if (i) out += "  &&  ";
    out += constraints_[i].str(name);
  }
  out += " }";
  return out;
}

}  // namespace padfa::pb
