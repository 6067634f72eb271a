// Conjunctions of integer linear constraints (one convex piece), with
// Fourier–Motzkin elimination and rational feasibility testing.
//
// Soundness direction: feasible() may answer true for a system with no
// integer solutions (rational relaxation), but never answers false for a
// system that has integer points. Clients prove *independence* /
// *coverage* from infeasibility, so the relaxation is conservative.
// Equality gcd checks and GE-constraint tightening recover the common
// integer-only infeasibilities (e.g. 2i == 2j+1).
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "presburger/linexpr.h"

namespace padfa::pb {

enum class CmpKind : uint8_t {
  GE0,  // expr >= 0
  EQ0,  // expr == 0
};

struct Constraint {
  LinExpr expr;
  CmpKind kind = CmpKind::GE0;

  static Constraint ge0(LinExpr e) { return {std::move(e), CmpKind::GE0}; }
  static Constraint eq0(LinExpr e) { return {std::move(e), CmpKind::EQ0}; }

  /// Integer negation of a GE0 constraint: !(e >= 0)  ==  (-e - 1 >= 0).
  /// Only valid for GE0.
  Constraint negatedGE() const;

  bool operator==(const Constraint& o) const = default;
  std::string str(
      const std::function<std::string(VarId)>& name = nullptr) const;
};

/// A conjunction of constraints over integer-valued variables.
class System {
 public:
  System() = default;
  System(const System& o)
      : constraints_(o.constraints_), verdict_(o.verdict_.load(kRelaxed)) {}
  System(System&& o) noexcept
      : constraints_(std::move(o.constraints_)),
        verdict_(o.verdict_.exchange(0, kRelaxed)) {}
  System& operator=(const System& o) {
    constraints_ = o.constraints_;
    verdict_.store(o.verdict_.load(kRelaxed), kRelaxed);
    return *this;
  }
  System& operator=(System&& o) noexcept {
    constraints_ = std::move(o.constraints_);
    verdict_.store(o.verdict_.exchange(0, kRelaxed), kRelaxed);
    return *this;
  }

  void add(Constraint c) {
    forgetVerdict();
    constraints_.push_back(std::move(c));
  }
  void addGE0(LinExpr e) { add(Constraint::ge0(std::move(e))); }
  void addEQ0(LinExpr e) { add(Constraint::eq0(std::move(e))); }
  void conjoin(const System& o);

  const std::vector<Constraint>& constraints() const { return constraints_; }
  size_t size() const { return constraints_.size(); }
  bool trivial() const { return constraints_.empty(); }

  /// Normalize in place: gcd-reduce, tighten GE constants, drop trivially
  /// true constraints, dedupe, keep the tightest of parallel constraints,
  /// then run quickInfeasible(). Returns false if a constraint is detected
  /// to be unsatisfiable (the system is then in an unspecified state and
  /// must be treated as empty).
  ///
  /// Order contract: on success the constraints are sorted by kind (all
  /// GE0 before all EQ0), then by term vector (lexicographic over
  /// (VarId, coeff) pairs), with exactly one constraint per (kind, term
  /// vector) key and none constant. Printed systems and canonical keys
  /// depend on this order. Normalizing a normalized system is a no-op.
  bool normalize();

  /// Eliminate `v` by Fourier–Motzkin (using equality substitution when an
  /// equality involving v exists). The result describes the rational shadow
  /// (superset of the integer projection). Returns false if infeasibility
  /// was detected during elimination.
  bool eliminate(VarId v);

  /// Like eliminate(), but clears `exact` when the projection may be a
  /// strict superset of the integer projection (some eliminated pair had
  /// both coefficients with |a| > 1 — the unit-coefficient FM exactness
  /// condition — or the work limit forced an over-approximation).
  bool eliminateTracked(VarId v, bool& exact);

  /// Eliminate every variable not accepted by `keep`.
  /// Returns false on detected infeasibility.
  bool projectOnto(const VarFilter& keep);

  /// Tracked variant of projectOnto (see eliminateTracked).
  bool projectOntoTracked(const VarFilter& keep, bool& exact);

  /// Rational feasibility (with integer gcd/tightening refinements).
  /// While the feasibility cache is usable (see feasibility_cache.h) the
  /// answer is also remembered on this System, so asking again before a
  /// mutation costs one atomic load.
  bool feasible() const;

  /// All VarIds appearing with nonzero coefficient, ascending.
  std::vector<VarId> usedVars() const;

  /// Substitute v := repl everywhere (exact, integer).
  void substitute(VarId v, const LinExpr& repl);

  /// Evaluate against a full assignment: true iff all constraints hold.
  bool contains(const std::vector<int64_t>& values) const;

  /// Detect e + a >= 0 together with -e + b >= 0 (a + b < 0) or with
  /// -e + b == 0 (a + b < 0). Cheap, allocation-free check before full
  /// FM. Precondition: the system is normalized (normalize() returned
  /// true and nothing was added since); normalize() already runs it.
  bool quickInfeasible() const;

  std::string str(
      const std::function<std::string(VarId)>& name = nullptr) const;

  /// Compares constraints only; a remembered feasibility verdict is not
  /// part of the value.
  bool operator==(const System& o) const {
    return constraints_ == o.constraints_;
  }

  /// Work limit for feasibility/elimination: when the constraint count
  /// would exceed this, elimination bails out and feasible() answers true
  /// (the conservative direction).
  static constexpr size_t kMaxConstraints = 2048;

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  void forgetVerdict() { verdict_.store(0, kRelaxed); }

  std::vector<Constraint> constraints_;
  /// feasible()'s remembered answer for the current constraints, stamped
  /// with the feasibility cache's generation (0 = none; encoding in
  /// system.cpp). Relaxed atomic: concurrent const queries may fill it.
  mutable std::atomic<uint64_t> verdict_{0};
};

}  // namespace padfa::pb
