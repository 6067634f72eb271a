#include "presburger/set.h"

#include <algorithm>

#include "support/budget.h"

namespace padfa::pb {

namespace {

// Cooperative budget check point for piece-level set operations; no-op
// unless a BudgetScope is active on this thread.
void chargePieces(size_t n) {
  if (AnalysisBudget* budget = AnalysisBudget::current())
    budget->chargePieces(n);
}

}  // namespace

void Set::simplify() {
  std::vector<System> out;
  for (auto& p : pieces_) {
    System q = p;
    if (!q.normalize()) continue;
    if (!q.feasible()) continue;
    if (std::find(out.begin(), out.end(), q) != out.end()) continue;
    out.push_back(std::move(q));
  }
  pieces_ = std::move(out);
}

bool Set::isEmpty() const {
  for (const auto& p : pieces_)
    if (p.feasible()) return false;
  return true;
}

void Set::unionWith(const Set& o) {
  chargePieces(o.pieces_.size());
  exact_ = exact_ && o.exact_;
  pieces_.insert(pieces_.end(), o.pieces_.begin(), o.pieces_.end());
  if (pieces_.size() > kMaxPieces) {
    simplify();
    // Still too many: keep everything (sound for may-sets) but mark
    // inexact so must-reasoning refuses to rely on this set.
    if (pieces_.size() > kMaxPieces) exact_ = false;
  }
}

Set Set::intersect(const Set& o) const {
  chargePieces(pieces_.size() * o.pieces_.size());
  Set out;
  out.exact_ = exact_ && o.exact_;
  for (const auto& a : pieces_) {
    for (const auto& b : o.pieces_) {
      System s = a;
      s.conjoin(b);
      if (!s.normalize()) continue;
      out.pieces_.push_back(std::move(s));
    }
  }
  out.simplify();
  return out;
}

Set Set::subtract(const Set& o) const {
  // Start with our pieces; subtract each piece of o in turn.
  std::vector<System> cur = pieces_;
  bool exact = exact_ && o.exact_;
  for (const auto& b : o.pieces_) {
    const auto& bcs = b.constraints();
    std::vector<System> next;
    bool overflowed = false;
    for (const auto& a : cur) {
      // Fast path: if a ∩ b infeasible, b removes nothing from a.
      {
        System probe = a;
        probe.conjoin(b);
        if (!probe.normalize() || !probe.feasible()) {
          next.push_back(a);
          continue;
        }
      }
      // Split: a − b = ∪_j (a ∧ c_1..c_{j−1} ∧ ¬c_j), integer-exact.
      // Equalities are expanded as two GE constraints for the split.
      std::vector<Constraint> ges;
      for (const auto& c : bcs) {
        if (c.kind == CmpKind::GE0) {
          ges.push_back(c);
        } else {
          ges.push_back(Constraint::ge0(c.expr));
          ges.push_back(Constraint::ge0(c.expr.negated()));
        }
      }
      chargePieces(ges.size());
      System prefix = a;
      for (size_t j = 0; j < ges.size(); ++j) {
        System piece = prefix;
        piece.add(ges[j].negatedGE());
        if (piece.normalize() && piece.feasible())
          next.push_back(std::move(piece));
        prefix.add(ges[j]);
        if (next.size() > 4 * kMaxPieces) break;
      }
      if (next.size() > 4 * kMaxPieces) {
        // Give up on this subtraction step: keep `a` whole (superset).
        next.push_back(a);
        overflowed = true;
      }
    }
    cur = std::move(next);
    if (overflowed) exact = false;
  }
  Set out;
  out.pieces_ = std::move(cur);
  out.exact_ = exact;
  out.simplify();
  if (out.pieces_.size() > kMaxPieces) out.exact_ = false;
  return out;
}

bool Set::isSubsetOf(const Set& o) const {
  if (isEmpty()) return true;
  Set diff = subtract(o);
  return diff.exact() && diff.isEmpty();
}

void Set::constrain(const System& s) {
  for (auto& p : pieces_) p.conjoin(s);
  simplify();
}

void Set::projectOnto(const VarFilter& keep) {
  std::vector<System> out;
  bool exact = true;
  for (auto& p : pieces_) {
    System q = std::move(p);
    if (!q.projectOntoTracked(keep, exact)) continue;  // infeasible piece
    out.push_back(std::move(q));
  }
  pieces_ = std::move(out);
  if (!exact) exact_ = false;
  simplify();
}

void Set::substitute(VarId v, const LinExpr& repl) {
  for (auto& p : pieces_) p.substitute(v, repl);
}

bool Set::contains(const std::vector<int64_t>& values) const {
  for (const auto& p : pieces_)
    if (p.contains(values)) return true;
  return false;
}

std::string Set::str(const std::function<std::string(VarId)>& name) const {
  if (pieces_.empty()) return "{}";
  std::string out;
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (i) out += " ∪ ";
    out += pieces_[i].str(name);
  }
  if (!exact_) out += " (approx)";
  return out;
}

}  // namespace padfa::pb
