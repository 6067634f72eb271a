// Interprocedural call graph over the MF AST — the program's only one.
// Sema's recursion check, the analysis's bottom-up procedure order, the
// value-range pass's top-down order and the incremental engine all read
// it.
//
// Nodes are procedures (in Program::procs order), edges are call sites
// (CallStmt::callee_proc; builtin sink() calls have no callee and add no
// edge). On top of the raw graph this module computes the Tarjan SCC
// condensation — Sema rejects recursion, so every SCC is a singleton in
// practice, but the condensation is computed generally so the
// change-impact machinery stays correct if the language ever grows
// recursion — plus the two closures the incremental engine needs:
//
//   reachableFrom(entry): the procedures whose summaries can feed an
//     analysis rooted at `entry` (drives deep fingerprints and the
//     padfa-dead-proc lint checker);
//   ancestorClosure(changed): changed procedures plus every transitive
//     caller, widened to whole SCCs — the *dirty set* that must be
//     re-analyzed after an edit, because the bottom-up analysis of any
//     caller consumed a (now stale) callee summary.
//
// Everything is deterministic: procedures keep program order, callee /
// caller lists are deduplicated in program order, and SCC ids are
// assigned in bottom-up (callee-before-caller) order.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "lang/ast.h"

namespace padfa::ipa {

class CallGraph {
 public:
  /// Build from a program whose calls are resolved (Sema's recursion
  /// check builds one before it has accepted the program).
  static CallGraph build(const Program& program);

  /// All procedures, in Program::procs order.
  const std::vector<const ProcDecl*>& procs() const { return procs_; }

  /// Distinct direct callees of `p`, in program order.
  const std::vector<const ProcDecl*>& callees(const ProcDecl* p) const;
  /// Distinct direct callers of `p`, in program order.
  const std::vector<const ProcDecl*>& callers(const ProcDecl* p) const;
  /// Number of distinct call sites caller -> callee (0 when no edge).
  size_t callSites(const ProcDecl* caller, const ProcDecl* callee) const;

  // --- SCC condensation ---
  size_t sccCount() const { return scc_members_.size(); }
  /// SCC id of `p`; ids are assigned in callee-before-caller order, so
  /// `sccOf(callee) < sccOf(caller)` whenever the two differ.
  size_t sccOf(const ProcDecl* p) const;
  /// Members of one SCC, in program order.
  const std::vector<const ProcDecl*>& sccMembers(size_t scc) const;

  /// Procedures in callee-before-caller order: repeated passes in
  /// program order, each emitting a procedure once every callee outside
  /// its own SCC has been emitted. This is the order the analysis
  /// summarizes procedures in, so it also fixes the order VarIds are
  /// assigned and the prefix a governed budget degrades.
  std::vector<const ProcDecl*> bottomUpOrder() const;

  /// Procedures reachable from `entry` through call edges, including
  /// `entry` itself.
  std::set<const ProcDecl*> reachableFrom(const ProcDecl* entry) const;

  /// The dirty set for an edit: `changed` plus all transitive callers,
  /// widened to whole SCCs.
  std::set<const ProcDecl*> ancestorClosure(
      const std::set<const ProcDecl*>& changed) const;

 private:
  std::vector<const ProcDecl*> procs_;
  std::map<const ProcDecl*, std::vector<const ProcDecl*>> callees_;
  std::map<const ProcDecl*, std::vector<const ProcDecl*>> callers_;
  std::map<std::pair<const ProcDecl*, const ProcDecl*>, size_t> sites_;
  std::map<const ProcDecl*, size_t> scc_of_;
  std::vector<std::vector<const ProcDecl*>> scc_members_;
};

}  // namespace padfa::ipa
