// Deep (de)serialization of finalized procedure analysis state — the
// RegionSummary and LoopPlans of one procedure under one analysis kind —
// so the interprocedural translate-cache itself survives restarts, not
// just rendered responses.
//
// Why "deep": plan-signature bytes embed interner symbol ids,
// program-wide VarDecl uids, and line-number loop_ids, all of which
// shift when an unrelated earlier procedure is edited. These records
// instead reference program entities by *rebindable* coordinates —
// declarations by local_id within the owning procedure, loops by
// pre-order ordinal within the procedure — and are decoded against the
// freshly parsed AST, after which re-rendered signatures match a cold
// run of the edited source byte for byte.
//
// The VarId preamble: Presburger LinExprs are sparse sorted term lists
// over dense VarIds whose *relative creation order* is observable
// (term order, elimination order). Each record opens with the owning
// procedure's id-carrying declarations in ascending cold-run VarId
// order (with their forward-substitution aliases); decode replays
// VarTable::idFor over that list at the replayed procedure's bottom-up
// slot, reproducing the cold run's relative id order exactly.
//
// Fail-soft contract: encodeDeepProc returns false (and encodes
// nothing) whenever the state is not safely rebindable — a degraded
// summary/plan, or a reference to a synthetic variable or a declaration
// not owned by the procedure. The incremental engine then simply keeps
// that procedure in the dirty set. decode* validates every byte; any
// violation returns false with a diagnostic, never a partial result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/loop_plan.h"
#include "dataflow/summary.h"
#include "symbolic/vartable.h"

namespace padfa::store {

/// Bumped whenever the deep record layout changes. Independent of the
/// snapshot's kFormatVersion (which covers the record framing).
inline constexpr uint8_t kDeepCodecVersion = 1;

/// Analysis kind half of a deep record's key.
inline constexpr uint8_t kDeepKindBase = 0;
inline constexpr uint8_t kDeepKindPred = 1;

struct DeepEncodeInput {
  const Program* program = nullptr;
  const ProcDecl* proc = nullptr;
  /// The finalized (post-finalizeProcSummary) summary of `proc`.
  const RegionSummary* summary = nullptr;
  /// The analyzer's VarTable view (AnalysisResult::vars).
  const ExportedVarTable* vars = nullptr;
  /// Plans for the procedure's loops in procLoopsInOrder() order.
  std::vector<const LoopPlan*> plans;
};

/// Serialize one procedure's analysis state. Returns false (fail-soft,
/// `err` says why) when the state is not rebindable; `out` is then
/// untouched.
bool encodeDeepProc(const DeepEncodeInput& in, std::string& out,
                    std::string& err);

/// Decode a record against a freshly parsed program in one pass: the
/// summary half, creating VarIds (and aliases) in `vt` in cold-run order,
/// and the plan half, rebinding each plan to the procedure's loops by
/// pre-order ordinal. `proc` must be the procedure the record was encoded
/// from (same canonical content). On failure (`err` says why) `summary`
/// and `plans` are cleared and `vt` is left untouched.
bool decodeDeepProc(const Program& program, const ProcDecl& proc,
                    std::string_view bytes, VarTable& vt,
                    RegionSummary& summary, std::vector<LoopPlan>& plans,
                    std::string& err);

/// The procedure's loops in deterministic pre-order (the codec's loop
/// ordinal space).
std::vector<const ForStmt*> procLoopsInOrder(const ProcDecl& proc);

}  // namespace padfa::store
