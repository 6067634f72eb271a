// Semantic analysis for MF: name resolution, type checking, loop-index
// synthesis, call resolution, and call-graph validation (no recursion).
#pragma once

#include "lang/ast.h"
#include "support/diagnostics.h"

namespace padfa {

/// Run semantic analysis in place. Returns true on success. On success:
///  * every VarRef/ArrayRef has a resolved `decl`,
///  * every CallStmt has `callee_proc` (or `is_sink`),
///  * every expression has a `type`,
///  * every ForStmt has `index_decl` and a stable `loop_id`,
///  * ProcDecl::all_vars lists every variable in local_id order,
///  * the call graph is acyclic.
bool analyze(Program& program, DiagEngine& diags);

}  // namespace padfa
