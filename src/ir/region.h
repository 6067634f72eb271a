// Region-graph view of an MF program.
//
// The paper's hierarchical "region graph" has nodes for basic blocks, loop
// bodies, loops, procedure calls, and procedure bodies. MF's AST is
// already structured, so regions map 1:1 onto AST nodes; this module
// materializes the loop tree (loops with nesting) that drives the
// evaluation tables. The call graph lives in ipa/callgraph.h.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "lang/ast.h"

namespace padfa {

struct LoopNode {
  const ForStmt* loop = nullptr;
  const ProcDecl* proc = nullptr;
  LoopNode* parent = nullptr;  // enclosing loop in the same procedure
  int depth = 0;  // 0 = outermost in its procedure
};

/// Loop forest of a whole program.
class LoopTree {
 public:
  /// Build from an analyzed program (Sema must have run).
  static LoopTree build(const Program& program);

  /// All loops in source order per procedure, outer loops first.
  std::vector<const LoopNode*> allLoops() const;
  const LoopNode* nodeFor(const ForStmt* loop) const;

  size_t loopCount() const { return nodes_.size(); }

 private:
  void walkBlock(const BlockStmt& block, const ProcDecl* proc,
                 LoopNode* enclosing);

  std::vector<std::unique_ptr<LoopNode>> nodes_;
  std::map<const ForStmt*, LoopNode*> by_stmt_;
};

}  // namespace padfa
