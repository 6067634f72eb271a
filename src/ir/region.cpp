#include "ir/region.h"

namespace padfa {

void LoopTree::walkBlock(const BlockStmt& block, const ProcDecl* proc,
                         LoopNode* enclosing) {
  for (const auto& s : block.stmts) {
    switch (s->kind) {
      case StmtKind::For: {
        const auto& loop = static_cast<const ForStmt&>(*s);
        auto node = std::make_unique<LoopNode>();
        node->loop = &loop;
        node->proc = proc;
        node->parent = enclosing;
        node->depth = enclosing ? enclosing->depth + 1 : 0;
        LoopNode* raw = node.get();
        by_stmt_[&loop] = raw;
        nodes_.push_back(std::move(node));
        walkBlock(*loop.body, proc, raw);
        break;
      }
      case StmtKind::If: {
        const auto& ifs = static_cast<const IfStmt&>(*s);
        walkBlock(*ifs.then_block, proc, enclosing);
        if (ifs.else_block) walkBlock(*ifs.else_block, proc, enclosing);
        break;
      }
      case StmtKind::Block:
        walkBlock(static_cast<const BlockStmt&>(*s), proc, enclosing);
        break;
      default:
        break;
    }
  }
}

LoopTree LoopTree::build(const Program& program) {
  LoopTree tree;
  for (const auto& p : program.procs) tree.walkBlock(*p->body, p.get(), nullptr);
  return tree;
}

std::vector<const LoopNode*> LoopTree::allLoops() const {
  std::vector<const LoopNode*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

const LoopNode* LoopTree::nodeFor(const ForStmt* loop) const {
  auto it = by_stmt_.find(loop);
  return it == by_stmt_.end() ? nullptr : it->second;
}

}  // namespace padfa
