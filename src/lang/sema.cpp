#include "lang/sema.h"

#include <map>
#include <vector>

#include "ipa/callgraph.h"

namespace padfa {

namespace {

class Sema {
 public:
  Sema(Program& program, DiagEngine& diags)
      : program_(program), diags_(diags) {}

  bool run() {
    // Register procedures first so calls can be resolved in any order.
    for (auto& p : program_.procs) {
      if (procs_.count(p->name)) {
        diags_.error(p->loc, "duplicate procedure '" +
                                 std::string(name(p->name)) + "'");
      }
      procs_[p->name] = p.get();
    }
    for (auto& p : program_.procs) checkProc(*p);
    if (!diags_.hasErrors()) checkCallGraph();
    return !diags_.hasErrors();
  }

 private:
  std::string_view name(Symbol s) const { return program_.interner.str(s); }

  void checkProc(ProcDecl& proc) {
    cur_proc_ = &proc;
    next_local_id_ = 0;
    proc.all_vars.clear();
    scopes_.clear();
    scopes_.emplace_back();
    // Declare all parameters first: array dimension expressions may
    // reference any parameter, including ones declared later in the list
    // (Fortran-style assumed-shape arrays).
    for (auto& param : proc.params) declare(param.get());
    for (auto& param : proc.params) {
      for (auto& dim : param->dims) {
        checkExpr(*dim);
        requireInt(*dim, "array dimension");
      }
      if (param->init) {
        diags_.error(param->loc, "parameters cannot have initializers");
      }
    }
    checkBlock(*proc.body, /*new_scope=*/false);
    scopes_.pop_back();
    cur_proc_ = nullptr;
  }

  void declare(VarDecl* d) {
    // Same-scope redeclaration is an error; shadowing an *enclosing*
    // scope's binding is legal (innermost wins) and left to MF-lint's
    // padfa-shadow checker to flag.
    if (scopes_.back().count(d->name)) {
      diags_.error(d->loc, "redeclaration of '" +
                               std::string(name(d->name)) +
                               "' in the same scope");
      return;
    }
    d->local_id = next_local_id_++;
    d->uid = next_uid_++;  // program-wide; never reset between procs
    scopes_.back()[d->name] = d;
    cur_proc_->all_vars.push_back(d);
  }

  VarDecl* lookup(Symbol s) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(s);
      if (f != it->end()) return f->second;
    }
    return nullptr;
  }

  void checkBlock(BlockStmt& block, bool new_scope = true) {
    if (new_scope) scopes_.emplace_back();
    for (auto& d : block.decls) {
      for (auto& dim : d->dims) {
        checkExpr(*dim);
        requireInt(*dim, "array dimension");
      }
      if (d->init) {
        checkExpr(*d->init);
        if (d->isArray()) {
          diags_.error(d->loc, "array declarations cannot have initializers");
        } else if (d->elem_type == Type::Int && d->init->type == Type::Real) {
          diags_.error(d->loc, "cannot initialize int from real");
        }
      }
      declare(d.get());
    }
    for (auto& s : block.stmts) checkStmt(*s);
    if (new_scope) scopes_.pop_back();
  }

  void checkStmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::Assign: checkAssign(static_cast<AssignStmt&>(stmt)); break;
      case StmtKind::If: {
        auto& s = static_cast<IfStmt&>(stmt);
        checkExpr(*s.cond);
        requireInt(*s.cond, "if condition");
        checkBlock(*s.then_block);
        if (s.else_block) checkBlock(*s.else_block);
        break;
      }
      case StmtKind::For: checkFor(static_cast<ForStmt&>(stmt)); break;
      case StmtKind::Call: checkCall(static_cast<CallStmt&>(stmt)); break;
      case StmtKind::Return: break;
      case StmtKind::Block:
        checkBlock(static_cast<BlockStmt&>(stmt));
        break;
    }
  }

  void checkAssign(AssignStmt& s) {
    checkExpr(*s.value);
    if (s.target->kind == ExprKind::VarRef) {
      auto& ref = static_cast<VarRefExpr&>(*s.target);
      VarDecl* d = lookup(ref.name);
      if (!d) {
        diags_.error(ref.loc,
                     "undeclared variable '" + std::string(name(ref.name)) + "'");
        return;
      }
      if (d->isArray()) {
        diags_.error(ref.loc, "cannot assign to whole array '" +
                                  std::string(name(ref.name)) + "'");
        return;
      }
      if (d->is_loop_index) {
        diags_.error(ref.loc, "cannot assign to loop index '" +
                                  std::string(name(ref.name)) + "'");
        return;
      }
      ref.decl = d;
      ref.type = d->elem_type;
    } else {
      checkExpr(*s.target);  // resolves ArrayRef
    }
    if (s.target->type == Type::Int && s.value->type == Type::Real) {
      diags_.error(s.loc, "cannot assign real value to int target");
    }
  }

  void checkFor(ForStmt& s) {
    checkExpr(*s.lower);
    requireInt(*s.lower, "loop lower bound");
    checkExpr(*s.upper);
    requireInt(*s.upper, "loop upper bound");
    if (s.step) {
      checkExpr(*s.step);
      requireInt(*s.step, "loop step");
    }
    auto idx = std::make_unique<VarDecl>();
    idx->elem_type = Type::Int;
    idx->name = s.index_name;
    idx->loc = s.loc;
    idx->is_loop_index = true;
    s.index_decl = idx.get();
    s.loop_id = std::string(name(cur_proc_->name)) + "/L" +
                std::to_string(s.loc.line);
    scopes_.emplace_back();
    declare(idx.get());
    cur_proc_->synthesized.push_back(std::move(idx));
    checkBlock(*s.body, /*new_scope=*/false);
    scopes_.pop_back();
  }

  void checkCall(CallStmt& s) {
    if (name(s.callee) == "sink") {
      s.is_sink = true;
      if (s.args.size() != 1) {
        diags_.error(s.loc, "sink() takes exactly one scalar argument");
        return;
      }
      checkExpr(*s.args[0]);
      return;
    }
    auto it = procs_.find(s.callee);
    if (it == procs_.end()) {
      diags_.error(s.loc,
                   "call to undeclared procedure '" +
                       std::string(name(s.callee)) + "'");
      return;
    }
    s.callee_proc = it->second;
    const auto& params = s.callee_proc->params;
    if (s.args.size() != params.size()) {
      diags_.error(s.loc, "procedure '" + std::string(name(s.callee)) +
                              "' expects " + std::to_string(params.size()) +
                              " argument(s), got " +
                              std::to_string(s.args.size()));
      return;
    }
    for (size_t i = 0; i < s.args.size(); ++i) {
      Expr& arg = *s.args[i];
      const VarDecl& param = *params[i];
      if (param.isArray()) {
        // Must be a bare array name (whole-array pass by reference).
        if (arg.kind != ExprKind::VarRef) {
          diags_.error(arg.loc, "argument for array parameter '" +
                                    std::string(name(param.name)) +
                                    "' must be a whole array");
          continue;
        }
        auto& ref = static_cast<VarRefExpr&>(arg);
        VarDecl* d = lookup(ref.name);
        if (!d) {
          diags_.error(arg.loc, "undeclared variable '" +
                                    std::string(name(ref.name)) + "'");
          continue;
        }
        ref.decl = d;
        if (!d->isArray()) {
          diags_.error(arg.loc, "scalar passed where array expected");
          continue;
        }
        if (d->elem_type != param.elem_type) {
          diags_.error(arg.loc, "array element type mismatch in call");
        }
        // Rank may differ (reshape/delinearization across the call is
        // handled by the analysis); sizes are checked at run time.
        ref.type = d->elem_type;
      } else {
        checkExpr(arg);
        if (arg.kind == ExprKind::VarRef) {
          auto& ref = static_cast<VarRefExpr&>(arg);
          if (ref.decl && ref.decl->isArray()) {
            diags_.error(arg.loc, "array passed where scalar expected");
            continue;
          }
        }
        if (param.elem_type == Type::Int && arg.type == Type::Real) {
          diags_.error(arg.loc, "real argument for int parameter");
        }
      }
    }
  }

  void checkExpr(Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: e.type = Type::Int; break;
      case ExprKind::RealLit: e.type = Type::Real; break;
      case ExprKind::VarRef: {
        auto& ref = static_cast<VarRefExpr&>(e);
        VarDecl* d = lookup(ref.name);
        if (!d) {
          diags_.error(e.loc, "undeclared variable '" +
                                  std::string(name(ref.name)) + "'");
          return;
        }
        if (d->isArray()) {
          diags_.error(e.loc, "whole array '" + std::string(name(ref.name)) +
                                  "' used in expression (subscript it, or "
                                  "pass it as a call argument)");
          return;
        }
        ref.decl = d;
        e.type = d->elem_type;
        break;
      }
      case ExprKind::ArrayRef: {
        auto& ref = static_cast<ArrayRefExpr&>(e);
        VarDecl* d = lookup(ref.name);
        if (!d) {
          diags_.error(e.loc, "undeclared variable '" +
                                  std::string(name(ref.name)) + "'");
          return;
        }
        if (!d->isArray()) {
          diags_.error(e.loc, "subscripting scalar '" +
                                  std::string(name(ref.name)) + "'");
          return;
        }
        if (ref.indices.size() != d->rank()) {
          diags_.error(e.loc, "array '" + std::string(name(ref.name)) +
                                  "' has rank " + std::to_string(d->rank()) +
                                  ", subscripted with " +
                                  std::to_string(ref.indices.size()) +
                                  " indices");
          return;
        }
        for (auto& idx : ref.indices) {
          checkExpr(*idx);
          requireInt(*idx, "array subscript");
        }
        ref.decl = d;
        e.type = d->elem_type;
        break;
      }
      case ExprKind::Unary: {
        auto& u = static_cast<UnaryExpr&>(e);
        checkExpr(*u.operand);
        if (u.op == UnOp::Not) {
          requireInt(*u.operand, "operand of '!'");
          e.type = Type::Int;
        } else {
          e.type = u.operand->type;
        }
        break;
      }
      case ExprKind::Binary: {
        auto& b = static_cast<BinaryExpr&>(e);
        checkExpr(*b.lhs);
        checkExpr(*b.rhs);
        if (isLogical(b.op)) {
          requireInt(*b.lhs, "logical operand");
          requireInt(*b.rhs, "logical operand");
          e.type = Type::Int;
        } else if (isComparison(b.op)) {
          e.type = Type::Int;
        } else if (b.op == BinOp::Rem) {
          requireInt(*b.lhs, "'%' operand");
          requireInt(*b.rhs, "'%' operand");
          e.type = Type::Int;
        } else {
          e.type = (b.lhs->type == Type::Real || b.rhs->type == Type::Real)
                       ? Type::Real
                       : Type::Int;
        }
        break;
      }
      case ExprKind::Intrinsic: {
        auto& c = static_cast<IntrinsicExpr&>(e);
        for (auto& a : c.args) checkExpr(*a);
        auto arity = [&](size_t n) {
          if (c.args.size() != n)
            diags_.error(e.loc, "intrinsic takes " + std::to_string(n) +
                                    " argument(s)");
          return c.args.size() == n;
        };
        switch (c.fn) {
          case Intrinsic::Min:
          case Intrinsic::Max:
            if (arity(2))
              e.type = (c.args[0]->type == Type::Real ||
                        c.args[1]->type == Type::Real)
                           ? Type::Real
                           : Type::Int;
            break;
          case Intrinsic::Abs:
            if (arity(1)) e.type = c.args[0]->type;
            break;
          case Intrinsic::Sqrt:
            if (arity(1)) e.type = Type::Real;
            break;
          case Intrinsic::Noise:
            if (arity(1)) {
              requireInt(*c.args[0], "noise() argument");
              e.type = Type::Real;
            }
            break;
          case Intrinsic::INoise:
            if (arity(2)) {
              requireInt(*c.args[0], "inoise() argument");
              requireInt(*c.args[1], "inoise() argument");
              e.type = Type::Int;
            }
            break;
        }
        break;
      }
    }
  }

  void requireInt(const Expr& e, std::string_view what) {
    if (e.type != Type::Int)
      diags_.error(e.loc, std::string(what) + " must have type int");
  }

  void checkCallGraph() {
    ipa::CallGraph cg = ipa::CallGraph::build(program_);
    for (const ProcDecl* p : cg.procs()) {
      if (cg.sccMembers(cg.sccOf(p)).size() == 1 && !cg.callSites(p, p))
        continue;
      diags_.error(p->loc, "recursive call cycle involving procedure '" +
                               std::string(name(p->name)) +
                               "' (MF forbids recursion)");
      return;
    }
  }

  Program& program_;
  DiagEngine& diags_;
  std::map<Symbol, ProcDecl*> procs_;
  std::vector<std::map<Symbol, VarDecl*>> scopes_;
  ProcDecl* cur_proc_ = nullptr;
  uint32_t next_local_id_ = 0;
  uint32_t next_uid_ = 1;  // 0 stays "never declared"
};

}  // namespace

bool analyze(Program& program, DiagEngine& diags) {
  Sema sema(program, diags);
  return sema.run();
}

}  // namespace padfa
