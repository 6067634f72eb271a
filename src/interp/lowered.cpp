#include "interp/lowered.h"

#include <algorithm>
#include <limits>
#include <map>

#include "audit/race_oracle.h"
#include "dataflow/doacross.h"
#include "predicate/pred.h"
#include "runtime/elpd.h"

namespace padfa::lowered {
namespace {

class Lowerer {
 public:
  Lowerer(const Program& program, const LowerOptions& opt)
      : program_(program), opt_(opt) {}

  Code run() {
    for (size_t k = 0; k < program_.procs.size(); ++k)
      proc_index_[program_.procs[k].get()] = static_cast<uint32_t>(k);
    code_.procs.resize(program_.procs.size());
    for (size_t k = 0; k < program_.procs.size(); ++k) lowerProc(k);
    for (ForCode& fc : code_.loops)
      if (fc.plan && fc.plan->status == LoopStatus::Doacross)
        fc.doa = doaTables(*fc.plan);
    return std::move(code_);
  }

 private:
  struct Typed {
    uint32_t node;
    Type type;
  };

  static uint32_t u32(size_t n) { return static_cast<uint32_t>(n); }

  uint32_t emit(Op op, const Expr& src, uint32_t a = 0, uint32_t b = 0) {
    Node n;
    n.op = op;
    n.a = a;
    n.b = b;
    n.src = &src;
    code_.nodes.push_back(n);
    return u32(code_.nodes.size() - 1);
  }

  // ------------------------------------------------------ expressions --

  /// Convert a lowered value to `want`, the way the AST evaluator's
  /// asReal()/asInt() did. An int literal promoted to real becomes a real
  /// literal of the same (exactly converted) value.
  uint32_t convert(Typed t, Type want) {
    if (t.type == want) return t.node;
    Node& n = code_.nodes[t.node];
    if (want == Type::Real && n.op == Op::ILit) {
      double r = static_cast<double>(n.k.i);
      n.op = Op::RLit;
      n.k.r = r;
      return t.node;
    }
    return emit(want == Type::Real ? Op::I2R : Op::R2I, *n.src, t.node);
  }

  uint32_t as(const Expr& e, Type want) { return convert(expr(e), want); }

  /// An int node that is nonzero iff `e` is true (a real is true when
  /// nonzero).
  uint32_t truth(const Expr& e) {
    Typed t = expr(e);
    if (t.type == Type::Int) return t.node;
    uint32_t zero = emit(Op::RLit, e);
    code_.nodes[zero].k.r = 0.0;
    return emit(Op::RNe, e, t.node, zero);
  }

  Typed expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: {
        uint32_t n = emit(Op::ILit, e);
        code_.nodes[n].k.i = static_cast<const IntLitExpr&>(e).value;
        return {n, Type::Int};
      }
      case ExprKind::RealLit: {
        uint32_t n = emit(Op::RLit, e);
        code_.nodes[n].k.r = static_cast<const RealLitExpr&>(e).value;
        return {n, Type::Real};
      }
      case ExprKind::VarRef: {
        const VarDecl* d = static_cast<const VarRefExpr&>(e).decl;
        Type t = d->elem_type;
        return {emit(t == Type::Int ? Op::IVar : Op::RVar, e, d->local_id), t};
      }
      case ExprKind::ArrayRef:
        return arrayRef(static_cast<const ArrayRefExpr&>(e));
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        if (u.op == UnOp::Not)
          return {emit(Op::Not, e, truth(*u.operand)), Type::Int};
        Typed v = expr(*u.operand);
        return {emit(v.type == Type::Int ? Op::INeg : Op::RNeg, e, v.node),
                v.type};
      }
      case ExprKind::Binary:
        return binary(static_cast<const BinaryExpr&>(e));
      case ExprKind::Intrinsic:
        return intrinsic(static_cast<const IntrinsicExpr&>(e));
    }
    return {emit(Op::ILit, e), Type::Int};
  }

  Typed binary(const BinaryExpr& b) {
    if (b.op == BinOp::And || b.op == BinOp::Or) {
      uint32_t l = truth(*b.lhs);
      uint32_t r = truth(*b.rhs);
      return {emit(b.op == BinOp::And ? Op::And : Op::Or, b, l, r), Type::Int};
    }
    if (b.op == BinOp::Rem) {
      uint32_t l = as(*b.lhs, Type::Int);
      uint32_t r = as(*b.rhs, Type::Int);
      return {emit(Op::IRem, b, l, r), Type::Int};
    }
    Typed l = expr(*b.lhs);
    Typed r = expr(*b.rhs);
    bool real = l.type == Type::Real || r.type == Type::Real;
    uint32_t ln = convert(l, real ? Type::Real : Type::Int);
    uint32_t rn = convert(r, real ? Type::Real : Type::Int);
    Op op;
    Type result = real ? Type::Real : Type::Int;
    switch (b.op) {
      case BinOp::Add: op = real ? Op::RAdd : Op::IAdd; break;
      case BinOp::Sub: op = real ? Op::RSub : Op::ISub; break;
      case BinOp::Mul: op = real ? Op::RMul : Op::IMul; break;
      case BinOp::Div: op = real ? Op::RDiv : Op::IDiv; break;
      case BinOp::Eq: op = real ? Op::REq : Op::IEq; result = Type::Int; break;
      case BinOp::Ne: op = real ? Op::RNe : Op::INe; result = Type::Int; break;
      case BinOp::Lt: op = real ? Op::RLt : Op::ILt; result = Type::Int; break;
      case BinOp::Le: op = real ? Op::RLe : Op::ILe; result = Type::Int; break;
      case BinOp::Gt: op = real ? Op::RGt : Op::IGt; result = Type::Int; break;
      case BinOp::Ge: op = real ? Op::RGe : Op::IGe; result = Type::Int; break;
      default: op = Op::IAdd; break;  // And/Or/Rem handled above
    }
    return {emit(op, b, ln, rn), result};
  }

  Typed intrinsic(const IntrinsicExpr& c) {
    switch (c.fn) {
      case Intrinsic::Min:
      case Intrinsic::Max: {
        Typed l = expr(*c.args[0]);
        Typed r = expr(*c.args[1]);
        bool real = l.type == Type::Real || r.type == Type::Real;
        Type t = real ? Type::Real : Type::Int;
        Op op = c.fn == Intrinsic::Min ? (real ? Op::RMin : Op::IMin)
                                       : (real ? Op::RMax : Op::IMax);
        return {emit(op, c, convert(l, t), convert(r, t)), t};
      }
      case Intrinsic::Abs: {
        Typed v = expr(*c.args[0]);
        return {emit(v.type == Type::Int ? Op::IAbs : Op::RAbs, c, v.node),
                v.type};
      }
      case Intrinsic::Sqrt:
        return {emit(Op::Sqrt, c, as(*c.args[0], Type::Real)), Type::Real};
      case Intrinsic::Noise:
        return {emit(Op::Noise, c, as(*c.args[0], Type::Int)), Type::Real};
      case Intrinsic::INoise: {
        uint32_t x = as(*c.args[0], Type::Int);
        uint32_t m = as(*c.args[1], Type::Int);
        return {emit(Op::INoise, c, x, m), Type::Int};
      }
    }
    return {emit(Op::ILit, c), Type::Int};
  }

  /// `e` as a fused subscript, when it is an int scalar, an int literal,
  /// or `var + c`, `c + var`, `var - c`.
  bool fusedSub(const Expr& e, Sub& out) const {
    auto scalar = [](const Expr& x) -> const VarDecl* {
      if (x.kind != ExprKind::VarRef) return nullptr;
      const VarDecl* d = static_cast<const VarRefExpr&>(x).decl;
      return d && !d->isArray() && d->elem_type == Type::Int ? d : nullptr;
    };
    auto literal = [](const Expr& x, int64_t& v) {
      if (x.kind != ExprKind::IntLit) return false;
      v = static_cast<const IntLitExpr&>(x).value;
      return true;
    };
    int64_t c = 0;
    if (literal(e, c)) {
      out = {zero_slot_, c, nullptr};
      return true;
    }
    if (const VarDecl* d = scalar(e)) {
      out = {d->local_id, 0, d};
      return true;
    }
    if (e.kind != ExprKind::Binary) return false;
    const auto& b = static_cast<const BinaryExpr&>(e);
    const VarDecl* d = nullptr;
    if (b.op == BinOp::Add) {
      if ((d = scalar(*b.lhs)) && literal(*b.rhs, c)) {
        out = {d->local_id, c, d};
        return true;
      }
      if (literal(*b.lhs, c) && (d = scalar(*b.rhs))) {
        out = {d->local_id, c, d};
        return true;
      }
    } else if (b.op == BinOp::Sub) {
      if ((d = scalar(*b.lhs)) && literal(*b.rhs, c) &&
          c != std::numeric_limits<int64_t>::min()) {
        out = {d->local_id, -c, d};
        return true;
      }
    }
    return false;
  }

  Typed arrayRef(const ArrayRefExpr& r) {
    Type t = r.decl->elem_type;
    std::vector<Sub> subs(r.indices.size());
    bool fused = r.indices.size() <= std::numeric_limits<uint8_t>::max();
    for (size_t j = 0; fused && j < r.indices.size(); ++j)
      fused = fusedSub(*r.indices[j], subs[j]);
    uint32_t first;
    if (fused) {
      first = u32(code_.subs.size());
      code_.subs.insert(code_.subs.end(), subs.begin(), subs.end());
    } else {
      first = intRoots(r.indices);
    }
    Op op = fused ? (t == Type::Int ? Op::IArrF : Op::RArrF)
                  : (t == Type::Int ? Op::IArr : Op::RArr);
    uint32_t n = emit(op, r, r.decl->local_id, first);
    code_.nodes[n].rank = static_cast<uint8_t>(r.indices.size());
    return {n, t};
  }

  /// Lower int-valued expressions and store their roots contiguously in
  /// Code::index_roots; returns the first position.
  uint32_t intRoots(const std::vector<ExprPtr>& exprs) {
    std::vector<uint32_t> roots;
    for (const auto& e : exprs) roots.push_back(as(*e, Type::Int));
    uint32_t first = u32(code_.index_roots.size());
    code_.index_roots.insert(code_.index_roots.end(), roots.begin(),
                             roots.end());
    return first;
  }

  // ------------------------------------------------------- statements --

  uint32_t block(const BlockStmt& b) {
    BlockCode bc;
    std::vector<DeclCode> decls;
    for (const auto& d : b.decls) {
      DeclCode dc;
      dc.decl = d.get();
      dc.slot = d->local_id;
      if (d->isArray()) {
        dc.dims_begin = intRoots(d->dims);
        dc.dims_end = dc.dims_begin + u32(d->dims.size());
      } else if (d->init) {
        dc.init = as(*d->init, d->elem_type);
      }
      decls.push_back(dc);
    }
    bc.decl_begin = u32(code_.decls.size());
    code_.decls.insert(code_.decls.end(), decls.begin(), decls.end());
    bc.decl_end = u32(code_.decls.size());

    // The block's statements take consecutive ids; statements nested in
    // them are appended after.
    bc.stmt_begin = u32(code_.stmts.size());
    bc.stmt_end = bc.stmt_begin + u32(b.stmts.size());
    code_.stmts.resize(bc.stmt_end);
    for (size_t k = 0; k < b.stmts.size(); ++k) {
      SNode s = stmt(*b.stmts[k]);
      code_.stmts[bc.stmt_begin + k] = s;
      // Statement ids only matter to Doacross tables, which need plans.
      if (opt_.plans) stmt_ids_[b.stmts[k].get()] = bc.stmt_begin + u32(k);
    }
    code_.blocks.push_back(bc);
    return u32(code_.blocks.size() - 1);
  }

  SNode stmt(const Stmt& s) {
    SNode n;
    n.src = &s;
    switch (s.kind) {
      case StmtKind::Assign: {
        const auto& as_ = static_cast<const AssignStmt&>(s);
        if (as_.target->kind == ExprKind::ArrayRef) {
          Typed t = arrayRef(static_cast<const ArrayRefExpr&>(*as_.target));
          n.op = t.type == Type::Int ? SOp::StoreI : SOp::StoreR;
          n.a = t.node;
          n.b = as(*as_.value, t.type);
        } else {
          const VarDecl* d =
              static_cast<const VarRefExpr&>(*as_.target).decl;
          n.op = d->elem_type == Type::Int ? SOp::SetI : SOp::SetR;
          n.a = d->local_id;
          n.b = as(*as_.value, d->elem_type);
        }
        return n;
      }
      case StmtKind::If: {
        const auto& ifs = static_cast<const IfStmt&>(s);
        n.op = SOp::If;
        n.a = truth(*ifs.cond);
        n.b = block(*ifs.then_block);
        if (ifs.else_block) n.c = block(*ifs.else_block);
        return n;
      }
      case StmtKind::For:
        n.op = SOp::For;
        n.a = forLoop(static_cast<const ForStmt&>(s));
        return n;
      case StmtKind::Call: {
        const auto& call = static_cast<const CallStmt&>(s);
        if (call.is_sink) {
          n.op = SOp::Sink;
          n.a = as(*call.args[0], Type::Real);
          return n;
        }
        const ProcDecl& callee = *call.callee_proc;
        std::vector<uint32_t> args;
        for (size_t i = 0; i < call.args.size(); ++i) {
          const VarDecl& param = *callee.params[i];
          if (param.isArray())
            args.push_back(
                static_cast<const VarRefExpr&>(*call.args[i]).decl->local_id);
          else
            args.push_back(as(*call.args[i], param.elem_type));
        }
        CallCode cc;
        cc.stmt = &call;
        cc.proc = proc_index_.at(&callee);
        cc.arg_begin = u32(code_.call_args.size());
        code_.call_args.insert(code_.call_args.end(), args.begin(),
                               args.end());
        code_.calls.push_back(cc);
        n.op = SOp::Call;
        n.a = u32(code_.calls.size() - 1);
        return n;
      }
      case StmtKind::Return:
        n.op = SOp::Return;
        return n;
      case StmtKind::Block:
        n.op = SOp::Block;
        n.a = block(static_cast<const BlockStmt&>(s));
        return n;
    }
    return n;
  }

  static void collectAtoms(const Pred& p, std::vector<const Expr*>& out) {
    const PredNode& n = p.node();
    if (n.kind == PredKind::Atom) {
      for (const Expr* e : {n.lhs.get(), n.rhs.get()})
        if (std::find(out.begin(), out.end(), e) == out.end())
          out.push_back(e);
      return;
    }
    for (const Pred& c : n.children) collectAtoms(c, out);
  }

  uint32_t forLoop(const ForStmt& loop) {
    ForCode fc;
    fc.loop = &loop;
    fc.index_slot = loop.index_decl->local_id;
    fc.lower = as(*loop.lower, Type::Int);
    fc.upper = as(*loop.upper, Type::Int);
    if (loop.step) fc.step = as(*loop.step, Type::Int);
    fc.frame_size = frame_size_;
    if (opt_.plans) {
      const LoopPlan* p = opt_.plans->planFor(&loop);
      if (p && (p->status == LoopStatus::Parallel ||
                p->status == LoopStatus::RuntimeTest ||
                p->status == LoopStatus::Doacross))
        fc.plan = p;
    }
    fc.elpd = opt_.elpd && opt_.elpd->isInstrumented(&loop);
    if (opt_.race && opt_.race->isAudited(&loop))
      fc.race_plan = opt_.race->planFor(&loop);

    // The run-time tests this loop may evaluate: the two-version
    // dispatch's, and the race oracle's check of a RuntimeTest or
    // promoted plan.
    std::vector<const Expr*> atoms;
    if (fc.plan && fc.plan->status == LoopStatus::RuntimeTest)
      collectAtoms(fc.plan->runtime_test, atoms);
    if (const LoopPlan* rp = fc.race_plan)
      if (rp->status == LoopStatus::RuntimeTest ||
          (rp->status == LoopStatus::Parallel &&
           rp->vra_action == VraAction::PromotedParallel))
        collectAtoms(rp->runtime_test, atoms);
    std::vector<Atom> lowered_atoms;
    for (const Expr* e : atoms)
      lowered_atoms.push_back({e, as(*e, Type::Real)});
    fc.atom_begin = u32(code_.atoms.size());
    code_.atoms.insert(code_.atoms.end(), lowered_atoms.begin(),
                       lowered_atoms.end());
    fc.atom_end = u32(code_.atoms.size());

    fc.body = block(*loop.body);
    code_.loops.push_back(fc);
    return u32(code_.loops.size() - 1);
  }

  void lowerProc(size_t k) {
    const ProcDecl& p = *program_.procs[k];
    ProcCode pc;
    pc.decl = &p;
    zero_slot_ = u32(p.all_vars.size());
    frame_size_ = zero_slot_ + 1;
    pc.frame_size = frame_size_;
    std::vector<ParamCode> params;
    for (const auto& param : p.params) {
      ParamCode prm;
      prm.slot = param->local_id;
      prm.elem = param->elem_type;
      prm.array = param->isArray();
      prm.dims_begin = intRoots(param->dims);
      prm.dims_end = prm.dims_begin + u32(param->dims.size());
      params.push_back(prm);
    }
    pc.param_begin = u32(code_.params.size());
    code_.params.insert(code_.params.end(), params.begin(), params.end());
    pc.param_end = u32(code_.params.size());
    pc.body = block(*p.body);
    code_.procs[k] = pc;
  }

  /// Post/wait tables of one Doacross plan: slots are the distinct
  /// source statements of its kept sync requirements, in order.
  uint32_t doaTables(const LoopPlan& plan) {
    SyncOrderInfo info = buildSyncOrderInfo(*plan.loop);
    std::map<const Stmt*, uint32_t> slot_of;
    std::map<uint32_t, std::vector<DoaWait>> waits;
    std::map<uint32_t, int32_t> posts;
    for (const auto& req : plan.syncs) {
      if (req.eliminated) continue;
      auto [sit, fresh] = slot_of.try_emplace(req.source, u32(slot_of.size()));
      if (fresh && info.immediate_post.count(req.source)) {
        auto id = stmt_ids_.find(req.source);
        if (id != stmt_ids_.end())
          posts[id->second] = static_cast<int32_t>(sit->second);
      }
      auto id = stmt_ids_.find(req.sink);
      if (id != stmt_ids_.end())
        waits[id->second].push_back({sit->second, req.distance});
    }
    DoaTables t;
    t.nslots = u32(slot_of.size());
    uint32_t lo = UINT32_MAX, hi = 0;
    auto cover = [&](uint32_t id) {
      lo = std::min(lo, id);
      hi = std::max(hi, id);
    };
    for (const auto& w : waits) cover(w.first);
    for (const auto& p : posts) cover(p.first);
    if (lo <= hi) {
      t.first_stmt = lo;
      t.at.resize(hi - lo + 1);
      for (const auto& [id, w] : waits) {
        DoaStmtSync& s = t.at[id - lo];
        s.wait_begin = u32(t.waits.size());
        t.waits.insert(t.waits.end(), w.begin(), w.end());
        s.wait_end = u32(t.waits.size());
      }
      for (const auto& [id, p] : posts) t.at[id - lo].post = p;
    }
    code_.doa.push_back(std::move(t));
    return u32(code_.doa.size() - 1);
  }

  const Program& program_;
  LowerOptions opt_;
  Code code_;
  std::map<const ProcDecl*, uint32_t> proc_index_;
  std::map<const Stmt*, uint32_t> stmt_ids_;
  uint32_t zero_slot_ = 0;   // of the procedure being lowered
  uint32_t frame_size_ = 0;  // of the procedure being lowered
};

}  // namespace

Code lower(const Program& program, const LowerOptions& options) {
  return Lowerer(program, options).run();
}

}  // namespace padfa::lowered
