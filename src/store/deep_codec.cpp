#include "store/deep_codec.h"

#include <cstring>
#include <set>

namespace padfa::store {

namespace {

constexpr size_t kMaxDepth = 256;  // crafted-bytes recursion backstop

// ------------------------------------------------------------- writer --

void putU8(std::string& out, uint8_t v) { out += static_cast<char>(v); }

void putU16(std::string& out, uint16_t v) {
  out += static_cast<char>(v & 0xFF);
  out += static_cast<char>((v >> 8) & 0xFF);
}

void putU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void putU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void putI64(std::string& out, int64_t v) {
  putU64(out, static_cast<uint64_t>(v));
}

void putStr32(std::string& out, std::string_view s) {
  putU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

// ------------------------------------------------------------- cursor --

class Cursor {
 public:
  explicit Cursor(std::string_view bytes)
      : p_(bytes.data()), n_(bytes.size()) {}

  size_t remaining() const { return n_ - off_; }

  bool bytes(size_t len, std::string_view& out) {
    if (remaining() < len) return false;
    out = std::string_view(p_ + off_, len);
    off_ += len;
    return true;
  }
  bool u8(uint8_t& out) {
    if (remaining() < 1) return false;
    out = static_cast<uint8_t>(p_[off_++]);
    return true;
  }
  bool u16(uint16_t& out) {
    std::string_view b;
    if (!bytes(2, b)) return false;
    out = static_cast<uint16_t>(static_cast<uint8_t>(b[0]) |
                                (static_cast<uint8_t>(b[1]) << 8));
    return true;
  }
  bool u32(uint32_t& out) {
    std::string_view b;
    if (!bytes(4, b)) return false;
    out = 0;
    for (int i = 3; i >= 0; --i)
      out = (out << 8) | static_cast<uint8_t>(b[static_cast<size_t>(i)]);
    return true;
  }
  bool u64(uint64_t& out) {
    std::string_view b;
    if (!bytes(8, b)) return false;
    out = 0;
    for (int i = 7; i >= 0; --i)
      out = (out << 8) | static_cast<uint8_t>(b[static_cast<size_t>(i)]);
    return true;
  }
  bool i64(int64_t& out) {
    uint64_t u = 0;
    if (!u64(u)) return false;
    out = static_cast<int64_t>(u);
    return true;
  }
  bool str32(std::string& out) {
    uint32_t len = 0;
    std::string_view b;
    if (!u32(len) || !bytes(len, b)) return false;
    out.assign(b.data(), b.size());
    return true;
  }

 private:
  const char* p_;
  size_t n_;
  size_t off_ = 0;
};

// ------------------------------------------------------------ encoder --

class Encoder {
 public:
  explicit Encoder(const DeepEncodeInput& in) : in_(in) {
    for (VarDecl* d : in.proc->all_vars) owned_[d] = d;
  }

  bool run(std::string& out, std::string& err) {
    if (!in_.program || !in_.proc || !in_.summary || !in_.vars)
      return fail("incomplete encode input");
    if (in_.summary->degraded) return fail("degraded summary");
    std::string name(in_.program->interner.str(in_.proc->name));

    putU8(buf_, kDeepCodecVersion);
    putU16(buf_, static_cast<uint16_t>(name.size()));
    buf_ += name;
    if (!encodePreamble()) {
      err = err_;
      return false;
    }
    putU8(buf_, in_.summary->has_sink ? 1 : 0);
    if (!encodeSummary() || !encodePlans()) {
      err = err_;
      return false;
    }
    out = std::move(buf_);
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (err_.empty()) err_ = msg;
    return false;
  }

  const VarDecl* ownedDecl(const VarDecl* d) {
    if (!d) return nullptr;
    auto it = owned_.find(d);
    return it == owned_.end() ? nullptr : it->second;
  }

  bool encodeVar(pb::VarId v) {
    if (v < VarTable::kMaxRank) {
      putU8(buf_, 0);
      putU8(buf_, static_cast<uint8_t>(v));
      return true;
    }
    const VarDecl* d =
        v < in_.vars->decls.size() ? in_.vars->decls[v] : nullptr;
    if (!d) return fail("reference to synthetic variable");
    if (!ownedDecl(d)) return fail("reference to foreign declaration");
    putU8(buf_, 1);
    putU32(buf_, d->local_id);
    return true;
  }

  bool encodeLinExpr(const pb::LinExpr& e) {
    putI64(buf_, e.constant());
    putU32(buf_, static_cast<uint32_t>(e.terms().size()));
    for (const auto& [v, coeff] : e.terms()) {
      if (!encodeVar(v)) return false;
      putI64(buf_, coeff);
    }
    return true;
  }

  bool encodeSystem(const pb::System& s) {
    putU32(buf_, static_cast<uint32_t>(s.constraints().size()));
    for (const auto& c : s.constraints()) {
      putU8(buf_, static_cast<uint8_t>(c.kind));
      if (!encodeLinExpr(c.expr)) return false;
    }
    return true;
  }

  bool encodeSet(const pb::Set& s) {
    putU8(buf_, s.exact() ? 1 : 0);
    putU32(buf_, static_cast<uint32_t>(s.pieces().size()));
    for (const auto& piece : s.pieces())
      if (!encodeSystem(piece)) return false;
    return true;
  }

  bool encodeExpr(const Expr& e) {
    putU8(buf_, static_cast<uint8_t>(e.kind));
    putU8(buf_, static_cast<uint8_t>(e.type));
    switch (e.kind) {
      case ExprKind::IntLit:
        putI64(buf_, static_cast<const IntLitExpr&>(e).value);
        return true;
      case ExprKind::RealLit: {
        uint64_t bits = 0;
        double d = static_cast<const RealLitExpr&>(e).value;
        std::memcpy(&bits, &d, sizeof bits);
        putU64(buf_, bits);
        return true;
      }
      case ExprKind::VarRef: {
        const VarDecl* d = ownedDecl(static_cast<const VarRefExpr&>(e).decl);
        if (!d) return fail("expr references foreign declaration");
        putU32(buf_, d->local_id);
        return true;
      }
      case ExprKind::ArrayRef: {
        const auto& r = static_cast<const ArrayRefExpr&>(e);
        const VarDecl* d = ownedDecl(r.decl);
        if (!d) return fail("expr references foreign declaration");
        putU32(buf_, d->local_id);
        putU8(buf_, static_cast<uint8_t>(r.indices.size()));
        for (const auto& idx : r.indices)
          if (!encodeExpr(*idx)) return false;
        return true;
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        putU8(buf_, static_cast<uint8_t>(u.op));
        return encodeExpr(*u.operand);
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        putU8(buf_, static_cast<uint8_t>(b.op));
        return encodeExpr(*b.lhs) && encodeExpr(*b.rhs);
      }
      case ExprKind::Intrinsic: {
        const auto& c = static_cast<const IntrinsicExpr&>(e);
        putU8(buf_, static_cast<uint8_t>(c.fn));
        putU8(buf_, static_cast<uint8_t>(c.args.size()));
        for (const auto& a : c.args)
          if (!encodeExpr(*a)) return false;
        return true;
      }
    }
    return fail("unknown expr kind");
  }

  bool encodePred(const Pred& p) {
    const PredNode& n = p.node();
    putU8(buf_, static_cast<uint8_t>(n.kind));
    switch (n.kind) {
      case PredKind::True:
      case PredKind::False:
        return true;
      case PredKind::Atom:
        putU8(buf_, static_cast<uint8_t>(n.op));
        putU8(buf_, n.negated ? 1 : 0);
        return encodeExpr(*n.lhs) && encodeExpr(*n.rhs);
      case PredKind::And:
      case PredKind::Or:
        putU32(buf_, static_cast<uint32_t>(n.children.size()));
        for (const Pred& c : n.children)
          if (!encodePred(c)) return false;
        return true;
    }
    return fail("unknown pred kind");
  }

  bool encodeGuardedList(const GuardedList& list) {
    putU32(buf_, static_cast<uint32_t>(list.size()));
    for (const auto& g : list) {
      if (!encodePred(g.guard)) return false;
      if (!encodeSet(g.section)) return false;
    }
    return true;
  }

  /// The owning procedure's id-carrying declarations in ascending
  /// cold-run VarId order, each with its forward-substitution alias.
  bool encodePreamble() {
    std::vector<std::pair<pb::VarId, const VarDecl*>> entries;
    for (pb::VarId v = VarTable::kMaxRank; v < in_.vars->decls.size(); ++v) {
      const VarDecl* d = in_.vars->decls[v];
      if (d && ownedDecl(d)) entries.emplace_back(v, d);
    }
    putU32(buf_, static_cast<uint32_t>(entries.size()));
    for (const auto& [v, d] : entries) {
      putU32(buf_, d->local_id);
      auto a = in_.vars->aliases.find(v);
      putU8(buf_, a != in_.vars->aliases.end() ? 1 : 0);
      if (a != in_.vars->aliases.end() && !encodeLinExpr(a->second))
        return false;
    }
    return true;
  }

  bool encodeSummary() {
    putU32(buf_, static_cast<uint32_t>(in_.summary->arrays.size()));
    for (const auto& [decl, as] : in_.summary->arrays) {
      const VarDecl* d = ownedDecl(decl);
      if (!d) return fail("summary array is a foreign declaration");
      putU32(buf_, d->local_id);
      if (!encodeGuardedList(as.reads) || !encodeGuardedList(as.writes) ||
          !encodeGuardedList(as.must_writes) ||
          !encodeGuardedList(as.exposed))
        return false;
      putU8(buf_, as.approximate ? 1 : 0);
    }
    // finalizeProcSummary() cleared scalar effects; a non-empty map means
    // this is not a finalized summary and must not be persisted.
    if (!in_.summary->scalars.empty())
      return fail("summary has unfinalized scalar effects");
    return true;
  }

  bool encodePlans() {
    putU32(buf_, static_cast<uint32_t>(in_.plans.size()));
    for (const LoopPlan* p : in_.plans) {
      if (!p) return fail("loop without a plan");
      if (p->degraded) return fail("degraded plan");
      putU8(buf_, static_cast<uint8_t>(p->status));
      if (!encodePred(p->runtime_test)) return false;
      putU32(buf_, static_cast<uint32_t>(p->privatized.size()));
      for (const auto& pa : p->privatized) {
        const VarDecl* d = ownedDecl(pa.array);
        if (!d) return fail("privatized array is a foreign declaration");
        putU32(buf_, d->local_id);
        putU8(buf_, static_cast<uint8_t>((pa.copy_in ? 1 : 0) |
                                         (pa.copy_out ? 2 : 0)));
      }
      for (const auto* decls : {&p->private_scalars, &p->copy_out_scalars}) {
        putU32(buf_, static_cast<uint32_t>(decls->size()));
        for (const VarDecl* s : *decls) {
          const VarDecl* d = ownedDecl(s);
          if (!d) return fail("plan scalar is a foreign declaration");
          putU32(buf_, d->local_id);
        }
      }
      putU32(buf_, static_cast<uint32_t>(p->reductions.size()));
      for (const auto& r : p->reductions) {
        const VarDecl* d = ownedDecl(r.scalar);
        if (!d) return fail("reduction scalar is a foreign declaration");
        putU32(buf_, d->local_id);
        putU8(buf_, static_cast<uint8_t>(r.op));
      }
      putStr32(buf_, p->reason);
      putU8(buf_, static_cast<uint8_t>((p->used_predicates ? 1 : 0) |
                                       (p->used_embedding ? 2 : 0) |
                                       (p->used_extraction ? 4 : 0) |
                                       (p->used_reshape ? 8 : 0) |
                                       (p->priv_used ? 16 : 0)));
    }
    return true;
  }

  const DeepEncodeInput& in_;
  std::map<const VarDecl*, const VarDecl*> owned_;
  std::string buf_;
  std::string err_;
};

// ------------------------------------------------------------ decoder --

class Decoder {
 public:
  Decoder(const Program& program, const ProcDecl& proc,
          std::string_view bytes, VarTable& vt)
      : program_(program), proc_(proc), cur_(bytes), vt_(vt) {
    for (VarDecl* d : proc.all_vars) by_local_[d->local_id] = d;
  }

  bool run(RegionSummary& summary, std::vector<LoopPlan>& plans,
           std::string& err) {
    bool ok = parse(summary, plans);
    if (!ok) {
      err = err_.empty() ? "malformed deep record" : err_;
      summary = RegionSummary();
      plans.clear();
    }
    return ok;
  }

 private:
  bool fail(const std::string& msg) {
    if (err_.empty()) err_ = msg;
    return false;
  }

  VarDecl* declFor(uint32_t local_id) {
    auto it = by_local_.find(local_id);
    return it == by_local_.end() ? nullptr : it->second;
  }

  bool parse(RegionSummary& summary, std::vector<LoopPlan>& plans) {
    uint8_t version = 0;
    if (!cur_.u8(version)) return fail("truncated record");
    if (version != kDeepCodecVersion)
      return fail("deep codec version mismatch");
    uint16_t name_len = 0;
    std::string_view name;
    if (!cur_.u16(name_len) || !cur_.bytes(name_len, name))
      return fail("truncated procedure name");
    if (name != program_.interner.str(proc_.name))
      return fail("record bound to a different procedure");
    if (!parsePreamble()) return false;
    uint8_t has_sink = 0;
    if (!cur_.u8(has_sink) || has_sink > 1) return fail("bad has_sink");
    summary.has_sink = has_sink != 0;
    if (!parseSummary(summary)) return false;
    if (!parsePlans(plans)) return false;
    if (cur_.remaining() != 0) return fail("trailing bytes in deep record");
    return true;
  }

  /// Recreate the procedure's VarIds (and aliases) in cold-run order.
  bool parsePreamble() {
    uint32_t n = 0;
    if (!cur_.u32(n)) return fail("truncated preamble");
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t local_id = 0;
      uint8_t has_alias = 0;
      if (!cur_.u32(local_id) || !cur_.u8(has_alias) || has_alias > 1)
        return fail("bad preamble entry");
      VarDecl* d = declFor(local_id);
      if (!d || d->isArray()) return fail("preamble names a non-scalar");
      pb::VarId v = vt_.idFor(d);
      preamble_.insert(d);
      if (has_alias) {
        pb::LinExpr repl;
        if (!parseLinExpr(repl)) return false;
        vt_.setAlias(v, std::move(repl));
      }
    }
    return true;
  }

  bool parseVar(pb::VarId& out) {
    uint8_t tag = 0;
    if (!cur_.u8(tag)) return fail("truncated var tag");
    if (tag == 0) {
      uint8_t k = 0;
      if (!cur_.u8(k) || k >= VarTable::kMaxRank) return fail("bad dim var");
      out = vt_.dim(k);
      return true;
    }
    if (tag != 1) return fail("bad var tag");
    uint32_t local_id = 0;
    if (!cur_.u32(local_id)) return fail("truncated var ref");
    VarDecl* d = declFor(local_id);
    // Every id-carrying decl must have been declared by the preamble:
    // creating one here would disturb cold-run id order.
    if (!d || !preamble_.count(d)) return fail("var ref outside preamble");
    out = vt_.idFor(d);
    return true;
  }

  bool parseLinExpr(pb::LinExpr& out) {
    int64_t constant = 0;
    uint32_t n = 0;
    if (!cur_.i64(constant) || !cur_.u32(n)) return fail("truncated linexpr");
    out = pb::LinExpr(constant);
    for (uint32_t i = 0; i < n; ++i) {
      pb::VarId v = 0;
      int64_t coeff = 0;
      if (!parseVar(v) || !cur_.i64(coeff)) return false;
      out.addTerm(v, coeff);
    }
    return true;
  }

  bool parseSystem(pb::System& out) {
    uint32_t n = 0;
    if (!cur_.u32(n)) return fail("truncated system");
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t kind = 0;
      if (!cur_.u8(kind) || kind > 1) return fail("bad constraint kind");
      pb::LinExpr e;
      if (!parseLinExpr(e)) return false;
      out.add({std::move(e), static_cast<pb::CmpKind>(kind)});
    }
    return true;
  }

  bool parseSet(pb::Set& out) {
    uint8_t exact = 0;
    uint32_t n = 0;
    if (!cur_.u8(exact) || exact > 1 || !cur_.u32(n))
      return fail("truncated set");
    if (n > pb::Set::kMaxPieces) return fail("set piece count over cap");
    out = pb::Set();
    for (uint32_t i = 0; i < n; ++i) {
      pb::System piece;
      if (!parseSystem(piece)) return false;
      out.unionWith(pb::Set(std::move(piece)));
    }
    if (!exact) out.markInexact();
    return true;
  }

  bool parseExpr(ExprPtr& out, size_t depth) {
    if (depth > kMaxDepth) return fail("expr nesting over limit");
    uint8_t kind = 0, type = 0;
    if (!cur_.u8(kind) || !cur_.u8(type)) return fail("truncated expr");
    if (kind > static_cast<uint8_t>(ExprKind::Intrinsic) || type > 1)
      return fail("bad expr header");
    Type ty = static_cast<Type>(type);
    switch (static_cast<ExprKind>(kind)) {
      case ExprKind::IntLit: {
        int64_t v = 0;
        if (!cur_.i64(v)) return fail("truncated int literal");
        out = std::make_unique<IntLitExpr>(v);
        break;
      }
      case ExprKind::RealLit: {
        uint64_t bits = 0;
        if (!cur_.u64(bits)) return fail("truncated real literal");
        double d = 0;
        std::memcpy(&d, &bits, sizeof d);
        out = std::make_unique<RealLitExpr>(d);
        break;
      }
      case ExprKind::VarRef: {
        uint32_t local_id = 0;
        if (!cur_.u32(local_id)) return fail("truncated var ref expr");
        VarDecl* d = declFor(local_id);
        if (!d) return fail("var ref to unknown declaration");
        auto e = std::make_unique<VarRefExpr>(d->name);
        e->decl = d;
        out = std::move(e);
        break;
      }
      case ExprKind::ArrayRef: {
        uint32_t local_id = 0;
        uint8_t nidx = 0;
        if (!cur_.u32(local_id) || !cur_.u8(nidx))
          return fail("truncated array ref expr");
        VarDecl* d = declFor(local_id);
        if (!d || !d->isArray() || nidx != d->rank())
          return fail("array ref shape mismatch");
        auto e = std::make_unique<ArrayRefExpr>(d->name);
        e->decl = d;
        for (uint8_t i = 0; i < nidx; ++i) {
          ExprPtr idx;
          if (!parseExpr(idx, depth + 1)) return false;
          e->indices.push_back(std::move(idx));
        }
        out = std::move(e);
        break;
      }
      case ExprKind::Unary: {
        uint8_t op = 0;
        if (!cur_.u8(op) || op > static_cast<uint8_t>(UnOp::Not))
          return fail("bad unary op");
        ExprPtr operand;
        if (!parseExpr(operand, depth + 1)) return false;
        out = std::make_unique<UnaryExpr>(static_cast<UnOp>(op),
                                          std::move(operand));
        break;
      }
      case ExprKind::Binary: {
        uint8_t op = 0;
        if (!cur_.u8(op) || op > static_cast<uint8_t>(BinOp::Or))
          return fail("bad binary op");
        ExprPtr lhs, rhs;
        if (!parseExpr(lhs, depth + 1) || !parseExpr(rhs, depth + 1))
          return false;
        out = std::make_unique<BinaryExpr>(static_cast<BinOp>(op),
                                           std::move(lhs), std::move(rhs));
        break;
      }
      case ExprKind::Intrinsic: {
        uint8_t fn = 0, nargs = 0;
        if (!cur_.u8(fn) || fn > static_cast<uint8_t>(Intrinsic::INoise) ||
            !cur_.u8(nargs))
          return fail("bad intrinsic");
        auto e = std::make_unique<IntrinsicExpr>(static_cast<Intrinsic>(fn));
        for (uint8_t i = 0; i < nargs; ++i) {
          ExprPtr a;
          if (!parseExpr(a, depth + 1)) return false;
          e->args.push_back(std::move(a));
        }
        out = std::move(e);
        break;
      }
    }
    out->type = ty;
    return true;
  }

  bool parsePred(Pred& out, size_t depth) {
    if (depth > kMaxDepth) return fail("pred nesting over limit");
    uint8_t kind = 0;
    if (!cur_.u8(kind) || kind > static_cast<uint8_t>(PredKind::Or))
      return fail("bad pred kind");
    switch (static_cast<PredKind>(kind)) {
      case PredKind::True:
        out = Pred::always();
        return true;
      case PredKind::False:
        out = Pred::never();
        return true;
      case PredKind::Atom: {
        uint8_t op = 0, negated = 0;
        if (!cur_.u8(op) || op > static_cast<uint8_t>(AtomOp::Eq) ||
            !cur_.u8(negated) || negated > 1)
          return fail("bad atom header");
        ExprPtr lhs, rhs;
        if (!parseExpr(lhs, depth + 1) || !parseExpr(rhs, depth + 1))
          return false;
        out = Pred::atom(static_cast<AtomOp>(op), *lhs, *rhs, negated != 0,
                         program_.interner);
        return true;
      }
      case PredKind::And:
      case PredKind::Or: {
        uint32_t n = 0;
        if (!cur_.u32(n)) return fail("truncated pred combo");
        bool is_and = static_cast<PredKind>(kind) == PredKind::And;
        // Folding through &&/|| re-runs makeCombo's canonicalization
        // (flatten, sort by key, dedupe) against the new program, which
        // is exactly what a cold run of the same source would produce.
        Pred acc = is_and ? Pred::always() : Pred::never();
        for (uint32_t i = 0; i < n; ++i) {
          Pred c;
          if (!parsePred(c, depth + 1)) return false;
          acc = is_and ? (acc && c) : (acc || c);
        }
        out = std::move(acc);
        return true;
      }
    }
    return fail("bad pred kind");
  }

  bool parseGuardedList(GuardedList& out) {
    uint32_t n = 0;
    if (!cur_.u32(n)) return fail("truncated guarded list");
    for (uint32_t i = 0; i < n; ++i) {
      GuardedSection g;
      if (!parsePred(g.guard, 0) || !parseSet(g.section)) return false;
      out.push_back(std::move(g));
    }
    return true;
  }

  bool parseSummary(RegionSummary& summary) {
    uint32_t n = 0;
    if (!cur_.u32(n)) return fail("truncated summary");
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t local_id = 0;
      if (!cur_.u32(local_id)) return fail("truncated array entry");
      VarDecl* d = declFor(local_id);
      if (!d || !d->isArray()) return fail("summary array is not an array");
      if (summary.arrays.count(d)) return fail("duplicate summary array");
      ArraySummary& as = summary.arrayFor(d);
      uint8_t approx = 0;
      if (!parseGuardedList(as.reads) || !parseGuardedList(as.writes) ||
          !parseGuardedList(as.must_writes) ||
          !parseGuardedList(as.exposed) || !cur_.u8(approx) || approx > 1)
        return false;
      as.approximate = approx != 0;
    }
    return true;
  }

  bool parsePlans(std::vector<LoopPlan>& plans) {
    std::vector<const ForStmt*> loops = procLoopsInOrder(proc_);
    uint32_t n = 0;
    if (!cur_.u32(n)) return fail("truncated plans");
    if (n != loops.size()) return fail("plan count / loop count mismatch");
    for (uint32_t i = 0; i < n; ++i) {
      LoopPlan p;
      p.loop = loops[i];
      p.proc = &proc_;
      uint8_t status = 0;
      if (!cur_.u8(status) ||
          status > static_cast<uint8_t>(LoopStatus::NotCandidate))
        return fail("bad plan status");
      p.status = static_cast<LoopStatus>(status);
      if (!parsePred(p.runtime_test, 0)) return false;
      uint32_t npriv = 0;
      if (!cur_.u32(npriv)) return fail("truncated privatized list");
      for (uint32_t j = 0; j < npriv; ++j) {
        uint32_t local_id = 0;
        uint8_t flags = 0;
        if (!cur_.u32(local_id) || !cur_.u8(flags) || flags > 3)
          return fail("bad privatized entry");
        VarDecl* d = declFor(local_id);
        if (!d || !d->isArray()) return fail("privatized non-array");
        p.privatized.push_back({d, (flags & 1) != 0, (flags & 2) != 0});
      }
      for (auto* decls : {&p.private_scalars, &p.copy_out_scalars}) {
        uint32_t m = 0;
        if (!cur_.u32(m)) return fail("truncated plan scalar list");
        for (uint32_t j = 0; j < m; ++j) {
          uint32_t local_id = 0;
          if (!cur_.u32(local_id)) return fail("truncated plan scalar");
          VarDecl* d = declFor(local_id);
          if (!d || d->isArray()) return fail("plan scalar is not scalar");
          decls->push_back(d);
        }
      }
      uint32_t nred = 0;
      if (!cur_.u32(nred)) return fail("truncated reductions");
      for (uint32_t j = 0; j < nred; ++j) {
        uint32_t local_id = 0;
        uint8_t op = 0;
        if (!cur_.u32(local_id) || !cur_.u8(op) ||
            op > static_cast<uint8_t>(ReductionOp::Max))
          return fail("bad reduction entry");
        VarDecl* d = declFor(local_id);
        if (!d || d->isArray()) return fail("reduction on non-scalar");
        p.reductions.push_back({d, static_cast<ReductionOp>(op)});
      }
      uint8_t flags = 0;
      if (!cur_.str32(p.reason) || !cur_.u8(flags) || flags > 31)
        return fail("bad plan trailer");
      p.used_predicates = (flags & 1) != 0;
      p.used_embedding = (flags & 2) != 0;
      p.used_extraction = (flags & 4) != 0;
      p.used_reshape = (flags & 8) != 0;
      p.priv_used = (flags & 16) != 0;
      plans.push_back(std::move(p));
    }
    return true;
  }

  const Program& program_;
  const ProcDecl& proc_;
  Cursor cur_;
  VarTable& vt_;
  std::map<uint32_t, VarDecl*> by_local_;
  std::set<const VarDecl*> preamble_;
  std::string err_;
};

void collectLoops(const BlockStmt& block, std::vector<const ForStmt*>& out) {
  for (const auto& st : block.stmts) {
    switch (st->kind) {
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(*st);
        out.push_back(&f);
        collectLoops(*f.body, out);
        break;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*st);
        collectLoops(*i.then_block, out);
        if (i.else_block) collectLoops(*i.else_block, out);
        break;
      }
      case StmtKind::Block:
        collectLoops(static_cast<const BlockStmt&>(*st), out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

std::vector<const ForStmt*> procLoopsInOrder(const ProcDecl& proc) {
  std::vector<const ForStmt*> out;
  collectLoops(*proc.body, out);
  return out;
}

bool encodeDeepProc(const DeepEncodeInput& in, std::string& out,
                    std::string& err) {
  Encoder enc(in);
  return enc.run(out, err);
}

bool decodeDeepProc(const Program& program, const ProcDecl& proc,
                    std::string_view bytes, VarTable& vt,
                    RegionSummary& summary, std::vector<LoopPlan>& plans,
                    std::string& err) {
  // Decode against a copy so a record that fails part-way cannot leave
  // ids or aliases behind for the cold analysis that follows.
  VarTable trial = vt;
  Decoder dec(program, proc, bytes, trial);
  if (!dec.run(summary, plans, err)) return false;
  vt = std::move(trial);
  return true;
}

}  // namespace padfa::store
