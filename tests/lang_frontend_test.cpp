// Frontend tests: lexer, parser, and semantic analysis of MF programs.
#include <gtest/gtest.h>

#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace padfa {
namespace {

std::unique_ptr<Program> parseOk(std::string_view src) {
  DiagEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p != nullptr) << diags.dump();
  return p;
}

std::unique_ptr<Program> analyzeOk(std::string_view src) {
  DiagEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p != nullptr) << diags.dump();
  if (!p) return nullptr;
  EXPECT_TRUE(analyze(*p, diags)) << diags.dump();
  return p;
}

std::string analyzeErr(std::string_view src) {
  DiagEngine diags;
  auto p = parseProgram(src, diags);
  if (!p) return diags.dump();
  EXPECT_FALSE(analyze(*p, diags)) << "expected a semantic error";
  return diags.dump();
}

TEST(Lexer, TokenKindsAndValues) {
  DiagEngine diags;
  Lexer lex("proc f(int n) { x = 1 + 2.5e1; } // comment", diags);
  auto toks = lex.run();
  ASSERT_FALSE(diags.hasErrors());
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::KwProc);
  EXPECT_EQ(toks[1].kind, Tok::Ident);
  EXPECT_EQ(toks[1].text, "f");
  EXPECT_EQ(toks[toks.size() - 1].kind, Tok::Eof);
  // Find the real literal.
  bool found_real = false;
  for (const auto& t : toks)
    if (t.kind == Tok::RealLit) {
      EXPECT_DOUBLE_EQ(t.real_value, 25.0);
      found_real = true;
    }
  EXPECT_TRUE(found_real);
}

TEST(Lexer, ComparisonOperators) {
  DiagEngine diags;
  Lexer lex("< <= > >= == != && || !", diags);
  auto toks = lex.run();
  ASSERT_EQ(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::Lt);
  EXPECT_EQ(toks[1].kind, Tok::Le);
  EXPECT_EQ(toks[2].kind, Tok::Gt);
  EXPECT_EQ(toks[3].kind, Tok::Ge);
  EXPECT_EQ(toks[4].kind, Tok::EqEq);
  EXPECT_EQ(toks[5].kind, Tok::NotEq);
  EXPECT_EQ(toks[6].kind, Tok::AmpAmp);
  EXPECT_EQ(toks[7].kind, Tok::PipePipe);
  EXPECT_EQ(toks[8].kind, Tok::Bang);
}

TEST(Lexer, HashCommentsSkipped) {
  DiagEngine diags;
  Lexer lex("# header\nproc\n", diags);
  auto toks = lex.run();
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, Tok::KwProc);
  EXPECT_EQ(toks[0].loc.line, 2u);
}

TEST(Lexer, RejectsStrayCharacter) {
  DiagEngine diags;
  Lexer lex("proc $", diags);
  lex.run();
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Parser, EmptyProc) {
  auto p = parseOk("proc main() { }");
  ASSERT_EQ(p->procs.size(), 1u);
  EXPECT_EQ(p->interner.str(p->procs[0]->name), "main");
}

TEST(Parser, ForLoopStructure) {
  auto p = parseOk(R"(
    proc main() {
      real a[10];
      for i = 1 to 9 { a[i] = 0.0; }
    }
  )");
  auto& body = *p->procs[0]->body;
  ASSERT_EQ(body.stmts.size(), 1u);
  ASSERT_EQ(body.stmts[0]->kind, StmtKind::For);
  auto& loop = static_cast<ForStmt&>(*body.stmts[0]);
  EXPECT_EQ(p->interner.str(loop.index_name), "i");
  EXPECT_EQ(loop.step, nullptr);
  ASSERT_EQ(loop.body->stmts.size(), 1u);
}

TEST(Parser, ElseIfChains) {
  auto p = parseOk(R"(
    proc main() {
      int x; int y;
      x = 1;
      if (x > 0) { y = 1; } else if (x < 0) { y = 2; } else { y = 3; }
    }
  )");
  auto& s = *p->procs[0]->body->stmts[1];
  ASSERT_EQ(s.kind, StmtKind::If);
  const auto& ifs = static_cast<const IfStmt&>(s);
  ASSERT_NE(ifs.else_block, nullptr);
  ASSERT_EQ(ifs.else_block->stmts.size(), 1u);
  EXPECT_EQ(ifs.else_block->stmts[0]->kind, StmtKind::If);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto p = analyzeOk("proc main() { int x; x = 1 + 2 * 3; }");
  auto& assign = static_cast<AssignStmt&>(*p->procs[0]->body->stmts[0]);
  auto& top = static_cast<BinaryExpr&>(*assign.value);
  EXPECT_EQ(top.op, BinOp::Add);
  EXPECT_EQ(static_cast<BinaryExpr&>(*top.rhs).op, BinOp::Mul);
}

TEST(Parser, RejectsUnknownFunctionInExpr) {
  DiagEngine diags;
  auto p = parseProgram("proc main() { int x; x = foo(1); }", diags);
  EXPECT_EQ(p, nullptr);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Parser, MultiDimArrayAccess) {
  auto p = analyzeOk(R"(
    proc main() {
      real a[4, 5];
      for i = 0 to 3 { for j = 0 to 4 { a[i, j] = noise(i * 5 + j); } }
    }
  )");
  ASSERT_NE(p, nullptr);
}

TEST(Sema, ResolvesVarRefs) {
  auto p = analyzeOk("proc main() { int x; x = 3; int y; y = x + 1; }");
  auto& assign = static_cast<AssignStmt&>(*p->procs[0]->body->stmts[1]);
  auto& ref = static_cast<BinaryExpr&>(*assign.value);
  auto& var = static_cast<VarRefExpr&>(*ref.lhs);
  ASSERT_NE(var.decl, nullptr);
  EXPECT_EQ(p->interner.str(var.decl->name), "x");
}

TEST(Sema, LoopIndexIsImplicitlyDeclared) {
  auto p = analyzeOk(R"(
    proc main() {
      real a[10];
      for i = 0 to 9 { a[i] = 1.0; }
    }
  )");
  auto& loop = static_cast<ForStmt&>(*p->procs[0]->body->stmts[0]);
  ASSERT_NE(loop.index_decl, nullptr);
  EXPECT_TRUE(loop.index_decl->is_loop_index);
  EXPECT_FALSE(loop.loop_id.empty());
}

TEST(Sema, RejectsAssignToLoopIndex) {
  std::string err = analyzeErr(R"(
    proc main() {
      int s;
      s = 0;
      for i = 0 to 9 { i = 3; }
    }
  )");
  EXPECT_NE(err.find("loop index"), std::string::npos) << err;
}

TEST(Sema, RejectsUndeclaredVariable) {
  std::string err = analyzeErr("proc main() { x = 1; }");
  EXPECT_NE(err.find("undeclared"), std::string::npos) << err;
}

TEST(Sema, RejectsSameScopeRedeclaration) {
  std::string err = analyzeErr(R"(
    proc main() {
      int x;
      int x;
      x = 1;
      sink(x);
    }
  )");
  EXPECT_NE(err.find("redeclaration"), std::string::npos) << err;
}

TEST(Sema, AllowsNestedScopeShadowing) {
  // Shadowing an enclosing binding is legal (innermost wins); MF-lint's
  // padfa-shadow checker warns about it instead.
  auto p = analyzeOk(R"(
    proc main() {
      int x;
      x = 1;
      if (x > 0) { int x; x = 2; sink(x); }
      sink(x);
    }
  )");
  ASSERT_NE(p, nullptr);
}

TEST(Sema, RejectsIntFromRealAssignment) {
  std::string err = analyzeErr("proc main() { int x; x = 1.5; }");
  EXPECT_NE(err.find("real"), std::string::npos) << err;
}

TEST(Sema, AllowsRealFromIntAssignment) {
  analyzeOk("proc main() { real x; x = 1; }");
}

TEST(Sema, RejectsRankMismatch) {
  std::string err = analyzeErr(R"(
    proc main() { real a[4, 4]; a[1] = 0.0; }
  )");
  EXPECT_NE(err.find("rank"), std::string::npos) << err;
}

TEST(Sema, CallResolvedWithArrayArg) {
  auto p = analyzeOk(R"(
    proc init(real v[n], int n) {
      for i = 0 to n - 1 { v[i] = 0.0; }
    }
    proc main() {
      real data[100];
      init(data, 100);
    }
  )");
  auto& call = static_cast<CallStmt&>(*p->procs[1]->body->stmts[0]);
  ASSERT_NE(call.callee_proc, nullptr);
  EXPECT_EQ(p->interner.str(call.callee_proc->name), "init");
}

TEST(Sema, RejectsRecursion) {
  std::string err = analyzeErr(R"(
    proc a() { b(); }
    proc b() { a(); }
    proc main() { a(); }
  )");
  EXPECT_NE(err.find("recursi"), std::string::npos) << err;
}

TEST(Sema, SinkIsBuiltin) {
  auto p = analyzeOk("proc main() { real x; x = 2.0; sink(x); }");
  auto& call = static_cast<CallStmt&>(*p->procs[0]->body->stmts[1]);
  EXPECT_TRUE(call.is_sink);
}

TEST(Sema, RejectsWholeArrayInExpression) {
  std::string err = analyzeErr(R"(
    proc main() { real a[5]; real x; x = a; }
  )");
  EXPECT_NE(err.find("whole array"), std::string::npos) << err;
}

TEST(Sema, ExprToStringRoundTrips) {
  auto p = analyzeOk("proc main() { int x; x = (1 + 2) * 3; }");
  auto& assign = static_cast<AssignStmt&>(*p->procs[0]->body->stmts[0]);
  EXPECT_EQ(exprToString(*assign.value, p->interner), "((1 + 2) * 3)");
}

}  // namespace
}  // namespace padfa
