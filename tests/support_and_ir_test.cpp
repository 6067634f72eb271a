// Unit tests for support utilities (interner, diagnostics, tables) and
// the region-graph / loop-tree IR.
#include <gtest/gtest.h>

#include "ir/region.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "support/diagnostics.h"
#include "support/interner.h"
#include "support/table.h"

namespace padfa {
namespace {

TEST(Interner, DedupesStrings) {
  Interner in;
  Symbol a = in.intern("foo");
  Symbol b = in.intern("foo");
  Symbol c = in.intern("bar");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(in.str(a), "foo");
  EXPECT_EQ(in.str(c), "bar");
}

TEST(Interner, EmptyStringIsIdZero) {
  Interner in;
  EXPECT_TRUE(in.intern("").empty());
}

TEST(Diagnostics, CountsErrorsOnly) {
  DiagEngine d;
  d.warning({1, 1}, "w");
  d.note({1, 2}, "n");
  EXPECT_FALSE(d.hasErrors());
  d.error({2, 3}, "e");
  EXPECT_TRUE(d.hasErrors());
  EXPECT_EQ(d.errorCount(), 1u);
  EXPECT_EQ(d.all().size(), 3u);
}

TEST(Diagnostics, DumpFormatsLocations) {
  DiagEngine d;
  d.error({7, 9}, "bad thing");
  std::string s = d.dump();
  EXPECT_NE(s.find("7:9"), std::string::npos);
  EXPECT_NE(s.find("bad thing"), std::string::npos);
  EXPECT_NE(s.find("error"), std::string::npos);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "count"});
  t.addRow({"a", "1"});
  t.addRow({"longer-name", "22"});
  std::string s = t.render();
  // Every data line has the same length.
  size_t first_len = s.find('\n');
  size_t pos = 0;
  for (std::string_view line = s; pos < s.size();) {
    size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len) << s;
    pos = next + 1;
    (void)line;
  }
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.addRow({"only-one"});
  std::string s = t.render();
  EXPECT_NE(s.find("only-one"), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
  EXPECT_EQ(fmtPercent(1, 4), "25.0%");
  EXPECT_EQ(fmtPercent(1, 0), "-");
}

// ---- LoopTree ----

std::unique_ptr<Program> compile(std::string_view src) {
  DiagEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_NE(p, nullptr) << diags.dump();
  if (p) {
    EXPECT_TRUE(analyze(*p, diags)) << diags.dump();
  }
  return p;
}

TEST(LoopTree, NestingAndDepths) {
  auto p = compile(R"(
proc main() {
  real a[8, 8];
  for i = 0 to 7 {
    for j = 0 to 7 { a[i, j] = 1.0; }
  }
  for k = 0 to 7 { a[k, 0] = 2.0; }
}
)");
  LoopTree tree = LoopTree::build(*p);
  EXPECT_EQ(tree.loopCount(), 3u);
  int depth0 = 0, depth1 = 0;
  for (const LoopNode* n : tree.allLoops()) {
    if (n->depth == 0) ++depth0;
    if (n->depth == 1) {
      ++depth1;
      ASSERT_NE(n->parent, nullptr);
      EXPECT_EQ(n->parent->depth, 0);
    }
  }
  EXPECT_EQ(depth0, 2);
  EXPECT_EQ(depth1, 1);
}

TEST(LoopTree, NodeForLookup) {
  auto p = compile(R"(
proc main() {
  real a[4];
  for i = 0 to 3 { a[i] = 1.0; }
}
)");
  LoopTree tree = LoopTree::build(*p);
  auto loops = tree.allLoops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(tree.nodeFor(loops[0]->loop), loops[0]);
  EXPECT_EQ(tree.nodeFor(nullptr), nullptr);
}

}  // namespace
}  // namespace padfa
