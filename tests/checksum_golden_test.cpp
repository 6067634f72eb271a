// Golden corpus checksums: every corpus program's sequential checksum and
// predicated-plan checksum, at scales 1 and 4, must equal the bit patterns
// recorded in checksum_golden/corpus_checksums.txt. The plan checksum is
// checked at 1 and 3 threads, so any change
// to the interpreter that reorders a floating-point operation, drops a
// promotion or regroups a reduction fails here with the program's name.
//
// On a mismatch the failure prints the line the file would need; an
// intended change of results replaces the lines in the file.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "corpus/corpus.h"
#include "driver/padfa.h"

namespace padfa {
namespace {

struct Golden {
  std::string seq;   // hex bit pattern of the sequential checksum
  std::string plan;  // hex bit pattern of the predicated-plan checksum
};

std::string hexBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

/// (program, scale) -> recorded checksums.
const std::map<std::pair<std::string, int>, Golden>& goldens() {
  static const auto table = [] {
    std::map<std::pair<std::string, int>, Golden> t;
    std::ifstream in(CHECKSUM_GOLDEN_DIR "/corpus_checksums.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string name;
      int scale = 0;
      Golden g;
      ls >> name >> scale >> g.seq >> g.plan;
      t[{name, scale}] = g;
    }
    return t;
  }();
  return table;
}

class ChecksumGolden
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChecksumGolden, SequentialAndPlansMatchRecordedBits) {
  auto [index, scale] = GetParam();
  const CorpusEntry& e = corpus()[static_cast<size_t>(index)];
  auto it = goldens().find({e.name, scale});
  ASSERT_NE(it, goldens().end()) << "no golden line for " << e.name
                                 << " at scale " << scale;
  const Golden& want = it->second;

  DiagEngine diags;
  auto cp = compileSource(instantiate(e, scale), diags);
  ASSERT_TRUE(cp.has_value()) << e.name << ": " << diags.dump();

  InterpOptions seq_opt;
  std::string seq = hexBits(execute(*cp->program, seq_opt).checksum);

  std::string first_plan;
  for (unsigned threads : {1u, 3u}) {
    InterpOptions opt;
    opt.plans = &cp->pred;
    opt.num_threads = threads;
    std::string plan = hexBits(execute(*cp->program, opt).checksum);
    if (first_plan.empty()) first_plan = plan;
    EXPECT_EQ(plan, want.plan)
        << e.name << " scale " << scale << ", plans at P=" << threads;
  }
  EXPECT_EQ(seq, want.seq) << e.name << " scale " << scale << " sequential";
  if (seq != want.seq || first_plan != want.plan)
    ADD_FAILURE() << "current line: " << e.name << " " << scale << " " << seq
                  << " " << first_plan;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ChecksumGolden,
    ::testing::Combine(::testing::Range(0, 33), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return corpus()[static_cast<size_t>(std::get<0>(info.param))].name +
             "_scale" + std::to_string(std::get<1>(info.param));
    });

TEST(ChecksumGoldenFile, CoversTheWholeCorpusAtBothScales) {
  EXPECT_EQ(goldens().size(), corpus().size() * 2);
}

}  // namespace
}  // namespace padfa
