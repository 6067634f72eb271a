// Experiment E9 — cold vs incremental re-analysis wall time, over the
// whole corpus (google-benchmark).
//
// The change-impact engine (src/ipa/) exists so an edit re-analyzes only
// the edited procedures plus their transitive callers, replaying every
// other procedure's plans from the persisted deep summaries. This
// harness quantifies that over two edit classes per corpus program:
//   cold        — plain compileSource of the edited source (the baseline
//                 every re-analysis used to pay);
//   replay      — comment-only edit: canonical text of every procedure
//                 unchanged, so the incremental path replays everything;
//   body-edit   — a declaration inserted into the first procedure: the
//                 dirty set is that procedure plus its callers, the rest
//                 replays.
// Every incremental result's plan signature is checked against the cold
// compile — an incremental answer that differs from cold is a
// correctness bug, and the harness aborts rather than timing it.
//
// Invoke with `--json <path>` (stripped before google-benchmark sees
// argv) for machine-readable results: per-pass total/mean wall time,
// replay/analysis counts, and the cold/incremental speedups.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>

#include "bench_util.h"
#include "driver/plan_signature.h"
#include "ipa/incremental.h"
#include "store/summary_store.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

std::string commentEdit(const std::string& src) {
  return "// fig-incremental comment edit\n" + src;
}

/// Insert a fresh (unused) declaration at the top of the last
/// procedure's body (`main`, a call-graph root in every corpus
/// program) — its callees stay clean and replay, so this measures the
/// partial-replay path rather than a full re-analysis.
std::string bodyEdit(const std::string& src) {
  size_t p = src.rfind("proc ");
  if (p == std::string::npos) return src;
  size_t brace = src.find('{', p);
  if (brace == std::string::npos) return src;
  std::string out = src;
  out.insert(brace + 1, "\n  int qz917;");
  return out;
}

struct PassResult {
  double total_ms = 0;
  uint64_t replayed = 0;
  uint64_t analyzed = 0;
  std::vector<std::string> signatures;
};

/// Time a cold compile of every edited source.
PassResult coldPass(const std::vector<std::string>& edited) {
  PassResult res;
  for (const auto& src : edited) {
    DiagEngine diags;
    auto t0 = std::chrono::steady_clock::now();
    auto cp = compileSource(src, diags);
    res.total_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (!cp) {
      std::fprintf(stderr, "cold compile failed:\n%s\n", diags.dump().c_str());
      std::exit(1);
    }
    res.signatures.push_back(planSignature(*cp));
  }
  return res;
}

/// Seed a fresh ephemeral store per program from the original source,
/// then time only the incremental compile of the edited source.
PassResult incrementalPass(const std::vector<std::string>& originals,
                           const std::vector<std::string>& edited) {
  PassResult res;
  for (size_t i = 0; i < originals.size(); ++i) {
    store::SummaryStore st("");
    DiagEngine d1;
    auto seed = ipa::compileSourceIncremental(originals[i], d1,
                                              BudgetLimits::defaults(), st);
    if (!seed) {
      std::fprintf(stderr, "seed compile failed:\n%s\n", d1.dump().c_str());
      std::exit(1);
    }
    DiagEngine d2;
    ipa::IncrementalInfo info;
    auto t0 = std::chrono::steady_clock::now();
    auto cp = ipa::compileSourceIncremental(edited[i], d2,
                                            BudgetLimits::defaults(), st,
                                            &info);
    res.total_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    if (!cp || !info.incremental) {
      std::fprintf(stderr, "incremental compile failed:\n%s\n",
                   d2.dump().c_str());
      std::exit(1);
    }
    res.replayed += info.procs_replayed;
    res.analyzed += info.procs_analyzed;
    res.signatures.push_back(planSignature(*cp));
  }
  return res;
}

void requireIdentical(const PassResult& ref, const PassResult& pass,
                      const char* what) {
  if (ref.signatures != pass.signatures) {
    std::fprintf(stderr,
                 "BUG: %s pass produced different plan signatures than "
                 "the cold pass\n",
                 what);
    std::exit(1);
  }
}

std::vector<std::string> corpusSources() {
  std::vector<std::string> out;
  for (const auto& e : corpus()) out.push_back(instantiate(e));
  return out;
}

// google-benchmark views (whole-corpus sweep per iteration). Each reports
// manual time: only the compiles the pass times (its total_ms, the number
// --json reports), not the store seeding or the signature checks.

void BM_ColdRecompile(benchmark::State& state) {
  std::vector<std::string> originals = corpusSources();
  std::vector<std::string> edited;
  for (const auto& s : originals) edited.push_back(commentEdit(s));
  for (auto _ : state) {
    const PassResult r = coldPass(edited);
    benchmark::DoNotOptimize(r.total_ms);
    state.SetIterationTime(r.total_ms / 1e3);
  }
  state.counters["programs"] = static_cast<double>(edited.size());
}

void BM_IncrementalReplay(benchmark::State& state) {
  std::vector<std::string> originals = corpusSources();
  std::vector<std::string> edited;
  for (const auto& s : originals) edited.push_back(commentEdit(s));
  for (auto _ : state) {
    const PassResult r = incrementalPass(originals, edited);
    benchmark::DoNotOptimize(r.total_ms);
    state.SetIterationTime(r.total_ms / 1e3);
  }
  state.counters["programs"] = static_cast<double>(edited.size());
}

void BM_IncrementalBodyEdit(benchmark::State& state) {
  std::vector<std::string> originals = corpusSources();
  std::vector<std::string> edited;
  for (const auto& s : originals) edited.push_back(bodyEdit(s));
  for (auto _ : state) {
    const PassResult r = incrementalPass(originals, edited);
    benchmark::DoNotOptimize(r.total_ms);
    state.SetIterationTime(r.total_ms / 1e3);
  }
  state.counters["programs"] = static_cast<double>(edited.size());
}

void passJson(FILE* f, const char* name, const PassResult& r, size_t n,
              bool last) {
  std::fprintf(f,
               "    \"%s\": {\"total_ms\": %.3f, \"mean_ms\": %.3f, "
               "\"procs_replayed\": %llu, \"procs_analyzed\": %llu}%s\n",
               name, r.total_ms, n ? r.total_ms / static_cast<double>(n) : 0,
               static_cast<unsigned long long>(r.replayed),
               static_cast<unsigned long long>(r.analyzed),
               last ? "" : ",");
}

void writeIncrementalJson(const std::string& path) {
  std::vector<std::string> originals = corpusSources();
  std::vector<std::string> commented, bodied;
  for (const auto& s : originals) {
    commented.push_back(commentEdit(s));
    bodied.push_back(bodyEdit(s));
  }

  // Warm the process (allocators, lazy statics, memo caches) with a
  // throwaway sweep so `cold` measures analysis, not startup.
  coldPass(originals);

  PassResult cold_comment = coldPass(commented);
  PassResult cold_body = coldPass(bodied);
  PassResult replay = incrementalPass(originals, commented);
  PassResult body = incrementalPass(originals, bodied);
  requireIdentical(cold_comment, replay, "incremental-replay");
  requireIdentical(cold_body, body, "incremental-body-edit");
  if (replay.analyzed != 0) {
    std::fprintf(stderr,
                 "BUG: comment-only edits re-analyzed %llu procedure(s)\n",
                 static_cast<unsigned long long>(replay.analyzed));
    std::exit(1);
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fig_incremental\",\n");
  std::fprintf(f, "  \"programs\": %zu,\n", originals.size());
  std::fprintf(f, "  \"passes\": {\n");
  passJson(f, "cold_comment_edit", cold_comment, originals.size(), false);
  passJson(f, "cold_body_edit", cold_body, originals.size(), false);
  passJson(f, "incremental_replay", replay, originals.size(), false);
  passJson(f, "incremental_body_edit", body, originals.size(), true);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"replay_speedup\": %.3f,\n",
               replay.total_ms > 0 ? cold_comment.total_ms / replay.total_ms
                                   : 0.0);
  std::fprintf(f, "  \"body_edit_speedup\": %.3f,\n",
               body.total_ms > 0 ? cold_body.total_ms / body.total_ms : 0.0);
  std::fprintf(f, "  \"signatures_identical\": true\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "wrote %s (cold %.1f ms, replay %.1f ms, body-edit %.1f ms over %zu "
      "programs; replay speedup %.1fx)\n",
      path.c_str(), cold_comment.total_ms, replay.total_ms, body.total_ms,
      originals.size(),
      replay.total_ms > 0 ? cold_comment.total_ms / replay.total_ms : 0.0);
}

}  // namespace

BENCHMARK(BM_ColdRecompile)->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK(BM_IncrementalReplay)->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK(BM_IncrementalBodyEdit)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

int main(int argc, char** argv) {
  std::string json_path = extractJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) writeIncrementalJson(json_path);
  return 0;
}
