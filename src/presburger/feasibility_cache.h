// Global memo for pb::System::feasible().
//
// Feasibility of a linear system is a purely structural property: it
// depends only on the constraint multiset up to a bijective renaming of
// variables, never on which VarTable the VarIds came from or what the
// variables mean in the program. canonicalSystemKey() quotients exactly
// that equivalence — constraints of the *normalized* system are encoded
// over an order-preserving dense renaming of its used variables and then
// sorted — so one process-wide cache is sound across programs, analyses,
// and threads. Entries are never invalidated: System values are
// immutable once queried (feasible() copies), so a key's answer cannot
// change ("invalidation by construction"). Each System also remembers its
// own answer, stamped with generation(); clear() bumps the generation, so
// a remembered answer never outlives the entry it stands for.
//
// The value is three-state per the elimination outcome: Infeasible,
// Feasible (proved by full elimination), or FeasibleInexact (elimination
// hit the kMaxConstraints work limit and gave up in the conservative
// direction). Clients of feasible() see both Feasible states as `true`;
// the distinction is kept so telemetry can report how often the limit
// bites.
//
// Concurrency: sharded mutexes — lookups from parallel analyses contend
// only within a shard. Callers must not use the cache under a governed
// AnalysisBudget (see perf_stats.h); System::feasible() enforces that.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "presburger/system.h"

namespace padfa::pb {

enum class Feasibility : uint8_t {
  Infeasible,
  Feasible,
  FeasibleInexact,  // work limit reached; "feasible" is the sound default
};

/// Canonical key of a *normalized* system (see file comment). Callers
/// must normalize first: normalization is what makes structurally equal
/// systems encode identically.
std::string canonicalSystemKey(const System& s);

class FeasibilityCache {
 public:
  static FeasibilityCache& global();

  std::optional<Feasibility> lookup(const std::string& key);
  void insert(const std::string& key, Feasibility f);
  void clear();
  size_t size();
  /// Starts at 1; every clear() increments it.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// All entries, sorted by key — the deterministic export the
  /// persistent summary store serializes. Entries are immutable facts
  /// (see file comment), so a snapshot taken while other threads insert
  /// is still a set of individually-valid records.
  std::vector<std::pair<std::string, Feasibility>> snapshot();

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Feasibility> map;
  };
  Shard& shardOf(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }
  Shard shards_[kShards];
  std::atomic<uint64_t> generation_{1};
};

}  // namespace padfa::pb
