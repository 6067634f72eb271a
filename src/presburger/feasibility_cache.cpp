#include "presburger/feasibility_cache.h"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace padfa::pb {

namespace {

void appendInt(std::string& buf, int64_t v) {
  char digits[24];  // an int64 needs at most 20
  buf.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

}  // namespace

std::string canonicalSystemKey(const System& s) {
  // Order-preserving dense renaming of the used variables: usedVars() is
  // ascending, so term vectors (sorted by VarId) stay sorted after the
  // rename and two systems equal up to renaming encode identically.
  std::vector<VarId> vars = s.usedVars();
  // Encode every constraint into one buffer; spans[i] delimits the i-th.
  std::string buf;
  std::vector<std::pair<size_t, size_t>> spans;
  spans.reserve(s.size());
  for (const auto& c : s.constraints()) {
    size_t begin = buf.size();
    buf += (c.kind == CmpKind::EQ0) ? 'E' : 'G';
    appendInt(buf, c.expr.constant());
    for (const auto& [v, coeff] : c.expr.terms()) {
      size_t dense = static_cast<size_t>(
          std::lower_bound(vars.begin(), vars.end(), v) - vars.begin());
      buf += ';';
      appendInt(buf, static_cast<int64_t>(dense));
      buf += '*';
      appendInt(buf, coeff);
    }
    spans.emplace_back(begin, buf.size() - begin);
  }
  // The constraint multiset is unordered: sort the encodings.
  std::vector<std::string_view> enc;
  enc.reserve(spans.size());
  for (const auto& [begin, len] : spans)
    enc.emplace_back(buf.data() + begin, len);
  std::sort(enc.begin(), enc.end());
  std::string key;
  key.reserve(buf.size() + enc.size());
  for (std::string_view e : enc) {
    key += e;
    key += '|';
  }
  return key;
}

FeasibilityCache& FeasibilityCache::global() {
  static FeasibilityCache cache;
  return cache;
}

std::optional<Feasibility> FeasibilityCache::lookup(const std::string& key) {
  Shard& s = shardOf(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) return std::nullopt;
  return it->second;
}

void FeasibilityCache::insert(const std::string& key, Feasibility f) {
  Shard& s = shardOf(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.map.emplace(key, f);
}

void FeasibilityCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
  }
  // After the shards: a query that read the old generation and raced the
  // clear stamps its verdict with a generation that is already stale.
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, Feasibility>> FeasibilityCache::snapshot() {
  std::vector<std::pair<std::string, Feasibility>> out;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.map.begin(), s.map.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

size_t FeasibilityCache::size() {
  size_t n = 0;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

}  // namespace padfa::pb
