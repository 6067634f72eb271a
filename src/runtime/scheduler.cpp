#include "runtime/scheduler.h"

#include <algorithm>
#include <atomic>

namespace padfa {

uint64_t loopTripCount(const LoopRange& r) {
  if (r.step == 0) return 0;
  if (r.step > 0 ? r.lo > r.hi : r.lo < r.hi) return 0;
  uint64_t span =
      r.step > 0 ? static_cast<uint64_t>(r.hi) - static_cast<uint64_t>(r.lo)
                 : static_cast<uint64_t>(r.lo) - static_cast<uint64_t>(r.hi);
  uint64_t mag = r.step > 0 ? static_cast<uint64_t>(r.step)
                            : ~static_cast<uint64_t>(r.step) + 1;
  uint64_t count = span / mag;
  return count == UINT64_MAX ? count : count + 1;  // saturate
}

int64_t resolveChunk(uint64_t trip) {
  return static_cast<int64_t>(std::clamp<uint64_t>(trip / 64, 1, 4096));
}

uint64_t blockCount(uint64_t trip, int64_t chunk) {
  if (trip == 0 || chunk <= 0) return 0;
  uint64_t c = static_cast<uint64_t>(chunk);
  return trip / c + (trip % c != 0 ? 1 : 0);
}

LoopBlock blockAt(const LoopRange& r, int64_t chunk, uint64_t index) {
  LoopBlock b;
  b.index = index;
  uint64_t trip = loopTripCount(r);
  uint64_t c = static_cast<uint64_t>(chunk);
  uint64_t start = index * c;
  uint64_t n = std::min<uint64_t>(c, trip - start);
  b.first_ordinal = static_cast<int64_t>(start);
  b.iters = n;
  // lo + ordinal*step in wrapping uint64 arithmetic (exact: the result
  // lies within the int64 iteration range).
  b.first = static_cast<int64_t>(static_cast<uint64_t>(r.lo) +
                                 start * static_cast<uint64_t>(r.step));
  b.last = static_cast<int64_t>(static_cast<uint64_t>(r.lo) +
                                (start + n - 1) *
                                    static_cast<uint64_t>(r.step));
  return b;
}

void runBlocks(ThreadPool& pool, const LoopRange& r, int64_t chunk,
               const std::function<void(unsigned, const LoopBlock&)>& body) {
  uint64_t nblocks = blockCount(loopTripCount(r), chunk);
  if (nblocks == 0) return;
  std::atomic<uint64_t> next{0};
  pool.runOnAll([&](unsigned t) {
    while (!pool.cancelRequested()) {
      uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= nblocks) return;
      body(t, blockAt(r, chunk, i));
    }
  });
}

}  // namespace padfa
