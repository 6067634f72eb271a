// Block scheduler for parallel loop execution.
//
// The iteration space is first cut into fixed-size *blocks* of `chunk`
// consecutive iterations. The decomposition depends only on the loop
// bounds, step, and chunk — never on the thread count — so any
// per-block computation (e.g. per-block reduction partials combined in
// block-index order) is bit-identical across 1..N workers.
//
// Workers claim blocks one at a time from a shared atomic counter
// (dynamic self-scheduling), and only while idle — never while a block
// is in flight. Claims are globally increasing, so each worker runs its
// blocks in increasing order and the lowest unfinished block is always
// executing or about to be claimed; that is what keeps Doacross
// cross-iteration waits deadlock-free (DESIGN.md §14.4).
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/thread_pool.h"

namespace padfa {

/// An inclusive iteration range with stride. `step` may be negative;
/// the range is empty when it runs against the step direction.
struct LoopRange {
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t step = 1;
};

/// One scheduler block: iterations `first..last` (inclusive, in step
/// direction), covering ordinals [first_ordinal, first_ordinal+iters).
struct LoopBlock {
  uint64_t index = 0;
  int64_t first = 0;
  int64_t last = 0;
  int64_t first_ordinal = 0;
  uint64_t iters = 0;
};

/// Number of iterations in `r` (0 when empty; saturates at UINT64_MAX
/// for the full-domain unit-stride range, which is unreachable through
/// the interpreter anyway).
uint64_t loopTripCount(const LoopRange& r);

/// The DOALL chunk rule: trip/64 clamped to [1, 4096]. (Doacross loops
/// use chunk 1: pipelining wants the finest grain.)
int64_t resolveChunk(uint64_t trip);

/// ceil(trip / chunk).
uint64_t blockCount(uint64_t trip, int64_t chunk);

/// The `index`-th block of the decomposition of `r` into `chunk`-sized
/// blocks.
LoopBlock blockAt(const LoopRange& r, int64_t chunk, uint64_t index);

/// Execute `body(worker, block)` for every block of the decomposition
/// of `r` on pool.size() workers. Each block runs exactly once; blocks
/// are claimed in increasing index order, one at a time, by idle
/// workers. Exceptions from `body` propagate per ThreadPool::runOnAll
/// semantics (first wins, siblings see cancelRequested()). `body` is
/// also expected to poll pool.cancelRequested() in long iterations.
void runBlocks(ThreadPool& pool, const LoopRange& r, int64_t chunk,
               const std::function<void(unsigned, const LoopBlock&)>& body);

}  // namespace padfa
