#include "interp/interp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "audit/race_oracle.h"
#include "interp/lowered.h"
#include "runtime/scheduler.h"

namespace padfa {

double noiseValue(int64_t x) {
  // splitmix64 finalizer -> [0, 1).
  uint64_t z = static_cast<uint64_t>(x) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

int64_t inoiseValue(int64_t x, int64_t m) {
  if (m <= 0) return 0;
  return static_cast<int64_t>(noiseValue(x ^ 0x5bf03635) * static_cast<double>(m));
}

namespace {

using namespace lowered;

/// Runtime storage for one array. The element buffer is itself shared so
/// that a reshaped formal parameter (different dims, same data) is just
/// another ArrayStorage viewing the same buffer — exactly Fortran's
/// sequence association, which the analysis's Reshape operation models.
/// A buffer never changes size, so the cached element pointers stay valid
/// for every view.
struct ArrayStorage {
  Type elem = Type::Real;
  std::vector<int64_t> dims;
  size_t size = 0;  // product of dims (a view may cover part of its buffer)
  std::shared_ptr<std::vector<double>> reals;
  std::shared_ptr<std::vector<int64_t>> ints;
  double* rdata = nullptr;
  int64_t* idata = nullptr;

  /// Stable identity of the underlying buffer (shared across views).
  const void* bufferId() const {
    return elem == Type::Real ? static_cast<const void*>(reals.get())
                              : static_cast<const void*>(ints.get());
  }

  /// A storage over `dims` sharing `like`'s buffer (none yet when null).
  static std::shared_ptr<ArrayStorage> view(Type elem,
                                            std::vector<int64_t> dims,
                                            const ArrayStorage* like) {
    auto st = std::make_shared<ArrayStorage>();
    st->elem = elem;
    st->dims = std::move(dims);
    st->size = 1;
    for (int64_t d : st->dims) st->size *= static_cast<size_t>(d);
    if (like) {
      st->reals = like->reals;
      st->ints = like->ints;
      st->rdata = like->rdata;
      st->idata = like->idata;
    }
    return st;
  }

  void setBuffer(std::vector<double> v) {
    reals = std::make_shared<std::vector<double>>(std::move(v));
    rdata = reals->data();
  }
  void setBuffer(std::vector<int64_t> v) {
    ints = std::make_shared<std::vector<int64_t>>(std::move(v));
    idata = ints->data();
  }
};

struct Cell {
  int64_t i = 0;
  double r = 0;
  std::shared_ptr<ArrayStorage> array;
};

using Frame = std::vector<Cell>;

// ----------------------------------------------- Doacross run-time sync --

/// One ring cell, reused by iterations o, o+R, o+2R, ... The window gate
/// (iteration o spins on cell[o%R].done >= o-R before starting) makes
/// the per-lap reuse unambiguous: tags are monotone per cell, and a tag
/// >= the wanted ordinal proves that ordinal's post fired (a later lap
/// can only run after the wanted lap fully completed).
struct DoaCell {
  std::atomic<int64_t> done{-1};
  std::unique_ptr<std::atomic<int64_t>[]> posted;
};

/// Recorded sync/busy trace of one iteration, replayed post-region by
/// the event-driven makespan model (busy offsets exclude spin time).
struct DoaEvent {
  bool is_wait = false;
  uint32_t slot = 0;
  int64_t dep = -1;   // waited-on ordinal (waits only)
  double at = 0;      // busy offset within the iteration
};
struct DoaIterRec {
  std::vector<DoaEvent> events;
  double busy = 0;
};

/// Thrown inside a Doacross worker when a sibling faulted: unwinds the
/// in-flight iteration so the barrier can rethrow the sibling's error.
struct DoaCancel {};

struct DoaCtx;
thread_local DoaCtx* t_doa = nullptr;

double threadCpuSecondsNow() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Per-worker state of an active Doacross region, installed in t_doa
/// while the worker executes loop-body statements. The plan's waits and
/// posts are looked up by statement id (lowered::DoaTables).
struct DoaCtx {
  const DoaTables* tables = nullptr;
  DoaCell* cells = nullptr;
  int64_t ring = 2;
  ThreadPool* pool = nullptr;
  int64_t ordinal = 0;
  DoaIterRec* rec = nullptr;
  double cpu_base = 0;
  double spin_cpu = 0;
  uint64_t wait_count = 0;

  double busyNow() const { return threadCpuSecondsNow() - cpu_base - spin_cpu; }

  /// The statement's sync entry, or null when it neither waits nor posts.
  const DoaStmtSync* syncOf(uint32_t stmt) const {
    uint32_t k = stmt - tables->first_stmt;  // wraps below first_stmt
    return k < tables->at.size() ? &tables->at[k] : nullptr;
  }

  void beforeStmt(uint32_t stmt) {
    const DoaStmtSync* s = syncOf(stmt);
    if (!s) return;
    for (uint32_t w = s->wait_begin; w < s->wait_end; ++w) {
      const DoaWait& wait = tables->waits[w];
      int64_t want = ordinal - wait.distance;
      if (want < 0) continue;
      ++wait_count;
      if (rec && rec->events.size() < 256)
        rec->events.push_back({true, wait.slot, want, busyNow()});
      DoaCell& cell = cells[want % ring];
      if (cell.posted[wait.slot].load(std::memory_order_acquire) >= want)
        continue;
      double sp0 = threadCpuSecondsNow();
      while (cell.posted[wait.slot].load(std::memory_order_acquire) < want) {
        if (pool->cancelRequested()) {
          spin_cpu += threadCpuSecondsNow() - sp0;
          throw DoaCancel{};
        }
        std::this_thread::yield();
      }
      spin_cpu += threadCpuSecondsNow() - sp0;
    }
  }

  void afterStmt(uint32_t stmt) {
    const DoaStmtSync* s = syncOf(stmt);
    if (!s || s->post < 0) return;
    uint32_t slot = static_cast<uint32_t>(s->post);
    if (rec && rec->events.size() < 256)
      rec->events.push_back({false, slot, -1, busyNow()});
    cells[ordinal % ring].posted[slot].store(ordinal,
                                             std::memory_order_release);
  }
};

/// RAII installer for t_doa (exception-safe against RuntimeError and
/// DoaCancel unwinding through execBlock).
struct DoaScope {
  explicit DoaScope(DoaCtx* ctx) { t_doa = ctx; }
  ~DoaScope() { t_doa = nullptr; }
};

[[noreturn]] void throwOutOfBounds(const Node& x, int64_t idx, int64_t dim,
                                   unsigned j) {
  throw RuntimeError(x.src->loc, "index " + std::to_string(idx) +
                                     " out of bounds [0, " +
                                     std::to_string(dim - 1) +
                                     "] in dimension " + std::to_string(j));
}

class Interp {
 public:
  Interp(const Program& program, const InterpOptions& opt)
      : program_(program), opt_(opt) {
    // Instrumented runs (ELPD or race oracle) are sequential by contract:
    // the collectors are not thread-safe, and the elpd_/race_active_ flags
    // below are plain bools that may only be toggled single-threaded.
    // A single-threaded plan run still gets a (worker-less) pool: planned
    // loops then take the same block decomposition and per-block
    // reduction combine as multi-threaded runs, so results are
    // bit-identical across 1..N threads.
    if (opt_.plans && opt_.num_threads >= 1 && !opt_.race && !opt_.elpd)
      pool_ = std::make_unique<ThreadPool>(opt_.num_threads);
    code_ = lower(program, {pool_ ? opt_.plans : nullptr, opt_.elpd,
                            opt_.race});
    nodes_ = code_.nodes.data();
    subs_ = code_.subs.data();
  }

  InterpStats run() {
    const ProcDecl* main = program_.findProc("main");
    if (!main) throw RuntimeError({}, "program has no 'main' procedure");
    if (!main->params.empty())
      throw RuntimeError(main->loc, "'main' must take no parameters");
    const ProcCode* pc = nullptr;
    for (const ProcCode& p : code_.procs)
      if (p.decl == main) pc = &p;
    auto t0 = std::chrono::steady_clock::now();
    Frame frame(pc->frame_size);
    execBlock(pc->body, frame.data());
    auto t1 = std::chrono::steady_clock::now();
    stats_.total_seconds = std::chrono::duration<double>(t1 - t0).count();
    stats_.simulated_seconds =
        stats_.total_seconds - parallel_wall_ + parallel_simulated_;
    return std::move(stats_);
  }

 private:
  // ------------------------------------------------------- expression --
  // Operands evaluate left to right (a, then b); && and || skip b.

  int64_t evalI(uint32_t n, Cell* f) {
    const Node& x = nodes_[n];
    switch (x.op) {
      case Op::ILit: return x.k.i;
      case Op::IVar:
        if (race_active_) recordScalarRead(x);
        return f[x.a].i;
      case Op::IArrF: {
        const ArrayStorage& st = arrayOf(x, f);
        size_t k = fusedIndex(x, f, st);
        if (elpd_active_ || race_active_) recordElement(x, st, k, false);
        return st.idata[k];
      }
      case Op::IArr: {
        const ArrayStorage& st = arrayOf(x, f);
        size_t k = treeIndex(x, f, st);
        if (elpd_active_ || race_active_) recordElement(x, st, k, false);
        return st.idata[k];
      }
      case Op::INeg: return -evalI(x.a, f);
      case Op::IAdd: {
        int64_t l = evalI(x.a, f);
        return l + evalI(x.b, f);
      }
      case Op::ISub: {
        int64_t l = evalI(x.a, f);
        return l - evalI(x.b, f);
      }
      case Op::IMul: {
        int64_t l = evalI(x.a, f);
        return l * evalI(x.b, f);
      }
      case Op::IDiv: {
        int64_t l = evalI(x.a, f);
        int64_t r = evalI(x.b, f);
        if (r == 0) throw RuntimeError(x.src->loc, "integer division by zero");
        return l / r;
      }
      case Op::IRem: {
        int64_t l = evalI(x.a, f);
        int64_t r = evalI(x.b, f);
        if (r == 0) throw RuntimeError(x.src->loc, "integer modulo by zero");
        return l % r;
      }
      case Op::IMin: {
        int64_t l = evalI(x.a, f);
        return std::min(l, evalI(x.b, f));
      }
      case Op::IMax: {
        int64_t l = evalI(x.a, f);
        return std::max(l, evalI(x.b, f));
      }
      case Op::IAbs: {
        int64_t v = evalI(x.a, f);
        return v < 0 ? -v : v;
      }
      case Op::INoise: {
        int64_t v = evalI(x.a, f);
        return inoiseValue(v, evalI(x.b, f));
      }
      case Op::R2I: return static_cast<int64_t>(evalR(x.a, f));
      case Op::IEq: { int64_t l = evalI(x.a, f); return l == evalI(x.b, f); }
      case Op::INe: { int64_t l = evalI(x.a, f); return l != evalI(x.b, f); }
      case Op::ILt: { int64_t l = evalI(x.a, f); return l < evalI(x.b, f); }
      case Op::ILe: { int64_t l = evalI(x.a, f); return l <= evalI(x.b, f); }
      case Op::IGt: { int64_t l = evalI(x.a, f); return l > evalI(x.b, f); }
      case Op::IGe: { int64_t l = evalI(x.a, f); return l >= evalI(x.b, f); }
      case Op::REq: { double l = evalR(x.a, f); return l == evalR(x.b, f); }
      case Op::RNe: { double l = evalR(x.a, f); return l != evalR(x.b, f); }
      case Op::RLt: { double l = evalR(x.a, f); return l < evalR(x.b, f); }
      case Op::RLe: { double l = evalR(x.a, f); return l <= evalR(x.b, f); }
      case Op::RGt: { double l = evalR(x.a, f); return l > evalR(x.b, f); }
      case Op::RGe: { double l = evalR(x.a, f); return l >= evalR(x.b, f); }
      case Op::And:
        if (evalI(x.a, f) == 0) return 0;
        return evalI(x.b, f) != 0;
      case Op::Or:
        if (evalI(x.a, f) != 0) return 1;
        return evalI(x.b, f) != 0;
      case Op::Not: return evalI(x.a, f) == 0;
      default: break;
    }
    throw std::logic_error("interp: real opcode in int context");
  }

  double evalR(uint32_t n, Cell* f) {
    const Node& x = nodes_[n];
    switch (x.op) {
      case Op::RLit: return x.k.r;
      case Op::RVar:
        if (race_active_) recordScalarRead(x);
        return f[x.a].r;
      case Op::RArrF: {
        const ArrayStorage& st = arrayOf(x, f);
        size_t k = fusedIndex(x, f, st);
        if (elpd_active_ || race_active_) recordElement(x, st, k, false);
        return st.rdata[k];
      }
      case Op::RArr: {
        const ArrayStorage& st = arrayOf(x, f);
        size_t k = treeIndex(x, f, st);
        if (elpd_active_ || race_active_) recordElement(x, st, k, false);
        return st.rdata[k];
      }
      case Op::RNeg: return -evalR(x.a, f);
      case Op::RAdd: {
        double l = evalR(x.a, f);
        return l + evalR(x.b, f);
      }
      case Op::RSub: {
        double l = evalR(x.a, f);
        return l - evalR(x.b, f);
      }
      case Op::RMul: {
        double l = evalR(x.a, f);
        return l * evalR(x.b, f);
      }
      case Op::RDiv: {
        double l = evalR(x.a, f);
        return l / evalR(x.b, f);
      }
      case Op::RMin: {
        double l = evalR(x.a, f);
        return std::min(l, evalR(x.b, f));
      }
      case Op::RMax: {
        double l = evalR(x.a, f);
        return std::max(l, evalR(x.b, f));
      }
      case Op::RAbs: return std::fabs(evalR(x.a, f));
      case Op::Sqrt: return std::sqrt(evalR(x.a, f));
      case Op::Noise: return noiseValue(evalI(x.a, f));
      case Op::I2R: return static_cast<double>(evalI(x.a, f));
      default: break;
    }
    throw std::logic_error("interp: int opcode in real context");
  }

  const ArrayStorage& arrayOf(const Node& x, const Cell* f) const {
    const ArrayStorage* st = f[x.a].array.get();
    if (!st) throw RuntimeError(x.src->loc, "array used before allocation");
    return *st;
  }

  /// Row-major element index of an array node. Each subscript is bounds
  /// checked right after it is evaluated, in order.
  size_t elementIndex(const Node& x, Cell* f, const ArrayStorage& st) {
    return isFusedArray(x.op) ? fusedIndex(x, f, st) : treeIndex(x, f, st);
  }

  /// Fused subscripts read their slots and offsets inline.
  [[gnu::always_inline]] size_t fusedIndex(const Node& x, const Cell* f,
                                           const ArrayStorage& st) {
    const int64_t* dims = st.dims.data();
    const Sub* s = &subs_[x.b];
    size_t flat = 0;
    for (unsigned j = 0; j < x.rank; ++j) {
      if (race_active_ && s[j].read) opt_.race->recordScalarRead(s[j].read);
      int64_t idx = f[s[j].slot].i + s[j].off;
      if (idx < 0 || idx >= dims[j]) throwOutOfBounds(x, idx, dims[j], j);
      flat = flat * static_cast<size_t>(dims[j]) + static_cast<size_t>(idx);
    }
    return flat;
  }

  size_t treeIndex(const Node& x, Cell* f, const ArrayStorage& st) {
    const int64_t* dims = st.dims.data();
    size_t flat = 0;
    const uint32_t* roots = &code_.index_roots[x.b];
    for (unsigned j = 0; j < x.rank; ++j) {
      int64_t idx = evalI(roots[j], f);
      if (idx < 0 || idx >= dims[j]) throwOutOfBounds(x, idx, dims[j], j);
      flat = flat * static_cast<size_t>(dims[j]) + static_cast<size_t>(idx);
    }
    return flat;
  }

  // Instrumentation hooks (ELPD / race oracle; sequential runs only).
  void recordScalarRead(const Node& x) {
    opt_.race->recordScalarRead(static_cast<const VarRefExpr*>(x.src)->decl);
  }
  void recordElement(const Node& x, const ArrayStorage& st, size_t flat,
                     bool is_write) {
    if (elpd_active_)
      opt_.elpd->recordAccess(st.bufferId(), flat, st.size, is_write);
    if (race_active_)
      opt_.race->recordAccess(st.bufferId(),
                              static_cast<const ArrayRefExpr*>(x.src)->decl,
                              flat, st.size, is_write);
  }

  /// Evaluate a loop's run-time test; Pred::evaluate asks for each atom
  /// operand, found among the loop's lowered atoms.
  bool evalTest(const ForCode& fc, const Pred& test, Cell* f) {
    return test.evaluate([&](const Expr& e) {
      for (uint32_t k = fc.atom_begin; k < fc.atom_end; ++k)
        if (code_.atoms[k].expr == &e) return evalR(code_.atoms[k].root, f);
      throw std::logic_error("interp: run-time test atom was not lowered");
    });
  }

  // -------------------------------------------------------- statements --

  // Returns true if a `return` unwound.
  bool execBlock(uint32_t b, Cell* f) {
    const BlockCode& blk = code_.blocks[b];
    for (uint32_t d = blk.decl_begin; d < blk.decl_end; ++d)
      allocate(code_.decls[d], f);
    for (uint32_t s = blk.stmt_begin; s < blk.stmt_end; ++s)
      if (execStmt(s, f)) return true;
    return false;
  }

  void allocate(const DeclCode& d, Cell* f) {
    Cell& cell = f[d.slot];
    if (d.dims_end > d.dims_begin) {
      std::vector<int64_t> dims;
      for (uint32_t k = d.dims_begin; k < d.dims_end; ++k) {
        int64_t n = evalI(code_.index_roots[k], f);
        if (n <= 0)
          throw RuntimeError(d.decl->loc, "non-positive array dimension");
        dims.push_back(n);
      }
      Type elem = d.decl->elem_type;
      auto st = ArrayStorage::view(elem, std::move(dims), nullptr);
      if (elem == Type::Real)
        st->setBuffer(std::vector<double>(st->size, 0.0));
      else
        st->setBuffer(std::vector<int64_t>(st->size, 0));
      cell.array = std::move(st);
      // The heap may recycle a freed buffer's address: stale shadow state
      // recorded for the old buffer must not taint the new one.
      if (race_active_) opt_.race->bufferAllocated(cell.array->bufferId());
    } else {
      cell.i = 0;
      cell.r = 0;
      if (d.init != kNone) {
        if (d.decl->elem_type == Type::Int)
          cell.i = evalI(d.init, f);
        else
          cell.r = evalR(d.init, f);
      }
    }
  }

  bool execStmt(uint32_t s, Cell* f) {
    // Doacross post/wait hooks: inside a pipelined region every worker
    // waits before executing a sync sink and posts after executing a
    // sync source (t_doa is null everywhere else — one predictable
    // branch per statement).
    if (t_doa) {
      t_doa->beforeStmt(s);
      bool ret = execStmtImpl(code_.stmts[s], f);
      t_doa->afterStmt(s);
      return ret;
    }
    return execStmtImpl(code_.stmts[s], f);
  }

  bool execStmtImpl(const SNode& s, Cell* f) {
    switch (s.op) {
      case SOp::SetI: {
        int64_t v = evalI(s.b, f);
        if (race_active_) recordScalarWrite(s);
        f[s.a].i = v;
        return false;
      }
      case SOp::SetR: {
        double v = evalR(s.b, f);
        if (race_active_) recordScalarWrite(s);
        f[s.a].r = v;
        return false;
      }
      case SOp::StoreI: {
        int64_t v = evalI(s.b, f);
        const Node& t = nodes_[s.a];
        const ArrayStorage& st = arrayOf(t, f);
        size_t k = elementIndex(t, f, st);
        if (elpd_active_ || race_active_) recordElement(t, st, k, true);
        st.idata[k] = v;
        return false;
      }
      case SOp::StoreR: {
        double v = evalR(s.b, f);
        const Node& t = nodes_[s.a];
        const ArrayStorage& st = arrayOf(t, f);
        size_t k = elementIndex(t, f, st);
        if (elpd_active_ || race_active_) recordElement(t, st, k, true);
        st.rdata[k] = v;
        return false;
      }
      case SOp::If:
        if (evalI(s.a, f) != 0) return execBlock(s.b, f);
        if (s.c != kNone) return execBlock(s.c, f);
        return false;
      case SOp::For:
        return execFor(code_.loops[s.a], f);
      case SOp::Call:
        return execCall(code_.calls[s.a], f);
      case SOp::Sink: {
        double v = evalR(s.a, f);
        std::lock_guard<std::mutex> lock(sink_mu_);
        stats_.checksum += v;
        ++stats_.sink_count;
        return false;
      }
      case SOp::Return:
        return true;
      case SOp::Block:
        return execBlock(s.a, f);
    }
    return false;
  }

  void recordScalarWrite(const SNode& s) {
    const auto& as = static_cast<const AssignStmt&>(*s.src);
    opt_.race->recordScalarWrite(
        static_cast<const VarRefExpr&>(*as.target).decl);
  }

  bool execCall(const CallCode& c, Cell* f) {
    const ProcCode& callee = code_.procs[c.proc];
    Frame callee_frame(callee.frame_size);
    Cell* cf = callee_frame.data();
    const uint32_t* args = &code_.call_args[c.arg_begin];
    // Bind scalar parameters first: array formal dims may reference any
    // scalar parameter regardless of declaration order.
    for (uint32_t p = callee.param_begin; p < callee.param_end; ++p) {
      const ParamCode& param = code_.params[p];
      if (param.array) continue;
      uint32_t arg = args[p - callee.param_begin];
      if (param.elem == Type::Int)
        cf[param.slot].i = evalI(arg, f);
      else
        cf[param.slot].r = evalR(arg, f);
    }
    for (uint32_t p = callee.param_begin; p < callee.param_end; ++p) {
      const ParamCode& param = code_.params[p];
      if (!param.array) continue;
      const auto& actual = f[args[p - callee.param_begin]].array;
      if (!actual)
        throw RuntimeError(c.stmt->loc, "array argument not allocated");
      std::vector<int64_t> fdims;
      size_t want = 1;
      for (uint32_t k = param.dims_begin; k < param.dims_end; ++k) {
        int64_t n = evalI(code_.index_roots[k], cf);
        if (n <= 0)
          throw RuntimeError(c.stmt->loc,
                             "non-positive formal array dimension");
        fdims.push_back(n);
        want *= static_cast<size_t>(n);
      }
      Cell& cell = cf[param.slot];
      if (fdims == actual->dims) {
        cell.array = actual;  // same shape: direct sharing
      } else {
        // Fortran-style sequence association: the formal is a reshaped
        // view over the same buffer.
        if (want > actual->size)
          throw RuntimeError(
              c.stmt->loc, "reshaped formal view (" + std::to_string(want) +
                               " elements) exceeds actual array (" +
                               std::to_string(actual->size) + " elements)");
        cell.array = ArrayStorage::view(actual->elem, std::move(fdims),
                                        actual.get());
      }
    }
    try {
      execBlock(callee.body, cf);
    } catch (const RuntimeError& e) {
      // Rewrap with a call-stack frame so a fault deep in a callee chain
      // reports every call site on the way down.
      throw RuntimeError(e, program_.interner.str(callee.decl->name),
                         c.stmt->loc);
    }
    return false;
  }

  bool execFor(const ForCode& fc, Cell* f) {
    int64_t lb = evalI(fc.lower, f);
    int64_t ub = evalI(fc.upper, f);
    int64_t step = fc.step != kNone ? evalI(fc.step, f) : 1;
    if (step == 0) throw RuntimeError(fc.loop->loc, "zero loop step");

    const LoopPlan* plan = in_parallel_ ? nullptr : fc.plan;

    auto t0 = std::chrono::steady_clock::now();
    bool returned = false;
    uint64_t iters = 0;

    if (plan && plan->status == LoopStatus::RuntimeTest) {
      ++stats_.runtime_tests_evaluated;
      stats_.runtime_test_atoms += plan->runtime_test.atomCount();
      bool pass = false;
      try {
        pass = evalTest(fc, plan->runtime_test, f);
      } catch (const RuntimeError&) {
        // A test whose own evaluation faults (division by zero, bad
        // subscript in an atom) must not crash the dispatch: treat it as
        // failed and take the sequential version, which reproduces the
        // fault exactly when the original program would.
        ++stats_.runtime_tests_trapped;
        pass = false;
      }
      if (pass)
        ++stats_.runtime_tests_passed;
      else
        plan = nullptr;  // fall back to the sequential version
    }
    // A promoted plan (runtime test statically discharged by value
    // ranges) dispatches straight to the parallel version: the test the
    // two-version scheme would have evaluated here was proved true at
    // compile time.
    if (plan && plan->status == LoopStatus::Parallel &&
        plan->vra_action == VraAction::PromotedParallel)
      ++stats_.runtime_tests_pruned;

    double region_sim = -1;
    if (plan && step > 0 && lb <= ub) {
      region_sim = execRegion(fc, *plan, f, lb, ub, step);
      if (plan->status == LoopStatus::Doacross)
        ++stats_.doacross_loops_entered;
      else
        ++stats_.parallel_loops_entered;
      iters = static_cast<uint64_t>((ub - lb) / step + 1);
    } else {
      returned = execForSequential(fc, f, lb, ub, step, iters);
    }

    // Profiling is skipped inside parallel regions (stats_ would race);
    // coverage/granularity numbers come from sequential profiled runs.
    if (opt_.profile && !in_parallel_) {
      auto t1 = std::chrono::steady_clock::now();
      LoopProfile& prof = stats_.profiles[fc.loop];
      ++prof.invocations;
      prof.iterations += iters;
      double wall = std::chrono::duration<double>(t1 - t0).count();
      prof.seconds += wall;
      prof.simulated_seconds += region_sim >= 0 ? region_sim : wall;
    }
    return returned;
  }

  bool execForSequential(const ForCode& fc, Cell* f, int64_t lb, int64_t ub,
                         int64_t step, uint64_t& iters) {
    const ForStmt* loop = fc.loop;
    bool instrument = fc.elpd;
    if (instrument) opt_.elpd->loopEnter(loop);
    // Only touch the activity flags when the corresponding collector is
    // attached: collectors force sequential execution (no pool), so the
    // flags are then single-threaded. Without a collector they must stay
    // untouched — parallel workers read them concurrently.
    bool prev_active = elpd_active_;
    if (opt_.elpd) elpd_active_ = elpd_active_ || instrument;
    // Race-oracle instrumentation: arm the loop's independence claim.
    // RuntimeTest plans only claim independence on invocations where the
    // derived test passes — the test is evaluated here exactly as the
    // two-version dispatch would (faults count as "failed").
    const LoopPlan* rplan = fc.race_plan;
    bool race_instr = rplan != nullptr;
    if (race_instr) {
      auto testPasses = [&] {
        try {
          return evalTest(fc, rplan->runtime_test, f);
        } catch (const RuntimeError&) {
          return false;
        }
      };
      if (rplan->status == LoopStatus::RuntimeTest) {
        race_instr = testPasses();
      } else if (rplan->status == LoopStatus::Parallel &&
                 rplan->vra_action == VraAction::PromotedParallel) {
        // A promoted plan claims its retained test ALWAYS passes; the
        // oracle checks that claim concretely on every entry. The
        // independence shadowing still runs either way — the plan runs
        // parallel unconditionally, so its claim is unconditional.
        if (!testPasses()) opt_.race->promotedTestFailed(loop);
      }
      if (race_instr) {
        std::set<const void*> priv_buffers;
        for (const auto& pa : rplan->privatized) {
          const auto& cell = f[pa.array->local_id];
          if (cell.array) priv_buffers.insert(cell.array->bufferId());
        }
        opt_.race->loopEnter(loop, priv_buffers);
      }
    }
    bool prev_race = race_active_;
    if (opt_.race) race_active_ = race_active_ || race_instr;
    int64_t ordinal = 0;
    bool returned = false;
    for (int64_t i = lb; step > 0 ? i <= ub : i >= ub; i += step, ++ordinal) {
      if (instrument) opt_.elpd->loopIterStart(loop, ordinal);
      if (race_instr) opt_.race->loopIterStart(loop, ordinal);
      f[fc.index_slot].i = i;
      if (execBlock(fc.body, f)) {
        returned = true;
        break;
      }
    }
    iters = static_cast<uint64_t>(ordinal);
    if (instrument) opt_.elpd->loopExit(loop);
    if (race_instr) opt_.race->loopExit(loop);
    if (opt_.elpd) elpd_active_ = prev_active;
    if (opt_.race) race_active_ = prev_race;
    return returned;
  }

  /// Prepare the per-worker shallow frames (plus one dedicated frame for
  /// the final block, which owns copy-out) with fresh privatized array
  /// copies. Returns T+1 frames; index T is the final-block frame.
  std::vector<Frame> makeWorkerFrames(const LoopPlan& plan,
                                      const ForCode& fc, Cell* f,
                                      unsigned T) {
    // Shallow copies: shared arrays alias.
    std::vector<Frame> frames(T + 1, Frame(f, f + fc.frame_size));
    for (const auto& pa : plan.privatized) {
      const ArrayStorage& shared = *f[pa.array->local_id].array;
      for (auto& fr : frames) {
        auto priv = ArrayStorage::view(shared.elem, shared.dims, nullptr);
        if (shared.elem == Type::Real)
          priv->setBuffer(pa.copy_in ? *shared.reals
                                     : std::vector<double>(shared.size, 0.0));
        else
          priv->setBuffer(pa.copy_in ? *shared.ints
                                     : std::vector<int64_t>(shared.size, 0));
        fr[pa.array->local_id].array = std::move(priv);
      }
    }
    return frames;
  }

  static void setReductionIdentity(const ScalarReduction& red, Cell& c) {
    switch (red.op) {
      case ReductionOp::Sum:
        c.i = 0; c.r = 0; break;
      case ReductionOp::Prod:
        c.i = 1; c.r = 1; break;
      case ReductionOp::Min:
        c.i = std::numeric_limits<int64_t>::max();
        c.r = std::numeric_limits<double>::infinity();
        break;
      case ReductionOp::Max:
        c.i = std::numeric_limits<int64_t>::min();
        c.r = -std::numeric_limits<double>::infinity();
        break;
    }
  }

  static void applyReduction(const ScalarReduction& red, Cell& into,
                             int64_t i, double r) {
    bool is_int = red.scalar->elem_type == Type::Int;
    switch (red.op) {
      case ReductionOp::Sum:
        if (is_int) into.i += i; else into.r += r;
        break;
      case ReductionOp::Prod:
        if (is_int) into.i *= i; else into.r *= r;
        break;
      case ReductionOp::Min:
        if (is_int) into.i = std::min(into.i, i);
        else into.r = std::min(into.r, r);
        break;
      case ReductionOp::Max:
        if (is_int) into.i = std::max(into.i, i);
        else into.r = std::max(into.r, r);
        break;
    }
  }

  /// Copy-out from the final-block frame: privatized arrays and scalars
  /// take the values left by the globally-last block (which contains the
  /// last iteration — the analysis guarantees per-iteration definition,
  /// so any contiguous tail is equivalent and the choice does not depend
  /// on the thread count). Arrays are copied in place, so every view of
  /// the shared buffer keeps its element pointers.
  void copyOutFrom(const LoopPlan& plan, Cell* f, Frame& lf) {
    for (const auto& pa : plan.privatized) {
      if (!pa.copy_out) continue;
      ArrayStorage& shared = *f[pa.array->local_id].array;
      const ArrayStorage& priv = *lf[pa.array->local_id].array;
      if (shared.elem == Type::Real)
        std::copy(priv.reals->begin(), priv.reals->end(), shared.rdata);
      else
        std::copy(priv.ints->begin(), priv.ints->end(), shared.idata);
    }
    for (const VarDecl* sc : plan.copy_out_scalars)
      f[sc->local_id] = lf[sc->local_id];
  }

  /// Event-driven makespan model for a recorded Doacross region: replay
  /// the per-iteration busy/wait/post traces on T virtual workers under
  /// the canonical cyclic assignment (iteration o -> worker o mod T),
  /// honoring the sliding window. Processing iterations in ascending
  /// order is valid because waits and the window gate only reference
  /// strictly smaller ordinals.
  static double doaSimulate(const std::vector<DoaIterRec>& recs, unsigned T,
                            int64_t ring, size_t nslots) {
    uint64_t trip = recs.size();
    std::vector<double> post_time(trip * nslots, -1.0);
    std::vector<double> done(trip, 0.0);
    std::vector<double> wclock(T, 0.0);
    for (uint64_t o = 0; o < trip; ++o) {
      unsigned w = static_cast<unsigned>(o % T);
      double t = wclock[w];
      if (static_cast<int64_t>(o) >= ring)
        t = std::max(t, done[o - static_cast<uint64_t>(ring)]);
      const DoaIterRec& r = recs[o];
      double prev = 0;
      for (const DoaEvent& ev : r.events) {
        t += std::max(0.0, ev.at - prev);
        prev = ev.at;
        if (ev.is_wait) {
          if (ev.dep >= 0 && static_cast<uint64_t>(ev.dep) < o) {
            double pt =
                post_time[static_cast<uint64_t>(ev.dep) * nslots + ev.slot];
            if (pt >= 0) t = std::max(t, pt);
          }
        } else {
          double& pt = post_time[o * nslots + ev.slot];
          if (pt < 0) pt = t;
        }
      }
      t += std::max(0.0, r.busy - prev);
      for (size_t s = 0; s < nslots; ++s) {
        double& pt = post_time[o * nslots + s];
        if (pt < 0) pt = t;  // end-of-iteration backstop post
      }
      done[o] = t;
      wclock[w] = t;
    }
    double makespan = 0;
    for (double t : wclock) makespan = std::max(makespan, t);
    return makespan;
  }

  /// Run one parallel region over the block scheduler. A DOALL plan runs
  /// blocks of resolveChunk(trip) iterations. A Doacross plan runs
  /// one-iteration blocks pipelined through per-iteration post/wait
  /// cells in a ring of `doacross_window` slots: iteration o may not
  /// start before iteration o - window completed. Reductions combine
  /// per-block partials in ascending block order after the barrier, so
  /// their grouping depends only on the block decomposition and results
  /// are bit-identical across thread counts. Returns the simulated
  /// P-processor cost of the region: serial prologue/epilogue at wall
  /// time, the region itself at max-over-workers busy time or, for a
  /// recorded Doacross region, at the replayed makespan.
  double execRegion(const ForCode& fc, const LoopPlan& plan, Cell* f,
                    int64_t lb, int64_t ub, int64_t step) {
    auto wall0 = std::chrono::steady_clock::now();
    const bool doacross = plan.status == LoopStatus::Doacross;
    unsigned T = pool_->size();
    LoopRange range{lb, ub, step};
    uint64_t trip = loopTripCount(range);
    int64_t chunk = doacross ? 1 : resolveChunk(trip);
    uint64_t nblocks = blockCount(trip, chunk);

    std::vector<Frame> frames = makeWorkerFrames(plan, fc, f, T);
    struct RedPart {
      int64_t i;
      double r;
    };
    std::vector<std::vector<RedPart>> partials(plan.reductions.size());
    for (auto& v : partials) v.resize(nblocks);
    std::vector<double> busy(T, 0.0);

    // Doacross only: the ring of post/wait cells, and per-iteration sync
    // traces for the makespan model unless the region is too large to
    // afford them (then it falls back to the max-busy model).
    const DoaTables* tables = doacross ? &code_.doa[fc.doa] : nullptr;
    size_t nslots = doacross ? std::max<size_t>(tables->nslots, 1) : 0;
    int64_t ring = std::max<int64_t>(2, opt_.doacross_window);
    std::vector<DoaCell> cells(doacross ? static_cast<size_t>(ring) : 0);
    for (auto& cell : cells) {
      cell.posted = std::make_unique<std::atomic<int64_t>[]>(nslots);
      for (size_t s = 0; s < nslots; ++s)
        cell.posted[s].store(-1, std::memory_order_relaxed);
    }
    constexpr uint64_t kSimCap = uint64_t{1} << 16;
    bool recording = doacross && trip <= kSimCap;
    std::vector<DoaIterRec> recs(recording ? trip : 0);
    std::atomic<uint64_t> waits_total{0};

    auto region0 = std::chrono::steady_clock::now();
    bool prev_in_parallel = in_parallel_;
    in_parallel_ = true;
    runBlocks(*pool_, range, chunk, [&](unsigned t, const LoopBlock& blk) {
      Frame& tf = frames[blk.index == nblocks - 1 ? T : t];
      for (const ScalarReduction& red : plan.reductions)
        setReductionIdentity(red, tf[red.scalar->local_id]);
      if (!doacross) {
        double cpu0 = threadCpuSecondsNow();
        int64_t i = blk.first;
        for (uint64_t k = 0; k < blk.iters; ++k, i += step) {
          // Cooperative cancellation: a sibling faulted; the barrier
          // rethrows its error anyway.
          if (pool_->cancelRequested()) break;
          tf[fc.index_slot].i = i;
          execBlock(fc.body, tf.data());
        }
        busy[t] += threadCpuSecondsNow() - cpu0;
      } else {
        int64_t o = blk.first_ordinal;
        DoaCtx ctx;
        ctx.tables = tables;
        ctx.cells = cells.data();
        ctx.ring = ring;
        ctx.pool = pool_.get();
        ctx.ordinal = o;
        ctx.rec = recording ? &recs[static_cast<uint64_t>(o)] : nullptr;
        DoaScope scope(&ctx);
        try {
          // Window gate: wait for iteration o - ring (same ring cell,
          // previous lap) to fully complete.
          DoaCell& cell = cells[o % ring];
          while (cell.done.load(std::memory_order_acquire) < o - ring) {
            if (pool_->cancelRequested()) throw DoaCancel{};
            std::this_thread::yield();
          }
          ctx.cpu_base = threadCpuSecondsNow();
          tf[fc.index_slot].i = blk.first;
          execBlock(fc.body, tf.data());
          double busy_it = ctx.busyNow();
          if (ctx.rec) ctx.rec->busy = busy_it;
          busy[t] += busy_it;
          // End of iteration: backstop-post every slot (covers skipped
          // conditional sources and inner-loop sources), then publish
          // completion.
          for (size_t s = 0; s < nslots; ++s)
            cell.posted[s].store(o, std::memory_order_release);
          cell.done.store(o, std::memory_order_release);
        } catch (const DoaCancel&) {
        }
        waits_total.fetch_add(ctx.wait_count, std::memory_order_relaxed);
      }
      for (size_t r = 0; r < plan.reductions.size(); ++r) {
        const Cell& c = tf[plan.reductions[r].scalar->local_id];
        partials[r][blk.index] = {c.i, c.r};
      }
    });
    in_parallel_ = prev_in_parallel;
    auto region1 = std::chrono::steady_clock::now();

    for (size_t r = 0; r < plan.reductions.size(); ++r) {
      Cell& shared = f[plan.reductions[r].scalar->local_id];
      for (uint64_t b = 0; b < nblocks; ++b)
        applyReduction(plan.reductions[r], shared, partials[r][b].i,
                       partials[r][b].r);
    }
    if (nblocks > 0) copyOutFrom(plan, f, frames[T]);
    stats_.doacross_waits += waits_total.load(std::memory_order_relaxed);

    auto wall1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(wall1 - wall0).count();
    double region_wall =
        std::chrono::duration<double>(region1 - region0).count();
    double region_model = 0;
    if (recording) {
      region_model = doaSimulate(recs, T, ring, nslots);
    } else {
      for (double b : busy) region_model = std::max(region_model, b);
    }
    parallel_wall_ += wall;
    double sim = (wall - region_wall) + region_model;
    parallel_simulated_ += sim;
    return sim;
  }

  const Program& program_;
  InterpOptions opt_;
  InterpStats stats_;
  std::unique_ptr<ThreadPool> pool_;
  /// The program lowered for this run; read-only once built, shared by
  /// every worker.
  Code code_;
  const Node* nodes_ = nullptr;
  const Sub* subs_ = nullptr;
  std::mutex sink_mu_;
  bool in_parallel_ = false;
  bool elpd_active_ = false;
  bool race_active_ = false;
  double parallel_wall_ = 0;
  double parallel_simulated_ = 0;
};

}  // namespace

InterpStats execute(const Program& program, const InterpOptions& options) {
  Interp interp(program, options);
  return interp.run();
}

}  // namespace padfa
