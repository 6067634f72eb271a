// Lowered MF code: the form the interpreter executes (DESIGN.md §10.3).
//
// execute() lowers the whole program once, before it runs: every
// procedure's parameter dims, block declarations, statements, loop bounds
// and the atoms of the run-time tests its loops may evaluate. The result
// is a set of flat, immutable arrays shared read-only by every worker:
//  * expression nodes carry an opcode typed by the operands' static types
//    (int and real arithmetic are separate opcodes; the int -> real
//    promotion of a mixed operation is an explicit I2R node), the frame
//    slot of each variable, and child indices into the node array;
//  * array references whose subscripts are all `var`, `var ± const` or
//    `const` become one fused node that reads the slots and offsets
//    inline instead of evaluating index subtrees;
//  * statements, blocks, declarations, loops and calls are records that
//    refer to their expressions by node index, with the loop plan and the
//    instrumentation decisions resolved per loop.
//
// Private to src/interp: nothing outside the interpreter sees this form.
#pragma once

#include <cstdint>
#include <vector>

#include "dataflow/loop_plan.h"
#include "lang/ast.h"

namespace padfa {

class ElpdCollector;
class RaceOracle;

namespace lowered {

/// "No such node / block": an absent loop step, else branch or initializer.
inline constexpr uint32_t kNone = UINT32_MAX;

/// Expression opcodes. The first group yields an int, the second a real;
/// an operand's opcode always matches the type its parent reads.
enum class Op : uint8_t {
  // ---- int-valued
  ILit,                          // k.i
  IVar,                          // frame[a].i
  IArr, IArrF,                   // int element (general / fused subscripts)
  INeg, IAdd, ISub, IMul, IDiv, IRem,
  IMin, IMax, IAbs,
  INoise,                        // inoise(a, b)
  R2I,                           // static_cast<int64_t>(real a)
  IEq, INe, ILt, ILe, IGt, IGe,  // int operands
  REq, RNe, RLt, RLe, RGt, RGe,  // real operands
  And, Or, Not,                  // int (truth) operands, 0/1 result
  // ---- real-valued
  RLit,                          // k.r
  RVar,                          // frame[a].r
  RArr, RArrF,                   // real element (general / fused subscripts)
  RNeg, RAdd, RSub, RMul, RDiv,
  RMin, RMax, RAbs,
  Sqrt,                          // sqrt(real a)
  Noise,                         // noise(int a)
  I2R,                           // static_cast<double>(int a)
};

inline bool isFusedArray(Op op) { return op == Op::IArrF || op == Op::RArrF; }

/// One expression node.
///  * unary / binary ops: a, b are operand nodes, evaluated a then b;
///  * IVar / RVar: a is the frame slot;
///  * IArr / RArr: a is the array's slot; `rank` subscript roots start at
///    Code::index_roots[b];
///  * IArrF / RArrF: a is the array's slot; `rank` subscripts start at
///    Code::subs[b].
struct Node {
  Op op = Op::ILit;
  uint8_t rank = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  union {
    int64_t i;
    double r;
  } k{};
  /// The source expression: its location for fault messages, and its
  /// VarDecl (VarRef / ArrayRef) for the instrumentation hooks.
  const Expr* src = nullptr;
};

/// One fused subscript: frame[slot].i + off. A constant subscript reads
/// the frame's zero slot: the cell after the procedure's variables, which
/// is never written.
struct Sub {
  uint32_t slot = 0;
  int64_t off = 0;
  /// The scalar the race oracle records as read (null for a constant).
  const VarDecl* read = nullptr;
};

enum class SOp : uint8_t {
  SetI, SetR,      // frame[a] = value b (race: scalar write)
  StoreI, StoreR,  // element of array node a = value b
  If,              // cond a (int), then block b, else block c (or kNone)
  For,             // Code::loops[a]
  Call,            // Code::calls[a]
  Sink,            // checksum += real a
  Return,
  Block,           // Code::blocks[a]
};

/// One statement. Its index in Code::stmts is its statement id.
struct SNode {
  SOp op = SOp::Return;
  uint32_t a = 0, b = 0, c = kNone;
  const Stmt* src = nullptr;
};

/// A block's declarations (allocated at block entry, in order, before any
/// statement runs) and its statements, both contiguous ranges.
struct BlockCode {
  uint32_t decl_begin = 0, decl_end = 0;
  uint32_t stmt_begin = 0, stmt_end = 0;
};

struct DeclCode {
  const VarDecl* decl = nullptr;
  uint32_t slot = 0;
  /// Array dims: int roots at Code::index_roots[dims_begin, dims_end).
  uint32_t dims_begin = 0, dims_end = 0;
  /// Scalar initializer, typed to the declaration (kNone: none).
  uint32_t init = kNone;
};

/// A run-time test atom operand and its lowered (real-valued) root.
struct Atom {
  const Expr* expr = nullptr;
  uint32_t root = 0;
};

/// Post/wait tables of one Doacross plan, indexed by statement id.
struct DoaWait {
  uint32_t slot = 0;
  int64_t distance = 0;
};
struct DoaStmtSync {
  /// Waits executed before each execution: DoaTables::waits[begin, end).
  uint32_t wait_begin = 0, wait_end = 0;
  /// Slot posted right after each execution (-1: none).
  int32_t post = -1;
};
struct DoaTables {
  uint32_t nslots = 0;
  /// Entry k of `at` belongs to statement id first_stmt + k.
  uint32_t first_stmt = 0;
  std::vector<DoaStmtSync> at;
  std::vector<DoaWait> waits;
};

struct ForCode {
  const ForStmt* loop = nullptr;
  uint32_t index_slot = 0;
  uint32_t lower = 0, upper = 0, step = kNone;  // int roots
  uint32_t body = 0;                            // block
  uint32_t frame_size = 0;  // slots of the enclosing procedure's frame
  /// The plan a run with a thread pool dispatches on: Parallel,
  /// RuntimeTest or Doacross, else null.
  const LoopPlan* plan = nullptr;
  /// ELPD: the collector instruments this loop.
  bool elpd = false;
  /// Race oracle: the audited loop's plan, else null.
  const LoopPlan* race_plan = nullptr;
  /// Operands of the run-time test this loop evaluates:
  /// Code::atoms[atom_begin, atom_end).
  uint32_t atom_begin = 0, atom_end = 0;
  /// Code::doa index when `plan` is Doacross, else kNone.
  uint32_t doa = kNone;
};

/// One parameter of a procedure, in declaration order.
struct ParamCode {
  uint32_t slot = 0;
  Type elem = Type::Int;
  bool array = false;
  /// Formal dims, evaluated in the callee's frame:
  /// Code::index_roots[dims_begin, dims_end).
  uint32_t dims_begin = 0, dims_end = 0;
};

struct ProcCode {
  const ProcDecl* decl = nullptr;
  uint32_t body = 0;        // block
  uint32_t frame_size = 0;  // all_vars + the zero slot
  uint32_t param_begin = 0, param_end = 0;  // Code::params
};

/// A call: argument k binds parameter k of the callee. A scalar
/// argument is a root typed to the parameter; an array argument is the
/// caller's slot of the actual array. Code::call_args[arg_begin, ...).
struct CallCode {
  const CallStmt* stmt = nullptr;
  uint32_t proc = 0;
  uint32_t arg_begin = 0;
};

struct Code {
  std::vector<Node> nodes;
  std::vector<uint32_t> index_roots;
  std::vector<Sub> subs;
  std::vector<SNode> stmts;
  std::vector<BlockCode> blocks;
  std::vector<DeclCode> decls;
  std::vector<ForCode> loops;
  std::vector<CallCode> calls;
  std::vector<uint32_t> call_args;
  std::vector<ParamCode> params;
  std::vector<ProcCode> procs;  // Program::procs order
  std::vector<Atom> atoms;
  std::vector<DoaTables> doa;
};

/// What a run consults per loop. `plans` is null unless the run has a
/// thread pool to dispatch on.
struct LowerOptions {
  const AnalysisResult* plans = nullptr;
  const ElpdCollector* elpd = nullptr;
  const RaceOracle* race = nullptr;
};

Code lower(const Program& program, const LowerOptions& options);

}  // namespace lowered
}  // namespace padfa
