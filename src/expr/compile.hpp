// Bytecode compiler for the data sub-language.
//
// The symbolic Expr trees stay the single semantic reference — the
// verifier inspects and abstracts them directly ("semantic coherency",
// monograph Section 5.4). Execution, however, pays dearly for walking
// shared_ptr subtrees through a virtual EvalContext on every engine step,
// so this module lowers an Expr once into a flat postfix ExprProgram: a
// dense instruction array evaluated iteratively on a small value stack
// against a contiguous frame of variable slots. No recursion, no pointer
// chasing, no virtual dispatch.
//
// Semantics are bit-identical to Expr::eval on the same tree:
//   * && and || short-circuit (compiled to conditional jumps), so a
//     division by zero in an unreached right operand never raises;
//   * ite evaluates only the taken branch;
//   * kDiv/kMod raise EvalError on zero divisors exactly like the
//     interpreter.
// The only permitted divergence is *which* EvalError a doomed expression
// raises first, because the interpreter evaluates divisors before
// dividends while postfix order is left-to-right.
//
// Variable references are resolved at compile time through a SlotMap from
// (scope, index) VarRefs to flat frame offsets; an unmappable reference is
// a compile-time ModelError instead of a per-evaluation check.
//
// The escape hatch: setting the CBIP_NO_COMPILE environment variable (or
// calling setCompilationEnabled(false)) routes every execution-layer
// evaluation back through the tree-walking interpreter. Traces must be
// bit-identical either way; the differential tests rely on this switch.
//
// Fused guarded commands: a transition's guard and its action block are
// one semantic unit, so compileFused() lowers them into a *single*
// program — guard prefix, a conditional jump that skips the action suffix
// when the guard is false, then the assignments as kStore instructions —
// and runs a common-subexpression pass across the guard/action boundary:
// a non-leaf subexpression evaluated unconditionally once is parked in a
// temp register (kTee) and later occurrences reload it (kLoadTmp) instead
// of recomputing, as long as no intervening assignment clobbered a slot
// it reads. Caching is sound for errors too: every operator's outcome
// (value or EvalError) is a deterministic function of its operand values,
// so a reuse whose defining occurrence succeeded cannot have raised.
// Guard-then-fire call sites collapse to one dispatch of the fused
// program; CBIP_NO_FUSE (or setFusionEnabled(false)) restores the
// separate guard-program + per-action-program dispatches, bit-identically.
//
// Execution: every program runs on one portable switch interpreter
// (ExprProgram::exec), op by op over a flat instruction array. Guards
// compile with truelist/falselist backpatching: a short-circuit && / ||
// chain emits conditional jumps wired directly to their ultimate targets
// (the action suffix, the FAIL label, the 0/1 materialization) instead of
// materializing and re-testing a boolean at every nesting level.
// runBatch evaluates many programs over one shared frame with a single
// stack set-up (see runBatch).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "expr/expr.hpp"

namespace cbip::expr {

/// Maps a VarRef to a frame slot (>= 0). Throws ModelError for references
/// the frame does not cover.
using SlotMap = std::function<int(VarRef)>;

enum class OpCode : std::uint8_t {
  kPush,  // push immediate
  kLoad,  // push frame[arg]
  // Binary ops: pop b, pop a, push (a op b).
  kAdd, kSub, kMul, kDiv, kMod,
  kMin, kMax,
  kEq, kNe, kLt, kLe, kGt, kGe,
  // Unary ops on the stack top.
  kNeg, kAbs, kNot,
  // Control flow (short-circuit && / || and ite).
  kJump,           // pc := arg
  kJumpIfZero,     // pop v; if v == 0 then pc := arg
  kJumpIfNonZero,  // pop v; if v != 0 then pc := arg
  // Fused guarded commands (compileFused) only.
  kStore,    // pop v; frame[base + arg] := v (requires the mutable-frame run)
  kTee,      // temp[arg] := stack top (no pop) — parks a CSE value
  kLoadTmp,  // push temp[arg]
  // Analysis-relaxed division (src/analyze): kDiv/kMod with the
  // zero-divisor and INT64_MIN / -1 checks elided. Only ever produced by
  // ExprProgram::relaxDivCheck after the abstract interpreter proved the
  // site can never raise; executing one with a zero divisor is UB (which
  // is exactly what the sanitizer CI legs would catch on an analyzer bug).
  kDivUnchecked,
  kModUnchecked,
};

/// One past the last OpCode value.
inline constexpr int kOpCodeCount = static_cast<int>(OpCode::kModUnchecked) + 1;

struct Instr {
  OpCode op = OpCode::kPush;
  std::int32_t arg = 0;  // kLoad: frame slot; jumps: target pc
  Value imm = 0;         // kPush: the literal
};

class ExprProgram;

/// One element of a batch evaluation: a program plus the frame base offset
/// it runs at (see ExprProgram::runBatch). The program must be non-empty
/// and outlive the batch call.
struct BatchOp {
  const ExprProgram* program = nullptr;
  std::int32_t base = 0;
};

/// A compiled expression. Default-constructed programs are empty (used for
/// trivially-true guards that are never run).
class ExprProgram {
 public:
  bool empty() const { return code_.empty(); }
  std::size_t size() const { return code_.size(); }
  const std::vector<Instr>& code() const { return code_; }

  /// Evaluates against `frame`; every slot referenced by the program must
  /// be within the span. Throws EvalError on division/modulo by zero.
  Value run(std::span<const Value> frame) const { return run(frame, 0); }

  /// Frame-base-relative evaluation: every kLoad reads
  /// `frame[base + slot]`. Lets one program compiled against a local
  /// layout (slot = variable index, see compileLocal) execute against any
  /// region of a larger shared frame — the sharded engine runs a
  /// component type's transition programs against the owning shard's
  /// contiguous variable frame this way, with `base` the instance's
  /// offset in that frame. Read-only programs only: a program holding
  /// kStore instructions (compileFused) must use the mutable overload.
  Value run(std::span<const Value> frame, std::int32_t base) const;

  /// Mutable-frame evaluation for fused guarded commands: kStore writes
  /// `frame[base + slot]` in place (the frame *is* the live variable
  /// block, so each assignment is visible to every later load — the
  /// sequential action-block semantics). Returns the program result: 1
  /// when the guard held and the action suffix executed, 0 when the
  /// conditional skip fired.
  Value run(std::span<Value> frame, std::int32_t base) const;

  /// True when the program writes the frame (holds kStore instructions).
  bool storesFrame() const { return hasStores_; }

  /// Evaluation-stack slots the program needs (analysis sizes its abstract
  /// stack from this) and CSE temp registers it uses.
  int maxStack() const { return maxStack_; }
  int tempCount() const { return tempCount_; }

  /// The single-instruction program `Push v`. The analysis layer stamps a
  /// guard proven constant out with one of these (never an *empty*
  /// program: empty means trivially true to every dispatch site).
  static ExprProgram constant(Value v);

  /// Replaces the kDiv/kMod at `pc` with its unchecked twin (see the
  /// OpCode comment). Caller contract: the abstract interpreter proved
  /// the site can never raise — this is the only sanctioned mutation of a
  /// built program, used by analyze::relaxSafeDivChecks. Takes effect on
  /// the next run, even for a program that already executed. Throws
  /// ModelError when `pc` does not hold a checked division.
  void relaxDivCheck(std::size_t pc);

  /// Batch evaluation over one shared frame: `out[i] =
  /// ops[i].program->run(frame, ops[i].base)` for every i, in order, with
  /// the evaluation stack set up once for the whole batch instead of once
  /// per program. This is the enabled-set scan primitive: a connector scan
  /// gathers its participants' variables once and then evaluates every
  /// transition guard (frame-base-relative, one base per participant) in a
  /// single pass. Short-circuit jumps behave per program exactly as in
  /// run(); an EvalError raised by ops[i] propagates immediately with
  /// out[0..i-1] already written. `ops.size()` must equal `out.size()` and
  /// every op's program must be non-empty (trivially-true guards are
  /// skipped by callers, never batched).
  static void runBatch(std::span<const BatchOp> ops, std::span<const Value> frame,
                       std::span<Value> out);

 private:
  friend ExprProgram compile(const Expr&, const SlotMap&);
  friend ExprProgram compileFused(const Expr&, std::span<const Assign>, const SlotMap&);

  /// Interpreter core shared by run and runBatch; `stack` must hold at
  /// least maxStack_ + tempCount_ slots (the CSE temp registers live
  /// above the evaluation stack). `frame` is only written through kStore,
  /// which compileFused emits and compile never does — the read-only run
  /// overloads pass a const frame through here unchanged.
  Value exec(std::span<const Value> frame, std::int32_t base, Value* stack) const;

  std::vector<Instr> code_;
  int maxStack_ = 0;
  int tempCount_ = 0;  // CSE temp registers (fused programs only)
  bool hasStores_ = false;
};

/// Lowers `e` to bytecode, folding constant subprograms (a fold never
/// removes a possible division by zero or a variable read).
ExprProgram compile(const Expr& e, const SlotMap& slots);

/// Lowering for component-local expressions: scope 0, slot = index (the
/// frame is the component's variable vector).
ExprProgram compileLocal(const Expr& e);

/// Fuses one guarded command — `guard` plus the sequential assignment
/// block `actions` — into a single program (see the file comment):
///
///   [guard]  JumpIfZero FAIL  [value_0] Store t_0 ... [value_k] Store t_k
///   Push 1  Jump END  FAIL: Push 0  END:
///
/// with the guard prefix (and its jump) omitted for a trivially-true
/// guard, and a common-subexpression pass spanning the whole sequence.
/// Both assignment targets and variable reads resolve through `slots`.
/// Run it with the mutable-frame overload; the result is 1 iff the guard
/// held (and the assignments were applied). A trivially-true guard with
/// no actions compiles to the single instruction `Push 1`.
///
/// Semantics are bit-identical to running the guard program and then each
/// action program separately over the same live frame, including which
/// EvalError a doomed evaluation raises first.
ExprProgram compileFused(const Expr& guard, std::span<const Assign> actions,
                         const SlotMap& slots);

/// True when the execution layer should dispatch fused guard+action
/// programs; defaults to true unless the CBIP_NO_FUSE environment
/// variable is set to a non-empty value other than "0". Only consulted
/// when compilation itself is enabled — the interpreter escape hatch has
/// no fused form.
bool fusionEnabled();

/// Overrides the fusion switch (differential tests and benchmarks toggle
/// this to compare the fused and unfused dispatch paths in one process).
void setFusionEnabled(bool on);

/// True when the execution layer should evaluate compiled programs;
/// defaults to true unless the CBIP_NO_COMPILE environment variable is set
/// to a non-empty value other than "0".
bool compilationEnabled();

/// Overrides the compilation switch (differential tests and benchmarks
/// toggle this to compare the two evaluation paths in one process).
void setCompilationEnabled(bool on);

/// True when the build layer should run the abstract interpreter over
/// freshly compiled programs and apply analysis-guided pruning (guard
/// constant-folding, division-check relaxation — see src/analyze);
/// defaults to true unless the CBIP_NO_ANALYZE environment variable is
/// set to a non-empty value other than "0". Consulted at *build* time
/// (AtomicType::compileIfNeeded, CompiledConnector::build, the D-Finder
/// guard-feasibility feed), not per dispatch: toggling it affects
/// programs compiled afterwards.
bool analysisEnabled();

/// Overrides the analysis switch (differential tests and benchmarks
/// toggle this to compare analyzed and unanalyzed builds in one process).
void setAnalysisEnabled(bool on);

}  // namespace cbip::expr
