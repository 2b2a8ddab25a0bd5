//===- tests/oracle/Interp.h - Tree-walking Wasm oracle ---------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured WebAssembly engine, kept as the test-side oracle: a direct
/// interpreter of the flat instruction stream that executes block, loop
/// and if as the spec's structured control, using a per-function table of
/// matching Else/End positions it builds at instantiation. It shares no
/// jump resolution with exec::translate, which keeps it an independent
/// oracle for the flat and JIT engines. It implements the shared
/// embedder surface in wasm/Instance.h — host functions satisfy imports,
/// and the host can read/write the instance's flat memory, which is how
/// the RichWasm runtime's host-assisted garbage collector works
/// (DESIGN.md §3). The interpreter counts executed instructions, which
/// the C1 capability-erasure benchmark uses to show that capability
/// bookkeeping compiles to *zero* instructions.
///
/// This engine is the semantic reference; the two shipping engines
/// (exec/Engine.h: Flat and Jit) are differentially tested against it
/// (DESIGN.md §5). It is not part of the richwasm library; the tests and
/// the bench binaries link it from richwasm_oracle (tests/oracle/).
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_TESTS_ORACLE_INTERP_H
#define RICHWASM_TESTS_ORACLE_INTERP_H

#include "support/Error.h"
#include "wasm/Instance.h"
#include "wasm/WasmAst.h"

#include <optional>

namespace rw::wasm {

/// An instantiated Wasm module executed structurally.
class WasmInstance : public Instance {
public:
  explicit WasmInstance(const WModule &M) : Instance(M) {}

  Expected<std::vector<WValue>>
  invoke(uint32_t FuncIdx, std::vector<WValue> Args,
         uint64_t MaxFuel = 1'000'000'000) override;

protected:
  /// Builds the match table (see Match).
  Status prepare() override;

private:
  enum class Exec : uint8_t { Normal, Ret, Trap };

  struct Frame {
    std::vector<WValue> Locals;
    uint32_t FuncIdx = 0; ///< Function-space index, for profile bumps.
  };

  /// An open structured op: the operand height below its values, what a
  /// branch to it keeps, and where the branch continues.
  struct Label {
    size_t Base;
    uint32_t Arity;
    uint32_t Pc;  ///< Loops: first body op; blocks/ifs: the End.
    bool IsLoop;
  };

  Exec execBody(const WFunc &Fn, uint32_t DefIdx, Frame &F);
  Exec execInst(const WInst &I, Frame &F);
  Exec execNumeric(const WInst &I);
  Exec execMemory(const WInst &I);
  /// callFunctionImpl plus trap attribution: the innermost function that
  /// originated a trap claims it (TrapFunc is set once, on the way out).
  Exec callFunction(uint32_t FuncIdx);
  Exec callFunctionImpl(uint32_t FuncIdx);
  Exec trap(const char *Msg) {
    TrapMsg = Msg;
    return Exec::Trap;
  }

  /// Per defined function, indexed by pc: for Block/Loop the pc of the
  /// matching End; for If that of its Else, or of its End when it has
  /// none; for Else that of the If's End.
  std::vector<std::vector<uint32_t>> Match;
  /// Open labels of every active call, innermost last.
  std::vector<Label> Labels;
  std::vector<WValue> Stack;
  uint64_t Fuel = 0;
  std::string TrapMsg;
  std::optional<uint32_t> TrapFunc;
  unsigned CallDepth = 0;
};

} // namespace rw::wasm

#endif // RICHWASM_TESTS_ORACLE_INTERP_H
