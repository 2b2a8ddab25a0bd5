//===- wasm/Validate.h - Wasm module validation -----------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard WebAssembly validation algorithm (type-checking of function
/// bodies with structured control flow and multi-value blocks). Lowered
/// RichWasm modules are validated before execution and before encoding —
/// a lowering bug cannot silently produce an ill-typed Wasm module.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_VALIDATE_H
#define RICHWASM_WASM_VALIDATE_H

#include "support/Error.h"
#include "wasm/WasmAst.h"

#include <algorithm>
#include <initializer_list>
#include <span>

namespace rw::wasm {

/// Validates a whole module. Returns the first error found.
Status validate(const WModule &M);

/// Validates a whole module with an operand-stack depth cap per function
/// (ingest::Limits::MaxOperandDepth). The uncapped overload delegates here
/// with an effectively unlimited depth.
Status validate(const WModule &M, uint32_t MaxOperandDepth);

/// The stack signature of a non-structured opcode: operand types (bottom
/// first) and result types. Fixed-size, so the validator's per-op lookup
/// allocates nothing. Used by the validator and tests.
struct OpSig {
  ValType In[2] = {}, Out[1] = {};
  uint8_t NIn = 0, NOut = 0;

  OpSig(std::initializer_list<ValType> I, std::initializer_list<ValType> O)
      : NIn(static_cast<uint8_t>(I.size())),
        NOut(static_cast<uint8_t>(O.size())) {
    std::copy(I.begin(), I.end(), In);
    std::copy(O.begin(), O.end(), Out);
  }
  std::span<const ValType> in() const { return {In, NIn}; }
  std::span<const ValType> out() const { return {Out, NOut}; }
};
OpSig opSignature(Op K);

} // namespace rw::wasm

#endif // RICHWASM_WASM_VALIDATE_H
