//===- wasm/WasmAst.h - WebAssembly 1.0 (+multi-value) AST ------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The WebAssembly substrate RichWasm compiles to (§6): Wasm 1.0 with the
/// multi-value extension, shared by lowering, the validator, both
/// interpreters' front ends, the binary encoder/decoder, and the text
/// printer. Code is one flat instruction stream per function in binary
/// order (DESIGN.md §5); opcode enumerators carry their binary encodings
/// so the codec is table-free.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_WASM_WASMAST_H
#define RICHWASM_WASM_WASMAST_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rw::wasm {

enum class ValType : uint8_t { I32 = 0x7f, I64 = 0x7e, F32 = 0x7d, F64 = 0x7c };

inline const char *valTypeName(ValType T) {
  switch (T) {
  case ValType::I32:
    return "i32";
  case ValType::I64:
    return "i64";
  case ValType::F32:
    return "f32";
  case ValType::F64:
    return "f64";
  }
  return "?";
}

struct FuncType {
  std::vector<ValType> Params, Results;
  bool operator==(const FuncType &O) const {
    return Params == O.Params && Results == O.Results;
  }
};

/// Opcodes, valued as their binary encodings (Wasm 1.0 MVP).
enum class Op : uint8_t {
  Unreachable = 0x00,
  Nop = 0x01,
  Block = 0x02,
  Loop = 0x03,
  If = 0x04,
  Else = 0x05,
  End = 0x0b,
  Br = 0x0c,
  BrIf = 0x0d,
  BrTable = 0x0e,
  Return = 0x0f,
  Call = 0x10,
  CallIndirect = 0x11,
  Drop = 0x1a,
  Select = 0x1b,
  LocalGet = 0x20,
  LocalSet = 0x21,
  LocalTee = 0x22,
  GlobalGet = 0x23,
  GlobalSet = 0x24,
  I32Load = 0x28,
  I64Load = 0x29,
  F32Load = 0x2a,
  F64Load = 0x2b,
  I32Load8S = 0x2c,
  I32Load8U = 0x2d,
  I32Load16S = 0x2e,
  I32Load16U = 0x2f,
  I64Load8S = 0x30,
  I64Load8U = 0x31,
  I64Load16S = 0x32,
  I64Load16U = 0x33,
  I64Load32S = 0x34,
  I64Load32U = 0x35,
  I32Store = 0x36,
  I64Store = 0x37,
  F32Store = 0x38,
  F64Store = 0x39,
  I32Store8 = 0x3a,
  I32Store16 = 0x3b,
  I64Store8 = 0x3c,
  I64Store16 = 0x3d,
  I64Store32 = 0x3e,
  MemorySize = 0x3f,
  MemoryGrow = 0x40,
  I32Const = 0x41,
  I64Const = 0x42,
  F32Const = 0x43,
  F64Const = 0x44,
  I32Eqz = 0x45,
  I32Eq = 0x46,
  I32Ne = 0x47,
  I32LtS = 0x48,
  I32LtU = 0x49,
  I32GtS = 0x4a,
  I32GtU = 0x4b,
  I32LeS = 0x4c,
  I32LeU = 0x4d,
  I32GeS = 0x4e,
  I32GeU = 0x4f,
  I64Eqz = 0x50,
  I64Eq = 0x51,
  I64Ne = 0x52,
  I64LtS = 0x53,
  I64LtU = 0x54,
  I64GtS = 0x55,
  I64GtU = 0x56,
  I64LeS = 0x57,
  I64LeU = 0x58,
  I64GeS = 0x59,
  I64GeU = 0x5a,
  F32Eq = 0x5b,
  F32Ne = 0x5c,
  F32Lt = 0x5d,
  F32Gt = 0x5e,
  F32Le = 0x5f,
  F32Ge = 0x60,
  F64Eq = 0x61,
  F64Ne = 0x62,
  F64Lt = 0x63,
  F64Gt = 0x64,
  F64Le = 0x65,
  F64Ge = 0x66,
  I32Clz = 0x67,
  I32Ctz = 0x68,
  I32Popcnt = 0x69,
  I32Add = 0x6a,
  I32Sub = 0x6b,
  I32Mul = 0x6c,
  I32DivS = 0x6d,
  I32DivU = 0x6e,
  I32RemS = 0x6f,
  I32RemU = 0x70,
  I32And = 0x71,
  I32Or = 0x72,
  I32Xor = 0x73,
  I32Shl = 0x74,
  I32ShrS = 0x75,
  I32ShrU = 0x76,
  I32Rotl = 0x77,
  I32Rotr = 0x78,
  I64Clz = 0x79,
  I64Ctz = 0x7a,
  I64Popcnt = 0x7b,
  I64Add = 0x7c,
  I64Sub = 0x7d,
  I64Mul = 0x7e,
  I64DivS = 0x7f,
  I64DivU = 0x80,
  I64RemS = 0x81,
  I64RemU = 0x82,
  I64And = 0x83,
  I64Or = 0x84,
  I64Xor = 0x85,
  I64Shl = 0x86,
  I64ShrS = 0x87,
  I64ShrU = 0x88,
  I64Rotl = 0x89,
  I64Rotr = 0x8a,
  F32Abs = 0x8b,
  F32Neg = 0x8c,
  F32Ceil = 0x8d,
  F32Floor = 0x8e,
  F32Trunc = 0x8f,
  F32Nearest = 0x90,
  F32Sqrt = 0x91,
  F32Add = 0x92,
  F32Sub = 0x93,
  F32Mul = 0x94,
  F32Div = 0x95,
  F32Min = 0x96,
  F32Max = 0x97,
  F32Copysign = 0x98,
  F64Abs = 0x99,
  F64Neg = 0x9a,
  F64Ceil = 0x9b,
  F64Floor = 0x9c,
  F64Trunc = 0x9d,
  F64Nearest = 0x9e,
  F64Sqrt = 0x9f,
  F64Add = 0xa0,
  F64Sub = 0xa1,
  F64Mul = 0xa2,
  F64Div = 0xa3,
  F64Min = 0xa4,
  F64Max = 0xa5,
  F64Copysign = 0xa6,
  I32WrapI64 = 0xa7,
  I32TruncF32S = 0xa8,
  I32TruncF32U = 0xa9,
  I32TruncF64S = 0xaa,
  I32TruncF64U = 0xab,
  I64ExtendI32S = 0xac,
  I64ExtendI32U = 0xad,
  I64TruncF32S = 0xae,
  I64TruncF32U = 0xaf,
  I64TruncF64S = 0xb0,
  I64TruncF64U = 0xb1,
  F32ConvertI32S = 0xb2,
  F32ConvertI32U = 0xb3,
  F32ConvertI64S = 0xb4,
  F32ConvertI64U = 0xb5,
  F32DemoteF64 = 0xb6,
  F64ConvertI32S = 0xb7,
  F64ConvertI32U = 0xb8,
  F64ConvertI64S = 0xb9,
  F64ConvertI64U = 0xba,
  F64PromoteF32 = 0xbb,
  I32ReinterpretF32 = 0xbc,
  I64ReinterpretF64 = 0xbd,
  F32ReinterpretI32 = 0xbe,
  F64ReinterpretI64 = 0xbf,
};

/// One instruction of a flat code stream: a 16-byte POD. Structured
/// control is explicit and in binary order — Block/Loop/If open a frame,
/// Else splits an If's arms (present only when the else arm is non-empty),
/// End closes the innermost frame; a body's own final `end` is implicit.
/// Immediates that do not fit live in the owning WFunc's side tables.
///
///   U32  index immediate (local/global/func/type/label), br_table default
///        label, memarg offset, or — Block/Loop/If — a WFunc::BlockTypes
///        index.
///   U64  constant bits, memarg alignment exponent, or — br_table — the
///        target list in WFunc::BrTargets (offset low 32, length high 32).
struct WInst {
  Op K = Op::Nop;
  uint32_t U32 = 0;
  uint64_t U64 = 0;

  WInst() = default;
  explicit WInst(Op K, uint32_t U32 = 0, uint64_t U64 = 0)
      : K(K), U32(U32), U64(U64) {}
  static WInst mk(Op K) { return WInst(K); }
  static WInst idx(Op K, uint32_t I) { return WInst(K, I); }
  static WInst i32c(int32_t V) {
    return WInst(Op::I32Const, 0, static_cast<uint32_t>(V));
  }
  static WInst i64c(int64_t V) {
    return WInst(Op::I64Const, 0, static_cast<uint64_t>(V));
  }
  static WInst mem(Op K, uint32_t Align, uint32_t Offset) {
    return WInst(K, Offset, Align);
  }

  uint32_t offset() const { return U32; } ///< Memarg offset.
  uint32_t align() const { return static_cast<uint32_t>(U64); }
};
static_assert(sizeof(WInst) == 16, "WInst is a 16-byte flat-stream slot");

/// True for the ops that open a frame closed by a matching End.
inline bool opensFrame(Op K) {
  return K == Op::Block || K == Op::Loop || K == Op::If;
}

enum class ExportKind : uint8_t { Func = 0, Table = 1, Memory = 2, Global = 3 };

struct WImportFunc {
  std::string Mod, Name;
  uint32_t TypeIdx = 0;
};

/// A defined function: its flat body plus the side tables the body's
/// structured ops and br_tables index.
struct WFunc {
  uint32_t TypeIdx = 0;
  std::vector<ValType> Locals; ///< Beyond the parameters.
  std::vector<WInst> Body;     ///< Flat, binary order, no final `end`.
  std::vector<FuncType> BlockTypes; ///< Distinct block types of Body.
  std::vector<uint32_t> BrTargets;  ///< Concatenated br_table targets.

  const FuncType &blockType(const WInst &I) const { return BlockTypes[I.U32]; }
  std::span<const uint32_t> brTargets(const WInst &I) const {
    return {BrTargets.data() + static_cast<uint32_t>(I.U64),
            static_cast<size_t>(I.U64 >> 32)};
  }

  /// Appends a Block/Loop/If opener of block type [Params] -> [Results],
  /// interned in BlockTypes.
  void open(Op K, const std::vector<ValType> &Params = {},
            const std::vector<ValType> &Results = {}) {
    uint32_t Idx = 0;
    while (Idx < BlockTypes.size() && !(BlockTypes[Idx].Params == Params &&
                                        BlockTypes[Idx].Results == Results))
      ++Idx;
    if (Idx == BlockTypes.size())
      BlockTypes.push_back({Params, Results});
    Body.push_back(WInst(K, Idx));
  }
  /// Closes the innermost frame; an Else with an empty arm is dropped so
  /// that an If carries an Else exactly when its else arm has code.
  void close() {
    if (!Body.empty() && Body.back().K == Op::Else)
      Body.pop_back();
    Body.push_back(WInst(Op::End));
  }
  void brTable(std::span<const uint32_t> Targets, uint32_t Default) {
    uint64_t Off = BrTargets.size();
    BrTargets.insert(BrTargets.end(), Targets.begin(), Targets.end());
    Body.push_back(WInst(Op::BrTable, Default,
                         Off | (uint64_t(Targets.size()) << 32)));
  }
};

/// A global. Its initializer is a flat constant expression without side
/// tables: validation admits exactly one constant instruction.
struct WGlobal {
  ValType T = ValType::I32;
  bool Mut = false;
  std::vector<WInst> Init;
};

struct WExport {
  std::string Name;
  ExportKind Kind = ExportKind::Func;
  uint32_t Idx = 0;
};

struct WData {
  uint32_t Offset = 0;
  std::vector<uint8_t> Bytes;
};

/// A Wasm module. Function index space = imports then defined functions.
struct WModule {
  std::vector<FuncType> Types;
  std::vector<WImportFunc> ImportFuncs;
  std::vector<WFunc> Funcs;
  /// Memory limits in 64KiB pages (min, optional max); nullopt = no memory.
  std::optional<std::pair<uint32_t, std::optional<uint32_t>>> Memory;
  /// Function table (funcref), elements at offset 0.
  std::vector<uint32_t> TableElems;
  std::vector<WGlobal> Globals;
  std::vector<WExport> Exports;
  std::vector<WData> Data;
  std::optional<uint32_t> Start;

  uint32_t addType(FuncType FT) {
    for (uint32_t I = 0; I < Types.size(); ++I)
      if (Types[I] == FT)
        return I;
    Types.push_back(std::move(FT));
    return static_cast<uint32_t>(Types.size() - 1);
  }
  uint32_t numFuncs() const {
    return static_cast<uint32_t>(ImportFuncs.size() + Funcs.size());
  }
  /// The type of function index I (import space first).
  const FuncType &funcType(uint32_t I) const {
    if (I < ImportFuncs.size())
      return Types[ImportFuncs[I].TypeIdx];
    return Types[Funcs[I - ImportFuncs.size()].TypeIdx];
  }
};

} // namespace rw::wasm

#endif // RICHWASM_WASM_WASMAST_H
