//===- wasm/Validate.cpp - Wasm module validation --------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "wasm/Validate.h"

#include "obs/Obs.h"

#include <cassert>

using namespace rw;
using namespace rw::wasm;

namespace {

constexpr ValType I32 = ValType::I32;
constexpr ValType I64 = ValType::I64;
constexpr ValType F32 = ValType::F32;
constexpr ValType F64 = ValType::F64;

} // namespace

OpSig rw::wasm::opSignature(Op K) {
  uint8_t C = static_cast<uint8_t>(K);
  // Comparison / test operators.
  if (C == 0x45)
    return {{I32}, {I32}};
  if (C >= 0x46 && C <= 0x4f)
    return {{I32, I32}, {I32}};
  if (C == 0x50)
    return {{I64}, {I32}};
  if (C >= 0x51 && C <= 0x5a)
    return {{I64, I64}, {I32}};
  if (C >= 0x5b && C <= 0x60)
    return {{F32, F32}, {I32}};
  if (C >= 0x61 && C <= 0x66)
    return {{F64, F64}, {I32}};
  // Numeric operators.
  if (C >= 0x67 && C <= 0x69)
    return {{I32}, {I32}};
  if (C >= 0x6a && C <= 0x78)
    return {{I32, I32}, {I32}};
  if (C >= 0x79 && C <= 0x7b)
    return {{I64}, {I64}};
  if (C >= 0x7c && C <= 0x8a)
    return {{I64, I64}, {I64}};
  if (C >= 0x8b && C <= 0x91)
    return {{F32}, {F32}};
  if (C >= 0x92 && C <= 0x98)
    return {{F32, F32}, {F32}};
  if (C >= 0x99 && C <= 0x9f)
    return {{F64}, {F64}};
  if (C >= 0xa0 && C <= 0xa6)
    return {{F64, F64}, {F64}};
  // Conversions.
  switch (K) {
  case Op::I32WrapI64:
    return {{I64}, {I32}};
  case Op::I32TruncF32S:
  case Op::I32TruncF32U:
    return {{F32}, {I32}};
  case Op::I32TruncF64S:
  case Op::I32TruncF64U:
    return {{F64}, {I32}};
  case Op::I64ExtendI32S:
  case Op::I64ExtendI32U:
    return {{I32}, {I64}};
  case Op::I64TruncF32S:
  case Op::I64TruncF32U:
    return {{F32}, {I64}};
  case Op::I64TruncF64S:
  case Op::I64TruncF64U:
    return {{F64}, {I64}};
  case Op::F32ConvertI32S:
  case Op::F32ConvertI32U:
    return {{I32}, {F32}};
  case Op::F32ConvertI64S:
  case Op::F32ConvertI64U:
    return {{I64}, {F32}};
  case Op::F32DemoteF64:
    return {{F64}, {F32}};
  case Op::F64ConvertI32S:
  case Op::F64ConvertI32U:
    return {{I32}, {F64}};
  case Op::F64ConvertI64S:
  case Op::F64ConvertI64U:
    return {{I64}, {F64}};
  case Op::F64PromoteF32:
    return {{F32}, {F64}};
  case Op::I32ReinterpretF32:
    return {{F32}, {I32}};
  case Op::I64ReinterpretF64:
    return {{F64}, {I64}};
  case Op::F32ReinterpretI32:
    return {{I32}, {F32}};
  case Op::F64ReinterpretI64:
    return {{I64}, {F64}};
  // Memory access.
  case Op::I32Load:
  case Op::I32Load8S:
  case Op::I32Load8U:
  case Op::I32Load16S:
  case Op::I32Load16U:
    return {{I32}, {I32}};
  case Op::I64Load:
  case Op::I64Load8S:
  case Op::I64Load8U:
  case Op::I64Load16S:
  case Op::I64Load16U:
  case Op::I64Load32S:
  case Op::I64Load32U:
    return {{I32}, {I64}};
  case Op::F32Load:
    return {{I32}, {F32}};
  case Op::F64Load:
    return {{I32}, {F64}};
  case Op::I32Store:
  case Op::I32Store8:
  case Op::I32Store16:
    return {{I32, I32}, {}};
  case Op::I64Store:
  case Op::I64Store8:
  case Op::I64Store16:
  case Op::I64Store32:
    return {{I32, I64}, {}};
  case Op::F32Store:
    return {{I32, F32}, {}};
  case Op::F64Store:
    return {{I32, F64}, {}};
  case Op::MemorySize:
    return {{}, {I32}};
  case Op::MemoryGrow:
    return {{I32}, {I32}};
  case Op::I32Const:
    return {{}, {I32}};
  case Op::I64Const:
    return {{}, {I64}};
  case Op::F32Const:
    return {{}, {F32}};
  case Op::F64Const:
    return {{}, {F64}};
  default:
    return {{}, {}};
  }
}

namespace {

/// Per-function validation: the spec's algorithm, one linear pass over
/// the flat stream with an operand stack and a control stack (one frame
/// per open Block/Loop/If plus the function's own). Both stacks live
/// across functions, so validating a body allocates nothing once warm.
/// Code after an instruction that makes its frame unreachable (br,
/// br_table, return, unreachable) is skipped up to the frame's Else/End,
/// nested frames included: it never runs, so it is not type-checked.
class FuncValidator {
public:
  FuncValidator(const WModule &M, uint32_t MaxOperandDepth)
      : M(M), MaxOperandDepth(MaxOperandDepth) {}

  Status run(const WFunc &F) {
    const FuncType &FT = M.Types[F.TypeIdx];
    Locals.assign(FT.Params.begin(), FT.Params.end());
    Locals.insert(Locals.end(), F.Locals.begin(), F.Locals.end());
    Results = FT.Results;
    Vals.clear();
    Ctl.clear();
    Ctl.push_back({Op::Nop, nullptr, 0});
    uint32_t Dead = 0; // Frames opened inside a skipped tail.
    for (const WInst &I : F.Body) {
      if (Ctl.back().Unreachable) {
        if (opensFrame(I.K)) {
          ++Dead;
          continue;
        }
        if (Dead) {
          Dead -= I.K == Op::End;
          continue;
        }
        if (I.K != Op::Else && I.K != Op::End)
          continue;
      }
      if (I.K == Op::Else) {
        Frame &C = Ctl.back();
        if (C.K != Op::If || C.SawElse)
          return Error("else without a matching if");
        if (Status S = endArm(C); !S)
          return S;
        Vals.resize(C.Height);
        Vals.insert(Vals.end(), C.BT->Params.begin(), C.BT->Params.end());
        C.Unreachable = false;
        C.SawElse = true;
        continue;
      }
      if (I.K == Op::End) {
        if (Ctl.size() == 1)
          return Error("end without a matching block");
        Frame &C = Ctl.back();
        if (Status S = endArm(C); !S)
          return S;
        if (C.K == Op::If && !C.SawElse) {
          // The absent else arm passes its parameters straight through.
          Vals.resize(C.Height);
          Vals.insert(Vals.end(), C.BT->Params.begin(), C.BT->Params.end());
          if (Status S = endArm(C); !S)
            return S;
        }
        Vals.resize(C.Height);
        Vals.insert(Vals.end(), C.BT->Results.begin(), C.BT->Results.end());
        Ctl.pop_back();
      } else if (Status S = inst(F, I); !S) {
        return S;
      }
      // Checked after each instruction of a frame (a block counts once
      // it has ended, in the frame that receives its results).
      if (!opensFrame(I.K) &&
          Vals.size() - Ctl.back().Height > MaxOperandDepth)
        return Error("operand stack depth exceeds limit of " +
                     std::to_string(MaxOperandDepth));
    }
    if (Ctl.size() != 1 || Dead)
      return Error("unterminated block at end of function body");
    return endArm(Ctl.back());
  }

private:
  struct Frame {
    Op K;               ///< Block/Loop/If; Nop for the function body.
    const FuncType *BT; ///< Block type; null for the function body.
    size_t Height;      ///< Operand-stack height below the frame.
    bool Unreachable = false;
    bool SawElse = false;
  };

  std::span<const ValType> results(const Frame &C) const {
    return C.BT ? std::span<const ValType>(C.BT->Results) : Results;
  }
  /// What a branch to \p C carries: a loop's parameters, else its results.
  std::span<const ValType> labelTypes(const Frame &C) const {
    return C.K == Op::Loop ? std::span<const ValType>(C.BT->Params)
                           : results(C);
  }

  /// Checks that the arm ending here leaves exactly its frame's results.
  Status endArm(const Frame &C) {
    if (C.Unreachable)
      return Status::success();
    std::span<const ValType> Out = results(C);
    size_t N = Vals.size() - C.Height;
    if (N != Out.size())
      return Error("block leaves " + std::to_string(N) + " values, expected " +
                   std::to_string(Out.size()));
    for (size_t I = 0; I < Out.size(); ++I)
      if (Vals[C.Height + I] != Out[I])
        return Error("block result type mismatch");
    return Status::success();
  }

  Status popExpect(ValType Want, const char *What) {
    if (Vals.size() == Ctl.back().Height)
      return Error(std::string("stack underflow at ") + What);
    ValType Got = Vals.back();
    Vals.pop_back();
    if (Got != Want)
      return Error(std::string("type mismatch at ") + What + ": expected " +
                   valTypeName(Want) + ", found " + valTypeName(Got));
    return Status::success();
  }

  Status popMany(std::span<const ValType> Ts, const char *What) {
    for (size_t I = Ts.size(); I > 0; --I)
      if (Status S = popExpect(Ts[I - 1], What); !S)
        return S;
    return Status::success();
  }

  void pushMany(std::span<const ValType> Ts) {
    Vals.insert(Vals.end(), Ts.begin(), Ts.end());
  }

  /// The frame a branch of relative depth \p D targets, or null.
  const Frame *label(uint32_t D) const {
    return D < Ctl.size() ? &Ctl[Ctl.size() - 1 - D] : nullptr;
  }

  Status brTarget(uint32_t D, const char *What) {
    const Frame *C = label(D);
    if (!C)
      return Error(std::string(What) + ": label depth out of range");
    return popMany(labelTypes(*C), What);
  }

  Status inst(const WFunc &F, const WInst &I) {
    switch (I.K) {
    case Op::Unreachable:
      Ctl.back().Unreachable = true;
      return Status::success();
    case Op::Nop:
      return Status::success();
    case Op::Block:
    case Op::Loop:
    case Op::If: {
      if (I.U32 >= F.BlockTypes.size())
        return Error("block type index out of range");
      const FuncType &BT = F.blockType(I);
      if (I.K == Op::If)
        if (Status S = popExpect(I32, "if"); !S)
          return S;
      if (Status S = popMany(BT.Params, I.K == Op::If ? "if" : "block"); !S)
        return S;
      Ctl.push_back({I.K, &BT, Vals.size()});
      pushMany(BT.Params);
      return Status::success();
    }
    case Op::Br: {
      if (Status S = brTarget(I.U32, "br"); !S)
        return S;
      Ctl.back().Unreachable = true;
      return Status::success();
    }
    case Op::BrIf: {
      if (Status S = popExpect(I32, "br_if"); !S)
        return S;
      const Frame *C = label(I.U32);
      if (!C)
        return Error("br_if: label depth out of range");
      std::span<const ValType> T = labelTypes(*C);
      if (Status S = popMany(T, "br_if"); !S)
        return S;
      pushMany(T);
      return Status::success();
    }
    case Op::BrTable: {
      if (Status S = popExpect(I32, "br_table"); !S)
        return S;
      if (Status S = brTarget(I.U32, "br_table"); !S)
        return S;
      if (static_cast<uint32_t>(I.U64) + (I.U64 >> 32) > F.BrTargets.size())
        return Error("br_table: target list out of range");
      for (uint32_t D : F.brTargets(I))
        if (!label(D))
          return Error("br_table: label depth out of range");
      Ctl.back().Unreachable = true;
      return Status::success();
    }
    case Op::Return: {
      if (Status S = popMany(Results, "return"); !S)
        return S;
      Ctl.back().Unreachable = true;
      return Status::success();
    }
    case Op::Call: {
      if (I.U32 >= M.numFuncs())
        return Error("call: function index out of range");
      const FuncType &FT = M.funcType(I.U32);
      if (Status S = popMany(FT.Params, "call"); !S)
        return S;
      pushMany(FT.Results);
      return Status::success();
    }
    case Op::CallIndirect: {
      if (I.U32 >= M.Types.size())
        return Error("call_indirect: type index out of range");
      if (Status S = popExpect(I32, "call_indirect"); !S)
        return S;
      const FuncType &FT = M.Types[I.U32];
      if (Status S = popMany(FT.Params, "call_indirect"); !S)
        return S;
      pushMany(FT.Results);
      return Status::success();
    }
    case Op::Drop: {
      if (Vals.size() == Ctl.back().Height)
        return Error("drop: stack underflow");
      Vals.pop_back();
      return Status::success();
    }
    case Op::Select: {
      if (Status S = popExpect(I32, "select"); !S)
        return S;
      if (Vals.size() - Ctl.back().Height < 2)
        return Error("select: stack underflow");
      ValType A = Vals.back();
      Vals.pop_back();
      ValType B = Vals.back();
      Vals.pop_back();
      if (A != B)
        return Error("select: operand types disagree");
      Vals.push_back(A);
      return Status::success();
    }
    case Op::LocalGet: {
      if (I.U32 >= Locals.size())
        return Error("local.get: index out of range");
      Vals.push_back(Locals[I.U32]);
      return Status::success();
    }
    case Op::LocalSet: {
      if (I.U32 >= Locals.size())
        return Error("local.set: index out of range");
      return popExpect(Locals[I.U32], "local.set");
    }
    case Op::LocalTee: {
      if (I.U32 >= Locals.size())
        return Error("local.tee: index out of range");
      if (Status S = popExpect(Locals[I.U32], "local.tee"); !S)
        return S;
      Vals.push_back(Locals[I.U32]);
      return Status::success();
    }
    case Op::GlobalGet: {
      if (I.U32 >= M.Globals.size())
        return Error("global.get: index out of range");
      Vals.push_back(M.Globals[I.U32].T);
      return Status::success();
    }
    case Op::GlobalSet: {
      if (I.U32 >= M.Globals.size())
        return Error("global.set: index out of range");
      if (!M.Globals[I.U32].Mut)
        return Error("global.set of immutable global");
      return popExpect(M.Globals[I.U32].T, "global.set");
    }
    default: {
      // Memory access requires a memory.
      uint8_t C = static_cast<uint8_t>(I.K);
      if (C >= 0x28 && C <= 0x40 && !M.Memory)
        return Error("memory instruction without a memory");
      OpSig Sig = opSignature(I.K);
      if (Status S = popMany(Sig.in(), "operator"); !S)
        return S;
      pushMany(Sig.out());
      return Status::success();
    }
    }
  }

  const WModule &M;
  uint32_t MaxOperandDepth;
  std::vector<ValType> Locals;
  std::span<const ValType> Results;
  std::vector<ValType> Vals;
  std::vector<Frame> Ctl;
};

/// Validates one global initializer: exactly one constant instruction —
/// a const of the global's type, or global.get of an earlier immutable
/// global of the same type. This is what Instance::initialize evaluates,
/// so anything else would be silently misinitialized.
Status validateGlobalInit(const WModule &M, size_t GI) {
  const WGlobal &G = M.Globals[GI];
  // Count top-level instructions: a structured op with its nested code
  // is one instruction (and then a non-constant one).
  size_t TopLevel = 0, Depth = 0;
  for (const WInst &I : G.Init) {
    TopLevel += Depth == 0 && I.K != Op::End && I.K != Op::Else;
    Depth += opensFrame(I.K);
    Depth -= I.K == Op::End && Depth > 0;
  }
  if (TopLevel != 1)
    return Error("global " + std::to_string(GI) +
                 ": initializer must be a single constant instruction");
  const WInst &I = G.Init[0];
  ValType T;
  switch (I.K) {
  case Op::I32Const:
    T = ValType::I32;
    break;
  case Op::I64Const:
    T = ValType::I64;
    break;
  case Op::F32Const:
    T = ValType::F32;
    break;
  case Op::F64Const:
    T = ValType::F64;
    break;
  case Op::GlobalGet:
    if (I.U32 >= GI)
      return Error("global " + std::to_string(GI) +
                   ": initializer references global " +
                   std::to_string(I.U32) + " not defined before it");
    if (M.Globals[I.U32].Mut)
      return Error("global " + std::to_string(GI) +
                   ": initializer references mutable global");
    T = M.Globals[I.U32].T;
    break;
  default:
    return Error("global " + std::to_string(GI) +
                 ": non-constant initializer");
  }
  if (T != G.T)
    return Error("global " + std::to_string(GI) +
                 ": initializer type mismatch");
  return Status::success();
}

} // namespace

Status rw::wasm::validate(const WModule &M) {
  // Effectively uncapped: any depth a real module reaches is fine; the
  // ingest front door passes its policy's cap explicitly.
  return validate(M, ~uint32_t(0));
}

Status rw::wasm::validate(const WModule &M, uint32_t MaxOperandDepth) {
  OBS_SPAN("validate", M.Funcs.size());
  for (const WImportFunc &I : M.ImportFuncs)
    if (I.TypeIdx >= M.Types.size())
      return Error("import type index out of range");
  for (uint32_t E : M.TableElems)
    if (E >= M.numFuncs())
      return Error("table element out of range");
  for (const WExport &E : M.Exports) {
    if (E.Kind == ExportKind::Func && E.Idx >= M.numFuncs())
      return Error("exported function index out of range");
    if (E.Kind == ExportKind::Global && E.Idx >= M.Globals.size())
      return Error("exported global index out of range");
  }
  if (M.Memory) {
    constexpr uint32_t SpecMaxPages = 1u << 16; // 4 GiB of 64 KiB pages.
    uint32_t Min = M.Memory->first;
    if (Min > SpecMaxPages)
      return Error("memory min exceeds 65536 pages");
    if (M.Memory->second) {
      if (*M.Memory->second > SpecMaxPages)
        return Error("memory max exceeds 65536 pages");
      if (*M.Memory->second < Min)
        return Error("memory min exceeds max");
    }
  }
  for (size_t GI = 0; GI < M.Globals.size(); ++GI)
    if (Status S = validateGlobalInit(M, GI); !S)
      return S;

  FuncValidator V(M, MaxOperandDepth);
  for (size_t FI = 0; FI < M.Funcs.size(); ++FI) {
    const WFunc &F = M.Funcs[FI];
    if (F.TypeIdx >= M.Types.size())
      return Error("function type index out of range");
    if (Status S = V.run(F); !S)
      return Error("in function " +
                   std::to_string(FI + M.ImportFuncs.size()) + ": " +
                   S.error().message());
  }
  // Checked after function types so funcType() below indexes safely.
  if (M.Start) {
    if (*M.Start >= M.numFuncs())
      return Error("start function index out of range");
    const FuncType &FT = M.funcType(*M.Start);
    if (!FT.Params.empty() || !FT.Results.empty())
      return Error("start function must have type [] -> []");
  }
  return Status::success();
}
