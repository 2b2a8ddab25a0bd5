//===- tests/oracle/Interp.cpp - Wasm interpreter -------------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tests/oracle/Interp.h"

#include "support/NumericOps.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rw;
using namespace rw::wasm;

Expected<std::vector<WValue>> WasmInstance::invoke(uint32_t FuncIdx,
                                                   std::vector<WValue> Args,
                                                   uint64_t MaxFuel) {
  Fuel = MaxFuel;
  Stack.clear();
  CallDepth = 0;
  TrapFunc.reset();
  for (const WValue &A : Args)
    Stack.push_back(A);
  Exec R = callFunction(FuncIdx);
  if (R == Exec::Trap)
    return Error("trap: " + TrapMsg +
                 trapNote(TrapFunc ? *TrapFunc : FuncIdx));
  const FuncType &FT = M->funcType(FuncIdx);
  if (Stack.size() < FT.Results.size())
    return Error("function left too few results");
  std::vector<WValue> Out(Stack.end() - FT.Results.size(), Stack.end());
  Stack.clear();
  return Out;
}

WasmInstance::Exec WasmInstance::callFunction(uint32_t FuncIdx) {
  Exec R = callFunctionImpl(FuncIdx);
  // Innermost frame wins: a trap that bubbled through outer frames keeps
  // its original attribution. "call stack exhausted" lands here too, on
  // the callee that failed to get a frame — same as the flat engine.
  if (R == Exec::Trap && !TrapFunc)
    TrapFunc = FuncIdx;
  return R;
}

WasmInstance::Exec WasmInstance::callFunctionImpl(uint32_t FuncIdx) {
  if (++CallDepth > MaxCallDepth) {
    --CallDepth;
    return trap("call stack exhausted");
  }
  const FuncType &FT = M->funcType(FuncIdx);
  if (FuncIdx < M->ImportFuncs.size()) {
    const HostFn *H = hostFor(FuncIdx);
    if (!H) {
      --CallDepth;
      return trap("unsatisfied import");
    }
    if (Stack.size() < FT.Params.size()) {
      --CallDepth;
      return trap("host call stack underflow");
    }
    std::vector<WValue> Args(Stack.end() - FT.Params.size(), Stack.end());
    Stack.resize(Stack.size() - FT.Params.size());
    // Bump only once the call will actually enter the host — after the
    // import resolved and the arguments were available (the flat engine
    // counts at the same point).
    if (ProfileOn)
      ++Prof[FuncIdx].Invocations;
    Expected<std::vector<WValue>> R = (*H)(*this, Args);
    --CallDepth;
    if (!R) {
      TrapMsg = R.error().message();
      return Exec::Trap;
    }
    for (const WValue &V : *R)
      Stack.push_back(V);
    return Exec::Normal;
  }

  uint32_t DefIdx = FuncIdx - static_cast<uint32_t>(M->ImportFuncs.size());
  const WFunc &F = M->Funcs[DefIdx];
  Frame Fr;
  if (Stack.size() < FT.Params.size()) {
    --CallDepth;
    return trap("call stack underflow");
  }
  Fr.Locals.assign(Stack.end() - FT.Params.size(), Stack.end());
  Stack.resize(Stack.size() - FT.Params.size());
  size_t Base = Stack.size();
  for (ValType T : F.Locals)
    Fr.Locals.push_back({T, 0});
  Fr.FuncIdx = FuncIdx;
  if (ProfileOn)
    ++Prof[FuncIdx].Invocations;

  Exec R = execBody(F, DefIdx, Fr);
  --CallDepth;
  if (R == Exec::Trap)
    return R;
  // Keep exactly the results above the caller's stack base.
  if (Stack.size() < Base + FT.Results.size())
    return trap("function body left too few results");
  std::vector<WValue> Res(Stack.end() - FT.Results.size(), Stack.end());
  Stack.resize(Base);
  for (const WValue &V : Res)
    Stack.push_back(V);
  return Exec::Normal;
}

Status WasmInstance::prepare() {
  Match.assign(M->Funcs.size(), {});
  std::vector<uint32_t> Open;
  for (size_t FI = 0; FI < M->Funcs.size(); ++FI) {
    const std::vector<WInst> &Body = M->Funcs[FI].Body;
    std::vector<uint32_t> &Mt = Match[FI];
    Mt.assign(Body.size(), 0);
    Open.clear();
    const WFunc &F = M->Funcs[FI];
    for (uint32_t Pc = 0; Pc < Body.size(); ++Pc) {
      const WInst &I = Body[Pc];
      Op K = I.K;
      if ((opensFrame(K) && I.U32 >= F.BlockTypes.size()) ||
          (K == Op::BrTable &&
           static_cast<uint32_t>(I.U64) + (I.U64 >> 32) > F.BrTargets.size()))
        return Error("side-table index out of range in function " +
                     std::to_string(FI + M->ImportFuncs.size()));
      if (opensFrame(K)) {
        Open.push_back(Pc);
      } else if (K == Op::Else || K == Op::End) {
        if (Open.empty() ||
            (K == Op::Else && Body[Open.back()].K != Op::If))
          return Error("unbalanced structured control in function " +
                       std::to_string(FI + M->ImportFuncs.size()));
        Mt[Open.back()] = Pc;
        if (K == Op::Else)
          Open.back() = Pc;
        else
          Open.pop_back();
      }
    }
    if (!Open.empty())
      return Error("unterminated block in function " +
                   std::to_string(FI + M->ImportFuncs.size()));
  }
  return Status::success();
}

WasmInstance::Exec WasmInstance::execBody(const WFunc &Fn, uint32_t DefIdx,
                                          Frame &F) {
  const std::vector<WInst> &Code = Fn.Body;
  const std::vector<uint32_t> &Mt = Match[DefIdx];
  const size_t LabelBase = Labels.size();
  Exec R = Exec::Normal;
  // Branch to relative depth D: keep the label's arity values above its
  // base, then continue after the target's End (or at a loop's head).
  auto branch = [&](uint32_t D, uint32_t &Pc) {
    if (D >= Labels.size() - LabelBase)
      return trap("branch escaped function body");
    size_t Li = Labels.size() - 1 - D;
    Label L = Labels[Li];
    std::copy(Stack.end() - L.Arity, Stack.end(), Stack.begin() + L.Base);
    Stack.resize(L.Base + L.Arity);
    if (L.IsLoop) {
      // Loop-header execution: counts the fall-in entry plus every
      // back-branch, matching the flat engine's FProfLoop at the branch
      // target.
      if (ProfileOn)
        ++Prof[F.FuncIdx].LoopHeads;
      Labels.resize(Li + 1);
      Pc = L.Pc;
    } else {
      Labels.resize(Li);
      Pc = L.Pc + 1;
    }
    return Exec::Normal;
  };
  for (uint32_t Pc = 0; Pc < Code.size();) {
    const WInst &I = Code[Pc];
    if (I.K == Op::End) { // Fall out of a block, loop, or if arm.
      Labels.pop_back();
      ++Pc;
      continue;
    }
    if (I.K == Op::Else) { // The then arm fell through: skip the else arm.
      Pc = Mt[Pc];
      continue;
    }
    if (Fuel == 0) {
      R = trap("fuel exhausted");
      break;
    }
    --Fuel;
    ++Executed;
    switch (I.K) {
    case Op::Block:
      Labels.push_back({Stack.size() - Fn.blockType(I).Params.size(),
                        static_cast<uint32_t>(Fn.blockType(I).Results.size()),
                        Mt[Pc], false});
      ++Pc;
      continue;
    case Op::Loop:
      if (ProfileOn)
        ++Prof[F.FuncIdx].LoopHeads;
      Labels.push_back({Stack.size() - Fn.blockType(I).Params.size(),
                        static_cast<uint32_t>(Fn.blockType(I).Params.size()),
                        Pc + 1, true});
      ++Pc;
      continue;
    case Op::If: {
      if (Stack.empty()) {
        R = trap("if: stack underflow");
        break;
      }
      uint32_t Cond = Stack.back().asU32();
      Stack.pop_back();
      bool HasElse = Code[Mt[Pc]].K == Op::Else;
      uint32_t EndPc = HasElse ? Mt[Mt[Pc]] : Mt[Pc];
      Labels.push_back({Stack.size() - Fn.blockType(I).Params.size(),
                        static_cast<uint32_t>(Fn.blockType(I).Results.size()),
                        EndPc, false});
      // False: run the else arm, or go straight to the End (which pops
      // the label) when there is none.
      Pc = Cond ? Pc + 1 : (HasElse ? Mt[Pc] + 1 : EndPc);
      continue;
    }
    case Op::Br:
      R = branch(I.U32, Pc);
      break;
    case Op::BrIf: {
      if (Stack.empty()) {
        R = trap("br_if: stack underflow");
        break;
      }
      uint32_t Cond = Stack.back().asU32();
      Stack.pop_back();
      if (!Cond) {
        ++Pc;
        continue;
      }
      R = branch(I.U32, Pc);
      break;
    }
    case Op::BrTable: {
      if (Stack.empty()) {
        R = trap("br_table: stack underflow");
        break;
      }
      uint32_t Idx = Stack.back().asU32();
      Stack.pop_back();
      std::span<const uint32_t> Ts = Fn.brTargets(I);
      R = branch(Idx < Ts.size() ? Ts[Idx] : I.U32, Pc);
      break;
    }
    case Op::Return:
      R = Exec::Ret;
      break;
    default:
      R = execInst(I, F);
      ++Pc;
      break;
    }
    if (R != Exec::Normal)
      break;
  }
  Labels.resize(LabelBase);
  return R;
}

WasmInstance::Exec WasmInstance::execInst(const WInst &I, Frame &F) {
  switch (I.K) {
  case Op::Unreachable:
    return trap("unreachable executed");
  case Op::Nop:
    return Exec::Normal;
  case Op::Call:
    return callFunction(I.U32);
  case Op::CallIndirect: {
    if (Stack.empty())
      return trap("call_indirect: stack underflow");
    uint32_t Idx = Stack.back().asU32();
    Stack.pop_back();
    if (Idx >= Table.size())
      return trap("call_indirect: table index out of bounds");
    uint32_t FuncIdx = Table[Idx];
    if (!(M->funcType(FuncIdx) == M->Types[I.U32]))
      return trap("call_indirect: signature mismatch");
    return callFunction(FuncIdx);
  }

  case Op::Drop:
    if (Stack.empty())
      return trap("drop: stack underflow");
    Stack.pop_back();
    return Exec::Normal;
  case Op::Select: {
    if (Stack.size() < 3)
      return trap("select: stack underflow");
    uint32_t Cond = Stack.back().asU32();
    Stack.pop_back();
    WValue B = Stack.back();
    Stack.pop_back();
    WValue A = Stack.back();
    Stack.pop_back();
    Stack.push_back(Cond ? A : B);
    return Exec::Normal;
  }

  case Op::LocalGet:
    Stack.push_back(F.Locals[I.U32]);
    return Exec::Normal;
  case Op::LocalSet:
    F.Locals[I.U32] = Stack.back();
    Stack.pop_back();
    return Exec::Normal;
  case Op::LocalTee:
    F.Locals[I.U32] = Stack.back();
    return Exec::Normal;
  case Op::GlobalGet:
    Stack.push_back(Globals[I.U32]);
    return Exec::Normal;
  case Op::GlobalSet:
    Globals[I.U32] = Stack.back();
    Stack.pop_back();
    return Exec::Normal;

  case Op::MemorySize:
    Stack.push_back(WValue::i32(static_cast<uint32_t>(Mem.size() / PageSize)));
    return Exec::Normal;
  case Op::MemoryGrow: {
    uint32_t Delta = Stack.back().asU32();
    Stack.pop_back();
    uint64_t OldPages = Mem.size() / PageSize;
    uint64_t NewPages = OldPages + Delta;
    uint64_t MaxPages =
        M->Memory && M->Memory->second ? *M->Memory->second : 65536;
    if (NewPages > MaxPages) {
      Stack.push_back(WValue::i32(0xffffffffu));
    } else {
      Mem.resize(NewPages * PageSize, 0);
      Stack.push_back(WValue::i32(static_cast<uint32_t>(OldPages)));
    }
    return Exec::Normal;
  }

  case Op::I32Const:
    Stack.push_back({ValType::I32, I.U64 & 0xffffffffu});
    return Exec::Normal;
  case Op::I64Const:
    Stack.push_back({ValType::I64, I.U64});
    return Exec::Normal;
  case Op::F32Const:
    Stack.push_back({ValType::F32, I.U64 & 0xffffffffu});
    return Exec::Normal;
  case Op::F64Const:
    Stack.push_back({ValType::F64, I.U64});
    return Exec::Normal;

  default:
    if (static_cast<uint8_t>(I.K) >= 0x28 && static_cast<uint8_t>(I.K) <= 0x3e)
      return execMemory(I);
    return execNumeric(I);
  }
}

//===----------------------------------------------------------------------===//
// Memory access
//===----------------------------------------------------------------------===//

WasmInstance::Exec WasmInstance::execMemory(const WInst &I) {
  uint8_t C = static_cast<uint8_t>(I.K);
  bool IsStore = C >= 0x36;
  WValue StoreVal{};
  if (IsStore) {
    StoreVal = Stack.back();
    Stack.pop_back();
  }
  uint64_t Addr = Stack.back().asU32() + static_cast<uint64_t>(I.offset());
  Stack.pop_back();

  auto InBounds = [&](unsigned N) { return Addr + N <= Mem.size(); };
  auto LoadN = [&](unsigned N) {
    uint64_t V = 0;
    std::memcpy(&V, Mem.data() + Addr, N);
    return V;
  };
  auto StoreN = [&](unsigned N, uint64_t V) {
    std::memcpy(Mem.data() + Addr, &V, N);
  };
  auto SignExtend = [](uint64_t V, unsigned Bits) {
    uint64_t Mask = 1ull << (Bits - 1);
    return (V ^ Mask) - Mask;
  };

  switch (I.K) {
  case Op::I32Load:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, LoadN(4)});
    return Exec::Normal;
  case Op::I64Load:
    if (!InBounds(8))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(8)});
    return Exec::Normal;
  case Op::F32Load:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::F32, LoadN(4)});
    return Exec::Normal;
  case Op::F64Load:
    if (!InBounds(8))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::F64, LoadN(8)});
    return Exec::Normal;
  case Op::I32Load8S:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, SignExtend(LoadN(1), 8) & 0xffffffffu});
    return Exec::Normal;
  case Op::I32Load8U:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, LoadN(1)});
    return Exec::Normal;
  case Op::I32Load16S:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, SignExtend(LoadN(2), 16) & 0xffffffffu});
    return Exec::Normal;
  case Op::I32Load16U:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I32, LoadN(2)});
    return Exec::Normal;
  case Op::I64Load8S:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, SignExtend(LoadN(1), 8)});
    return Exec::Normal;
  case Op::I64Load8U:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(1)});
    return Exec::Normal;
  case Op::I64Load16S:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, SignExtend(LoadN(2), 16)});
    return Exec::Normal;
  case Op::I64Load16U:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(2)});
    return Exec::Normal;
  case Op::I64Load32S:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, SignExtend(LoadN(4), 32)});
    return Exec::Normal;
  case Op::I64Load32U:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    Stack.push_back({ValType::I64, LoadN(4)});
    return Exec::Normal;
  case Op::I32Store:
  case Op::F32Store:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    StoreN(4, StoreVal.Bits);
    return Exec::Normal;
  case Op::I64Store:
  case Op::F64Store:
    if (!InBounds(8))
      return trap("out-of-bounds memory access");
    StoreN(8, StoreVal.Bits);
    return Exec::Normal;
  case Op::I32Store8:
  case Op::I64Store8:
    if (!InBounds(1))
      return trap("out-of-bounds memory access");
    StoreN(1, StoreVal.Bits);
    return Exec::Normal;
  case Op::I32Store16:
  case Op::I64Store16:
    if (!InBounds(2))
      return trap("out-of-bounds memory access");
    StoreN(2, StoreVal.Bits);
    return Exec::Normal;
  case Op::I64Store32:
    if (!InBounds(4))
      return trap("out-of-bounds memory access");
    StoreN(4, StoreVal.Bits);
    return Exec::Normal;
  default:
    return trap("bad memory opcode");
  }
}

//===----------------------------------------------------------------------===//
// Numerics
//===----------------------------------------------------------------------===//

WasmInstance::Exec WasmInstance::execNumeric(const WInst &I) {
  using namespace rw::num;
  uint8_t C = static_cast<uint8_t>(I.K);

  auto Pop = [&]() {
    WValue V = Stack.back();
    Stack.pop_back();
    return V;
  };
  auto PushI32 = [&](uint64_t V) {
    Stack.push_back({ValType::I32, V & 0xffffffffu});
  };

  // Test / comparison operators.
  if (C == 0x45) { // i32.eqz
    PushI32(Pop().asU32() == 0 ? 1 : 0);
    return Exec::Normal;
  }
  if (C == 0x50) { // i64.eqz
    PushI32(Pop().Bits == 0 ? 1 : 0);
    return Exec::Normal;
  }
  if (C >= 0x46 && C <= 0x4f) { // i32 relops
    WValue B = Pop(), A = Pop();
    static const IntRelop Map[] = {IntRelop::Eq, IntRelop::Ne, IntRelop::Lt,
                                   IntRelop::Lt, IntRelop::Gt, IntRelop::Gt,
                                   IntRelop::Le, IntRelop::Le, IntRelop::Ge,
                                   IntRelop::Ge};
    static const bool Signed[] = {false, false, true, false, true,
                                  false, true,  false, true, false};
    unsigned Idx = C - 0x46;
    PushI32(evalIntRelop(Map[Idx], A.Bits, B.Bits, false, Signed[Idx]));
    return Exec::Normal;
  }
  if (C >= 0x51 && C <= 0x5a) { // i64 relops
    WValue B = Pop(), A = Pop();
    static const IntRelop Map[] = {IntRelop::Eq, IntRelop::Ne, IntRelop::Lt,
                                   IntRelop::Lt, IntRelop::Gt, IntRelop::Gt,
                                   IntRelop::Le, IntRelop::Le, IntRelop::Ge,
                                   IntRelop::Ge};
    static const bool Signed[] = {false, false, true, false, true,
                                  false, true,  false, true, false};
    unsigned Idx = C - 0x51;
    PushI32(evalIntRelop(Map[Idx], A.Bits, B.Bits, true, Signed[Idx]));
    return Exec::Normal;
  }
  if (C >= 0x5b && C <= 0x66) { // float relops
    WValue B = Pop(), A = Pop();
    bool Is64 = C >= 0x61;
    unsigned Idx = Is64 ? C - 0x61 : C - 0x5b;
    static const FloatRelop Map[] = {FloatRelop::Eq, FloatRelop::Ne,
                                     FloatRelop::Lt, FloatRelop::Gt,
                                     FloatRelop::Le, FloatRelop::Ge};
    PushI32(evalFloatRelop(Map[Idx], A.Bits, B.Bits, Is64));
    return Exec::Normal;
  }

  // Integer unary.
  if (C >= 0x67 && C <= 0x69) {
    WValue A = Pop();
    uint64_t R = C == 0x67   ? intClz(A.Bits, false)
                 : C == 0x68 ? intCtz(A.Bits, false)
                             : intPopcnt(A.Bits, false);
    PushI32(R);
    return Exec::Normal;
  }
  if (C >= 0x79 && C <= 0x7b) {
    WValue A = Pop();
    uint64_t R = C == 0x79   ? intClz(A.Bits, true)
                 : C == 0x7a ? intCtz(A.Bits, true)
                             : intPopcnt(A.Bits, true);
    Stack.push_back({ValType::I64, R});
    return Exec::Normal;
  }

  // Integer binary.
  if ((C >= 0x6a && C <= 0x78) || (C >= 0x7c && C <= 0x8a)) {
    bool Is64 = C >= 0x7c;
    unsigned Idx = Is64 ? C - 0x7c : C - 0x6a;
    static const IntBinop Map[] = {
        IntBinop::Add, IntBinop::Sub, IntBinop::Mul, IntBinop::Div,
        IntBinop::Div, IntBinop::Rem, IntBinop::Rem, IntBinop::And,
        IntBinop::Or,  IntBinop::Xor, IntBinop::Shl, IntBinop::Shr,
        IntBinop::Shr, IntBinop::Rotl, IntBinop::Rotr};
    static const bool Signed[] = {false, false, false, true,  false,
                                  true,  false, false, false, false,
                                  false, true,  false, false, false};
    WValue B = Pop(), A = Pop();
    std::optional<uint64_t> R =
        evalIntBinop(Map[Idx], A.Bits, B.Bits, Is64, Signed[Idx]);
    if (!R)
      return trap("integer divide error");
    Stack.push_back({Is64 ? ValType::I64 : ValType::I32,
                     Is64 ? *R : (*R & 0xffffffffu)});
    return Exec::Normal;
  }

  // Float unary.
  if ((C >= 0x8b && C <= 0x91) || (C >= 0x99 && C <= 0x9f)) {
    bool Is64 = C >= 0x99;
    unsigned Idx = Is64 ? C - 0x99 : C - 0x8b;
    static const FloatUnop Map[] = {FloatUnop::Abs,     FloatUnop::Neg,
                                    FloatUnop::Ceil,    FloatUnop::Floor,
                                    FloatUnop::Trunc,   FloatUnop::Nearest,
                                    FloatUnop::Sqrt};
    WValue A = Pop();
    Stack.push_back({Is64 ? ValType::F64 : ValType::F32,
                     evalFloatUnop(Map[Idx], A.Bits, Is64)});
    return Exec::Normal;
  }

  // Float binary.
  if ((C >= 0x92 && C <= 0x98) || (C >= 0xa0 && C <= 0xa6)) {
    bool Is64 = C >= 0xa0;
    unsigned Idx = Is64 ? C - 0xa0 : C - 0x92;
    static const FloatBinop Map[] = {FloatBinop::Add, FloatBinop::Sub,
                                     FloatBinop::Mul, FloatBinop::Div,
                                     FloatBinop::Min, FloatBinop::Max,
                                     FloatBinop::Copysign};
    WValue B = Pop(), A = Pop();
    Stack.push_back({Is64 ? ValType::F64 : ValType::F32,
                     evalFloatBinop(Map[Idx], A.Bits, B.Bits, Is64)});
    return Exec::Normal;
  }

  // Conversions.
  switch (I.K) {
  case Op::I32WrapI64:
    PushI32(Pop().Bits);
    return Exec::Normal;
  case Op::I64ExtendI32S: {
    WValue A = Pop();
    Stack.push_back(
        {ValType::I64,
         static_cast<uint64_t>(
             static_cast<int64_t>(static_cast<int32_t>(A.asU32())))});
    return Exec::Normal;
  }
  case Op::I64ExtendI32U:
    Stack.push_back({ValType::I64, Pop().asU32()});
    return Exec::Normal;
  case Op::I32TruncF32S:
  case Op::I32TruncF32U:
  case Op::I64TruncF32S:
  case Op::I64TruncF32U: {
    bool Dst64 = I.K == Op::I64TruncF32S || I.K == Op::I64TruncF32U;
    bool Sgn = I.K == Op::I32TruncF32S || I.K == Op::I64TruncF32S;
    std::optional<uint64_t> R = truncToInt(bitsToF32(Pop().Bits), Dst64, Sgn);
    if (!R)
      return trap("invalid conversion to integer");
    Stack.push_back({Dst64 ? ValType::I64 : ValType::I32, *R});
    return Exec::Normal;
  }
  case Op::I32TruncF64S:
  case Op::I32TruncF64U:
  case Op::I64TruncF64S:
  case Op::I64TruncF64U: {
    bool Dst64 = I.K == Op::I64TruncF64S || I.K == Op::I64TruncF64U;
    bool Sgn = I.K == Op::I32TruncF64S || I.K == Op::I64TruncF64S;
    std::optional<uint64_t> R = truncToInt(bitsToF64(Pop().Bits), Dst64, Sgn);
    if (!R)
      return trap("invalid conversion to integer");
    Stack.push_back({Dst64 ? ValType::I64 : ValType::I32, *R});
    return Exec::Normal;
  }
  case Op::F32ConvertI32S:
    Stack.push_back({ValType::F32, f32ToBits(static_cast<float>(
                                       static_cast<int32_t>(Pop().asU32())))});
    return Exec::Normal;
  case Op::F32ConvertI32U:
    Stack.push_back(
        {ValType::F32, f32ToBits(static_cast<float>(Pop().asU32()))});
    return Exec::Normal;
  case Op::F32ConvertI64S:
    Stack.push_back({ValType::F32, f32ToBits(static_cast<float>(
                                       static_cast<int64_t>(Pop().Bits)))});
    return Exec::Normal;
  case Op::F32ConvertI64U:
    Stack.push_back(
        {ValType::F32, f32ToBits(static_cast<float>(Pop().Bits))});
    return Exec::Normal;
  case Op::F64ConvertI32S:
    Stack.push_back({ValType::F64, f64ToBits(static_cast<double>(
                                       static_cast<int32_t>(Pop().asU32())))});
    return Exec::Normal;
  case Op::F64ConvertI32U:
    Stack.push_back(
        {ValType::F64, f64ToBits(static_cast<double>(Pop().asU32()))});
    return Exec::Normal;
  case Op::F64ConvertI64S:
    Stack.push_back({ValType::F64, f64ToBits(static_cast<double>(
                                       static_cast<int64_t>(Pop().Bits)))});
    return Exec::Normal;
  case Op::F64ConvertI64U:
    Stack.push_back(
        {ValType::F64, f64ToBits(static_cast<double>(Pop().Bits))});
    return Exec::Normal;
  case Op::F32DemoteF64:
    Stack.push_back({ValType::F32, f32ToBits(static_cast<float>(
                                       bitsToF64(Pop().Bits)))});
    return Exec::Normal;
  case Op::F64PromoteF32:
    Stack.push_back({ValType::F64, f64ToBits(static_cast<double>(
                                       bitsToF32(Pop().Bits)))});
    return Exec::Normal;
  case Op::I32ReinterpretF32:
    Stack.push_back({ValType::I32, Pop().Bits});
    return Exec::Normal;
  case Op::I64ReinterpretF64:
    Stack.push_back({ValType::I64, Pop().Bits});
    return Exec::Normal;
  case Op::F32ReinterpretI32:
    Stack.push_back({ValType::F32, Pop().Bits});
    return Exec::Normal;
  case Op::F64ReinterpretI64:
    Stack.push_back({ValType::F64, Pop().Bits});
    return Exec::Normal;
  default:
    return trap("unhandled opcode");
  }
}
