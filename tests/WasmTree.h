//===- tests/WasmTree.h - Nested Wasm literals for tests --------*- C++ -*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Hand-written test modules read best as nested literals: a block with its
// body inside it. The library keeps code as one flat stream per function
// (wasm/WasmAst.h), so tests write TInst trees and flatten them with
// func() into a WFunc — Block/Loop/If … Else … End in binary order, block
// types and br_table targets in the function's side tables.
//
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_TESTS_WASMTREE_H
#define RICHWASM_TESTS_WASMTREE_H

#include "wasm/WasmAst.h"

#include <vector>

namespace rw::wasmtest {

using namespace rw::wasm;

/// A nested instruction literal: a flat instruction, a structured one with
/// its block type and arms, or a br_table with its targets.
struct TInst {
  WInst I;
  FuncType BT;
  std::vector<uint32_t> Table;
  std::vector<TInst> Body, Else;

  TInst(WInst I) : I(I) {} // NOLINT: flat instructions nest implicitly.

  static TInst block(FuncType BT, std::vector<TInst> Body) {
    return structured(Op::Block, std::move(BT), std::move(Body), {});
  }
  static TInst loop(FuncType BT, std::vector<TInst> Body) {
    return structured(Op::Loop, std::move(BT), std::move(Body), {});
  }
  static TInst ifElse(FuncType BT, std::vector<TInst> Then,
                      std::vector<TInst> Else) {
    return structured(Op::If, std::move(BT), std::move(Then),
                      std::move(Else));
  }
  static TInst brTable(std::vector<uint32_t> Targets, uint32_t Default) {
    TInst T(WInst(Op::BrTable, Default));
    T.Table = std::move(Targets);
    return T;
  }

private:
  static TInst structured(Op K, FuncType BT, std::vector<TInst> Body,
                          std::vector<TInst> Else) {
    TInst T{WInst(K)};
    T.BT = std::move(BT);
    T.Body = std::move(Body);
    T.Else = std::move(Else);
    return T;
  }
};

/// Appends \p Code to \p F in flat form.
inline void flattenInto(WFunc &F, const std::vector<TInst> &Code) {
  for (const TInst &T : Code) {
    switch (T.I.K) {
    case Op::Block:
    case Op::Loop:
    case Op::If:
      F.open(T.I.K, T.BT.Params, T.BT.Results);
      flattenInto(F, T.Body);
      F.Body.push_back(WInst(Op::Else));
      flattenInto(F, T.Else);
      F.close(); // Drops the Else again when that arm is empty.
      break;
    case Op::BrTable:
      F.brTable(T.Table, T.I.U32);
      break;
    default:
      F.Body.push_back(T.I);
      break;
    }
  }
}

/// A function of type index \p TypeIdx with extra \p Locals and \p Body.
inline WFunc func(uint32_t TypeIdx, std::vector<ValType> Locals,
                  const std::vector<TInst> &Body) {
  WFunc F;
  F.TypeIdx = TypeIdx;
  F.Locals = std::move(Locals);
  flattenInto(F, Body);
  return F;
}

} // namespace rw::wasmtest

#endif // RICHWASM_TESTS_WASMTREE_H
