//===- lower/Runtime.cpp - Emitted allocator + host GC ---------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/Runtime.h"

#include <cstring>

#include <cassert>
#include <map>
#include <set>

using namespace rw;
using namespace rw::lower;
using namespace rw::wasm;

RuntimeLayout rw::lower::emitRuntime(WModule &M) {
  RuntimeLayout L;

  // Globals.
  L.GFree = static_cast<uint32_t>(M.Globals.size());
  M.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}});
  L.GBump = static_cast<uint32_t>(M.Globals.size());
  M.Globals.push_back(
      {ValType::I32, true, {WInst::i32c(RuntimeLayout::HeapBase)}});
  L.GLive = static_cast<uint32_t>(M.Globals.size());
  M.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}});
  L.GAllocs = static_cast<uint32_t>(M.Globals.size());
  M.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}});
  L.GFrees = static_cast<uint32_t>(M.Globals.size());
  M.Globals.push_back({ValType::I32, true, {WInst::i32c(0)}});

  if (!M.Memory)
    M.Memory = {{1, std::nullopt}};

  //===------------------------------------------------------------------===//
  // rw_alloc(payload: i32, flags: i32, ptrmap: i32) -> i32
  //   locals: 3 = total, 4 = prev, 5 = cur, 6 = blk, 7 = scratch
  //===------------------------------------------------------------------===//
  {
    using W = WInst;
    WFunc F;
    auto Emit = [&](WInst I) { F.Body.push_back(I); };
    auto Open = [&](Op K) { F.open(K); };
    auto Else = [&] { F.Body.push_back(W::mk(Op::Else)); };
    auto End = [&] { F.close(); };

    // total = (payload + HEADER + 7) & ~7
    Emit(W::idx(Op::LocalGet, 0));
    Emit(W::i32c(RuntimeLayout::HeaderBytes + 7));
    Emit(W::mk(Op::I32Add));
    Emit(W::i32c(~7));
    Emit(W::mk(Op::I32And));
    Emit(W::idx(Op::LocalSet, 3));

    // prev = 0; cur = G_FREE
    Emit(W::i32c(0));
    Emit(W::idx(Op::LocalSet, 4));
    Emit(W::idx(Op::GlobalGet, L.GFree));
    Emit(W::idx(Op::LocalSet, 5));

    // block $found { block $bump { loop $scan { ... } } bump-path } init
    Open(Op::Block); // $found
    Open(Op::Block); // $bump
    Open(Op::Loop);  // $scan
    // if cur == 0 break to $bump (depth 1 from inside loop)
    Emit(W::idx(Op::LocalGet, 5));
    Emit(W::mk(Op::I32Eqz));
    Emit(W::idx(Op::BrIf, 1));
    // if load(cur) >= total: take this block
    Emit(W::idx(Op::LocalGet, 5));
    Emit(W::mem(Op::I32Load, 2, 0));
    Emit(W::idx(Op::LocalGet, 3));
    Emit(W::mk(Op::I32GeU));
    Open(Op::If);
    {
      // scratch = next = load(cur + 8)
      Emit(W::idx(Op::LocalGet, 5));
      Emit(W::mem(Op::I32Load, 2, 8));
      Emit(W::idx(Op::LocalSet, 7));
      // Split when the remainder is big enough for a free block.
      // if load(cur) - total >= 24:
      Emit(W::idx(Op::LocalGet, 5));
      Emit(W::mem(Op::I32Load, 2, 0));
      Emit(W::idx(Op::LocalGet, 3));
      Emit(W::mk(Op::I32Sub));
      Emit(W::i32c(24));
      Emit(W::mk(Op::I32GeU));
      Open(Op::If);
      {
        // rem = cur + total; store(rem, load(cur) - total);
        // store(rem+4, 0); store(rem+8, scratch); scratch = rem
        Emit(W::idx(Op::LocalGet, 5));
        Emit(W::idx(Op::LocalGet, 3));
        Emit(W::mk(Op::I32Add));
        Emit(W::idx(Op::LocalGet, 5));
        Emit(W::mem(Op::I32Load, 2, 0));
        Emit(W::idx(Op::LocalGet, 3));
        Emit(W::mk(Op::I32Sub));
        Emit(W::mem(Op::I32Store, 2, 0));
        Emit(W::idx(Op::LocalGet, 5));
        Emit(W::idx(Op::LocalGet, 3));
        Emit(W::mk(Op::I32Add));
        Emit(W::i32c(0));
        Emit(W::mem(Op::I32Store, 2, 4));
        Emit(W::idx(Op::LocalGet, 5));
        Emit(W::idx(Op::LocalGet, 3));
        Emit(W::mk(Op::I32Add));
        Emit(W::idx(Op::LocalGet, 7));
        Emit(W::mem(Op::I32Store, 2, 8));
        Emit(W::idx(Op::LocalGet, 5));
        Emit(W::idx(Op::LocalGet, 3));
        Emit(W::mk(Op::I32Add));
        Emit(W::idx(Op::LocalSet, 7));
        // store(cur, total) — shrink the taken block.
        Emit(W::idx(Op::LocalGet, 5));
        Emit(W::idx(Op::LocalGet, 3));
        Emit(W::mem(Op::I32Store, 2, 0));
      }
      End();
      // Unlink: if prev: store(prev+8, scratch) else G_FREE = scratch
      Emit(W::idx(Op::LocalGet, 4));
      Open(Op::If);
      Emit(W::idx(Op::LocalGet, 4));
      Emit(W::idx(Op::LocalGet, 7));
      Emit(W::mem(Op::I32Store, 2, 8));
      Else();
      Emit(W::idx(Op::LocalGet, 7));
      Emit(W::idx(Op::GlobalSet, L.GFree));
      End();
      // blk = cur; br $found (depth 3 from inside the if)
      Emit(W::idx(Op::LocalGet, 5));
      Emit(W::idx(Op::LocalSet, 6));
      Emit(W::idx(Op::Br, 3));
    }
    End();
    // prev = cur; cur = load(cur + 8); continue
    Emit(W::idx(Op::LocalGet, 5));
    Emit(W::idx(Op::LocalSet, 4));
    Emit(W::idx(Op::LocalGet, 5));
    Emit(W::mem(Op::I32Load, 2, 8));
    Emit(W::idx(Op::LocalSet, 5));
    Emit(W::idx(Op::Br, 0));
    End(); // $scan
    End(); // $bump (falls through only via the br_if above)

    // Bump path: blk = G_BUMP; ensure capacity; G_BUMP += total.
    Emit(W::idx(Op::GlobalGet, L.GBump));
    Emit(W::idx(Op::LocalSet, 6));
    // while (blk + total > memory.size * 64K) grow 1 page (or trap).
    Open(Op::Block);
    Open(Op::Loop);
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 3));
    Emit(W::mk(Op::I32Add));
    Emit(W::mk(Op::MemorySize));
    Emit(W::i32c(16));
    Emit(W::mk(Op::I32Shl));
    Emit(W::mk(Op::I32LeU));
    Emit(W::idx(Op::BrIf, 1)); // Enough space: exit the grow loop.
    Emit(W::i32c(1));
    Emit(W::mk(Op::MemoryGrow));
    Emit(W::i32c(-1));
    Emit(W::mk(Op::I32Eq));
    Open(Op::If);
    Emit(W::mk(Op::Unreachable));
    End();
    Emit(W::idx(Op::Br, 0));
    End();
    End();
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 3));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GBump));
    // store(blk, total)
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 3));
    Emit(W::mem(Op::I32Store, 2, 0));
    End(); // $found

    // Common init: flags, ptrmap, zero payload, counters.
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::i32c(RtAllocated));
    Emit(W::mk(Op::I32Or));
    Emit(W::mem(Op::I32Store, 2, 4));
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 2));
    Emit(W::mem(Op::I32Store, 2, 8));
    // scratch = blk + HEADER; zero until blk + total.
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::i32c(RuntimeLayout::HeaderBytes));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::LocalSet, 7));
    Open(Op::Block);
    Open(Op::Loop);
    Emit(W::idx(Op::LocalGet, 7));
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::idx(Op::LocalGet, 3));
    Emit(W::mk(Op::I32Add));
    Emit(W::mk(Op::I32GeU));
    Emit(W::idx(Op::BrIf, 1));
    Emit(W::idx(Op::LocalGet, 7));
    Emit(W::i32c(0));
    Emit(W::mem(Op::I32Store, 2, 0));
    Emit(W::idx(Op::LocalGet, 7));
    Emit(W::i32c(4));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::LocalSet, 7));
    Emit(W::idx(Op::Br, 0));
    End();
    End();
    Emit(W::idx(Op::GlobalGet, L.GLive));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GLive));
    Emit(W::idx(Op::GlobalGet, L.GAllocs));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GAllocs));
    Emit(W::idx(Op::LocalGet, 6));
    Emit(W::i32c(RuntimeLayout::HeaderBytes));
    Emit(W::mk(Op::I32Add));

    uint32_t TI = M.addType(
        {{ValType::I32, ValType::I32, ValType::I32}, {ValType::I32}});
    L.AllocFunc = M.numFuncs();
    F.TypeIdx = TI;
    F.Locals = {ValType::I32, ValType::I32, ValType::I32, ValType::I32,
                ValType::I32};
    M.Funcs.push_back(std::move(F));
  }

  //===------------------------------------------------------------------===//
  // rw_free(ptr: i32)
  //===------------------------------------------------------------------===//
  {
    using W = WInst;
    WFunc F;
    auto Emit = [&](WInst I) { F.Body.push_back(I); };
    // blk = ptr - HEADER (local 1)
    Emit(W::idx(Op::LocalGet, 0));
    Emit(W::i32c(RuntimeLayout::HeaderBytes));
    Emit(W::mk(Op::I32Sub));
    Emit(W::idx(Op::LocalSet, 1));
    // store(blk+4, 0); store(blk+8, G_FREE); G_FREE = blk
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::i32c(0));
    Emit(W::mem(Op::I32Store, 2, 4));
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::idx(Op::GlobalGet, L.GFree));
    Emit(W::mem(Op::I32Store, 2, 8));
    Emit(W::idx(Op::LocalGet, 1));
    Emit(W::idx(Op::GlobalSet, L.GFree));
    Emit(W::idx(Op::GlobalGet, L.GLive));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Sub));
    Emit(W::idx(Op::GlobalSet, L.GLive));
    Emit(W::idx(Op::GlobalGet, L.GFrees));
    Emit(W::i32c(1));
    Emit(W::mk(Op::I32Add));
    Emit(W::idx(Op::GlobalSet, L.GFrees));

    F.TypeIdx = M.addType({{ValType::I32}, {}});
    F.Locals = {ValType::I32};
    L.FreeFunc = M.numFuncs();
    M.Funcs.push_back(std::move(F));
  }

  return L;
}

//===----------------------------------------------------------------------===//
// Host-assisted GC
//===----------------------------------------------------------------------===//

HostGc::Stats HostGc::collect(const std::vector<uint32_t> &ExtraRoots) {
  Stats St;
  std::vector<uint8_t> &Mem = Inst.memory();
  uint32_t Bump = Inst.global(L.GBump).asU32();

  auto Load = [&](uint32_t A) -> uint32_t {
    if (A + 4 > Mem.size())
      return 0;
    uint32_t V;
    std::memcpy(&V, Mem.data() + A, 4);
    return V;
  };
  auto Store = [&](uint32_t A, uint32_t V) {
    assert(A + 4 <= Mem.size());
    std::memcpy(Mem.data() + A, &V, 4);
  };

  // Phase 0: walk the heap to learn the valid payload addresses.
  std::set<uint32_t> Blocks; // block start addresses (allocated only)
  for (uint32_t B = RuntimeLayout::HeapBase; B < Bump;) {
    uint32_t Size = Load(B);
    if (Size < 8 || B + Size > Bump)
      break; // Corrupt heap; stop scanning defensively.
    if (Load(B + 4) & RtAllocated)
      Blocks.insert(B);
    B += Size;
  }
  auto IsPayload = [&](uint32_t P) {
    return P >= RuntimeLayout::HeaderBytes &&
           Blocks.count(P - RuntimeLayout::HeaderBytes) != 0;
  };

  // Phase 1: mark.
  std::vector<uint32_t> Work;
  for (uint32_t G : RefGlobals) {
    uint32_t P = Inst.global(G).asU32();
    if (IsPayload(P))
      Work.push_back(P);
  }
  for (uint32_t P : ExtraRoots)
    if (IsPayload(P))
      Work.push_back(P);

  while (!Work.empty()) {
    uint32_t P = Work.back();
    Work.pop_back();
    uint32_t B = P - RuntimeLayout::HeaderBytes;
    uint32_t Flags = Load(B + 4);
    if (Flags & RtMark)
      continue;
    Store(B + 4, Flags | RtMark);
    ++St.Marked;
    uint32_t Size = Load(B);
    uint32_t Map = Load(B + 8);
    uint32_t PayloadBytes = Size - RuntimeLayout::HeaderBytes;
    auto ScanWord = [&](uint32_t Addr) {
      uint32_t C = Load(Addr);
      if (IsPayload(C))
        Work.push_back(C);
    };
    if (Flags & RtArray) {
      uint32_t Stride = Flags >> RtElemShift;
      if (Stride == 0)
        continue;
      uint32_t Len = Load(P); // First payload word is the length.
      for (uint32_t E = 0; E < Len; ++E) {
        uint32_t Base = P + 4 + E * Stride;
        for (uint32_t Wd = 0; Wd * 4 < Stride; ++Wd)
          if (Map & (1u << (Wd < 29 ? Wd : 28)))
            ScanWord(Base + Wd * 4);
      }
    } else {
      for (uint32_t Wd = 0; Wd * 4 < PayloadBytes; ++Wd) {
        bool IsPtr = Wd < 29 ? (Map & (1u << Wd)) != 0
                             : true; // Conservative beyond the map width.
        if (IsPtr)
          ScanWord(P + Wd * 4);
      }
    }
  }

  // Phase 2: sweep unmarked unrestricted blocks; clear marks.
  uint32_t FreeHead = Inst.global(L.GFree).asU32();
  uint32_t Live = Inst.global(L.GLive).asU32();
  uint32_t Frees = Inst.global(L.GFrees).asU32();
  for (uint32_t B : Blocks) {
    uint32_t Flags = Load(B + 4);
    if (Flags & RtMark) {
      Store(B + 4, Flags & ~RtMark);
      continue;
    }
    if (Flags & RtLinear)
      continue; // Linear memory is manually managed (or finalized below).
    // Free the block: [size][0][next] onto the free list.
    Store(B + 4, 0);
    Store(B + 8, FreeHead);
    FreeHead = B;
    ++St.Swept;
    St.BytesReclaimed += Load(B);
    --Live;
    ++Frees;
  }
  Inst.setGlobal(L.GFree, wasm::WValue::i32(FreeHead));
  Inst.setGlobal(L.GLive, wasm::WValue::i32(Live));
  Inst.setGlobal(L.GFrees, wasm::WValue::i32(Frees));
  return St;
}
