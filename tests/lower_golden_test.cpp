//===- tests/lower_golden_test.cpp - Golden digests of lowered code -------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the exact output of the cold pipeline's back half: for a fixed set
// of programs built with the bench generators, the FNV-1a digest of the
// `wasm::encode` bytes and of the `exec::translate` bytecode (every code
// word, the per-function frame shape, and the canonical type table).
// Lowering, validation, translation and the codec may change how they
// represent or walk Wasm code, but never what they produce: any change to
// these digests is a change to the lowered program.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "exec/Translate.h"
#include "l3/L3.h"
#include "lower/Lower.h"
#include "ml/ML.h"
#include "wasm/Binary.h"
#include "wasm/Validate.h"

#include <gtest/gtest.h>

#include <string>

using namespace rw;

namespace {

struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void word(uint32_t W) {
    for (int I = 0; I < 4; ++I)
      byte(static_cast<uint8_t>(W >> (8 * I)));
  }
};

struct Digests {
  uint64_t Wasm = 0, Flat = 0;
  size_t WasmBytes = 0;
};

Digests digest(const std::vector<const ir::Module *> &Mods) {
  Digests D;
  Expected<lower::LoweredProgram> LP = lower::lowerProgram(Mods, {});
  EXPECT_TRUE(LP) << (LP ? "" : LP.error().message());
  if (!LP)
    return D;
  Status V = wasm::validate(LP->Module);
  EXPECT_TRUE(V) << (V ? "" : V.error().message());

  std::vector<uint8_t> Bytes = wasm::encode(LP->Module);
  Fnv W;
  for (uint8_t B : Bytes)
    W.byte(B);
  D.Wasm = W.H;
  D.WasmBytes = Bytes.size();

  Expected<exec::FlatModule> FM = exec::translate(LP->Module);
  EXPECT_TRUE(FM) << (FM ? "" : FM.error().message());
  if (!FM)
    return D;
  Fnv F;
  F.word(static_cast<uint32_t>(FM->Funcs.size()));
  for (const exec::FlatFunc &Fn : FM->Funcs) {
    F.word(Fn.TypeIdx);
    F.word(Fn.NumParams);
    F.word(Fn.NumRegs);
    F.word(Fn.NumResults);
    F.word(Fn.MaxDepth);
    F.word(static_cast<uint32_t>(Fn.Code.size()));
    for (uint32_t C : Fn.Code)
      F.word(C);
  }
  for (uint32_t C : FM->CanonType)
    F.word(C);
  D.Flat = F.H;
  return D;
}

/// The cold_link shape: 32 L3 counter libraries and 32 ML clients, each
/// client importing one library (the fig9 sources, renamed apart).
std::vector<ir::Module> coldLinkProgram() {
  std::vector<ir::Module> Mods;
  const unsigned N = 32;
  for (unsigned I = 0; I < N; ++I) {
    Expected<ir::Module> M =
        l3::compileSource("lib" + std::to_string(I), rwbench::CounterLibL3);
    EXPECT_TRUE(M) << (M ? "" : M.error().message());
    Mods.push_back(M.take());
  }
  for (unsigned I = 0; I < N; ++I) {
    std::string Src = rwbench::CounterClientML;
    std::string Lib = "lib" + std::to_string((I * 7) % N) + ".";
    for (size_t P = Src.find("lib."); P != std::string::npos;
         P = Src.find("lib.", P + Lib.size()))
      Src.replace(P, 4, Lib);
    Expected<ir::Module> M = ml::compileSource("app" + std::to_string(I), Src);
    EXPECT_TRUE(M) << (M ? "" : M.error().message());
    Mods.push_back(M.take());
  }
  return Mods;
}

std::vector<const ir::Module *> ptrs(const std::vector<ir::Module> &Mods) {
  std::vector<const ir::Module *> P;
  for (const ir::Module &M : Mods)
    P.push_back(&M);
  return P;
}

void expectDigests(const std::vector<const ir::Module *> &Mods,
                   uint64_t Wasm, uint64_t Flat, size_t WasmBytes) {
  Digests D = digest(Mods);
  EXPECT_EQ(D.Wasm, Wasm) << std::hex << "wasm digest 0x" << D.Wasm;
  EXPECT_EQ(D.Flat, Flat) << std::hex << "flat digest 0x" << D.Flat;
  EXPECT_EQ(D.WasmBytes, WasmBytes);
}

TEST(LowerGolden, ColdLinkCounterProgram) {
  std::vector<ir::Module> Mods = coldLinkProgram();
  ASSERT_EQ(Mods.size(), 64u);
  expectDigests(ptrs(Mods), 0x643dcb22841e9aa7ull, 0x187717d79d4297b3ull,
                33332);
}

TEST(LowerGolden, ServerModule) {
  ir::Module M = rwbench::serverModule(12345);
  expectDigests({&M}, 0x849b675e06f12938ull, 0x1c847d663a5cca5eull, 670);
}

TEST(LowerGolden, RuntimeOnlyProgram) {
  ir::Module M;
  M.Name = "empty";
  expectDigests({&M}, 0xcc8697fe84d5bbb2ull, 0x6444ae68f0019e29ull, 389);
}

TEST(LowerGolden, Fig4LoopModule) {
  ir::Module M = rwbench::loopModule(1000);
  expectDigests({&M}, 0x27e6f267b7ae2dc4ull, 0xa63f6f3e3e580377ull, 471);
}

TEST(LowerGolden, Fig4AllocModules) {
  ir::Module Lin = rwbench::allocModule(100, /*Linear=*/true);
  expectDigests({&Lin}, 0x3858f50cc55d52a9ull, 0x7fc9725e88a91fdaull, 481);
  ir::Module Unr = rwbench::allocModule(100, /*Linear=*/false);
  expectDigests({&Unr}, 0xe79e2494fc99f910ull, 0xd235df44803de68aull, 480);
}

/// Closures (coderefs through the table, including the abstract-signature
/// shape dispatch), sum dispatch (br_table), pairs (multi-value blocks)
/// and if/else, from ML source.
TEST(LowerGolden, MLClosuresAndSums) {
  Expected<ir::Module> M = ml::compileSource(
      "feat",
      "fun app ['a] (p : ('a -> 'a) * 'a) : 'a = (fst p) (snd p) ;;"
      "export fun twice (n : int) : int = "
      "  let f = fn (x : int) => x * 2 in f (app (f, n)) ;;"
      "export fun pick (n : int) : int = "
      "  let v = (if n < 3 then inl [unit] n else inr [int] ()) in"
      "  case v of inl x => x + 1 | inr y => 0 end ;;"
      "export fun pair (n : int) : int = "
      "  let p = (n, n + 1) in fst p + snd p ;;");
  ASSERT_TRUE(M) << M.error().message();
  expectDigests({&*M}, 0x73fc86c071661b1cull, 0x14b12d9f592316bcull, 1149);
}

} // namespace
