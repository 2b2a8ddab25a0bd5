//===- tests/jit_tierup_test.cpp - Concurrent tier-up correctness ---------===//
//
// The threshold/background half of the tier-3 backend (DESIGN.md §11):
// a background TierWorker compiles functions while the main thread keeps
// invoking them through the interpreter. These tests are written for the
// TSan CI job — the interesting property is not just that results stay
// correct but that the profile-counter reads, the entry-table publish
// (release) / pickup (acquire), and the worker join on destruction are
// all race-free under a thread sanitizer.
//
// Under -DRW_JIT=OFF only the policy-inertness test remains: tier
// policies are accepted and ignored, and jitCompiledCount() is pinned 0.
//
//===----------------------------------------------------------------------===//

#include "exec/Engine.h"
#include "obs/Obs.h"
#include "wasm/Validate.h"
#include "tests/WasmTree.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

using namespace rw;
using namespace rw::wasm;
using rw::wasmtest::TInst;
using rw::wasmtest::func;

namespace {

/// sum(n) = 1 + 2 + ... + n via a counting loop: enough back-edges to
/// feed the loop-head counter, one param, one result.
WModule sumModule() {
  WModule M;
  uint32_t TV = M.addType({{ValType::I32}, {ValType::I32}});
  // Locals: 0 = n (param), 1 = i, 2 = acc.
  M.Funcs.push_back(func(TV,
       {ValType::I32, ValType::I32},
       {TInst::block(
            {{}, {}},
            {TInst::loop({{}, {}},
                         {WInst::idx(Op::LocalGet, 1), WInst::i32c(1),
                          WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 1),
                          WInst::idx(Op::LocalGet, 2), WInst::mk(Op::I32Add),
                          WInst::idx(Op::LocalSet, 2),
                          WInst::idx(Op::LocalGet, 1),
                          WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32LtS),
                          WInst::idx(Op::BrIf, 0)})}),
        WInst::idx(Op::LocalGet, 2)}));
  M.Exports.push_back({"sum", ExportKind::Func, 0});
  return M;
}

/// A three-deep call chain — f0 calls f1 calls f2 (the sum loop) — so
/// the background scan has several functions to tier in sequence, one
/// in-flight compile at a time.
WModule chainModule() {
  WModule M;
  uint32_t TV = M.addType({{ValType::I32}, {ValType::I32}});
  M.Funcs.push_back(func(TV,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 1),
                      WInst::i32c(1), WInst::mk(Op::I32Add)}));
  M.Funcs.push_back(func(TV,
                     {},
                     {WInst::idx(Op::LocalGet, 0), WInst::idx(Op::Call, 2),
                      WInst::i32c(2), WInst::mk(Op::I32Add)}));
  M.Funcs.push_back(func(TV,
       {ValType::I32, ValType::I32},
       {TInst::block(
            {{}, {}},
            {TInst::loop({{}, {}},
                         {WInst::idx(Op::LocalGet, 1), WInst::i32c(1),
                          WInst::mk(Op::I32Add), WInst::idx(Op::LocalTee, 1),
                          WInst::idx(Op::LocalGet, 2), WInst::mk(Op::I32Add),
                          WInst::idx(Op::LocalSet, 2),
                          WInst::idx(Op::LocalGet, 1),
                          WInst::idx(Op::LocalGet, 0), WInst::mk(Op::I32LtS),
                          WInst::idx(Op::BrIf, 0)})}),
        WInst::idx(Op::LocalGet, 2)}));
  M.Exports.push_back({"f", ExportKind::Func, 0});
  return M;
}

uint32_t expectSum(uint32_t N) { return N * (N + 1) / 2; }

} // namespace

//===----------------------------------------------------------------------===//
// Always-on contract: NeverTier means never, in every build.
//===----------------------------------------------------------------------===//

TEST(JitTierUp, NeverTierStaysInterpretedForever) {
  WModule M = sumModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(exec::FlatInstance::NeverTier, /*Background=*/true);
  ASSERT_TRUE(FI.initialize().ok());
  for (int I = 0; I < 20; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(100)});
    ASSERT_TRUE(bool(R));
    EXPECT_EQ(R->at(0).asU32(), expectSum(100));
  }
  EXPECT_EQ(FI.jitCompiledCount(), 0u);
}

#if RW_JIT_ENABLED

//===----------------------------------------------------------------------===//
// Background tiering under concurrent invokes (the TSan target).
//===----------------------------------------------------------------------===//

TEST(JitTierUp, BackgroundCompileAdoptedWhileInvoking) {
  WModule M = sumModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(1, /*Background=*/true);
  ASSERT_TRUE(FI.initialize().ok());

  // Keep invoking while the worker compiles; every result must be right
  // whether a given invoke ran interpreted, native, or picked the entry
  // up mid-stream. 10k invokes is orders of magnitude beyond the compile
  // latency; bail out a few iterations after adoption.
  int SeenCompiled = -1;
  for (int I = 0; I < 10000; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(50)});
    ASSERT_TRUE(bool(R)) << R.error().message();
    ASSERT_EQ(R->at(0).asU32(), expectSum(50)) << "invoke " << I;
    if (SeenCompiled < 0 && FI.jitCompiledCount() > 0)
      SeenCompiled = I;
    if (SeenCompiled >= 0 && I > SeenCompiled + 8)
      break;
    std::this_thread::yield();
  }
  EXPECT_GE(SeenCompiled, 0) << "background compile never landed";
  EXPECT_EQ(FI.jitCompiledCount(), 1u);
}

TEST(JitTierUp, BackgroundChainTiersEveryFunction) {
  WModule M = chainModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(1, /*Background=*/true);
  ASSERT_TRUE(FI.initialize().ok());

  // One compile in flight at a time — the scan must re-run across
  // invokes until all three functions are native.
  uint32_t Want = 3, Expect = expectSum(40) + 3;
  bool AllTiered = false;
  for (int I = 0; I < 10000 && !AllTiered; ++I) {
    auto R = FI.invokeByName("f", {WValue::i32(40)});
    ASSERT_TRUE(bool(R)) << R.error().message();
    ASSERT_EQ(R->at(0).asU32(), Expect) << "invoke " << I;
    AllTiered = FI.jitCompiledCount() == Want;
    std::this_thread::yield();
  }
  EXPECT_TRUE(AllTiered) << "compiled " << FI.jitCompiledCount() << "/"
                         << Want;
  // A few more invokes on the fully-native chain.
  for (int I = 0; I < 5; ++I) {
    auto R = FI.invokeByName("f", {WValue::i32(40)});
    ASSERT_TRUE(bool(R));
    EXPECT_EQ(R->at(0).asU32(), Expect);
  }
}

TEST(JitTierUp, ResetProfilesRacesBackgroundScanSafely) {
  WModule M = sumModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(25, /*Background=*/true);
  ASSERT_TRUE(FI.initialize().ok());

  // Interleave invokes with resets: the relaxed counter stores from
  // resetProfiles() may race the worker's reads, which must be benign
  // (atomics) — and tiering must still eventually win once we stop
  // resetting, because counters saturate upward between resets.
  for (int I = 0; I < 30; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(10)});
    ASSERT_TRUE(bool(R));
    ASSERT_EQ(R->at(0).asU32(), expectSum(10));
    if (I % 7 == 6)
      exec::resetProfiles(FI);
  }
  bool Tiered = false;
  for (int I = 0; I < 10000 && !Tiered; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(10)});
    ASSERT_TRUE(bool(R));
    ASSERT_EQ(R->at(0).asU32(), expectSum(10));
    Tiered = FI.jitCompiledCount() > 0;
    std::this_thread::yield();
  }
  EXPECT_TRUE(Tiered);
}

TEST(JitTierUp, DestructionJoinsInFlightCompile) {
  // Kick a background compile and destroy the instance immediately; the
  // destructor must join the worker (no use-after-free of Jit/Prof, no
  // leaked thread — TSan and ASan both watch this one).
  for (int Round = 0; Round < 8; ++Round) {
    WModule M = sumModule();
    ASSERT_TRUE(validate(M).ok());
    auto FI = std::make_unique<exec::FlatInstance>(M);
    FI->setTierPolicy(1, /*Background=*/true);
    ASSERT_TRUE(FI->initialize().ok());
    auto R = FI->invokeByName("sum", {WValue::i32(30)});
    ASSERT_TRUE(bool(R));
    ASSERT_EQ(R->at(0).asU32(), expectSum(30));
    auto R2 = FI->invokeByName("sum", {WValue::i32(30)});
    ASSERT_TRUE(bool(R2));
    FI.reset(); // Worker may still be compiling right here.
  }
}

#if RW_OBS_ENABLED

TEST(JitTierUp, ObsSourceExportsTierStateAndCodeBytes) {
  obs::setEnabled(true);
  WModule M = chainModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M);
  FI.setTierPolicy(0, /*Background=*/false); // Eager: compile everything.
  ASSERT_TRUE(FI.initialize().ok());
  auto R = FI.invokeByName("f", {WValue::i32(10)});
  ASSERT_TRUE(bool(R));
  ASSERT_GT(FI.jitCompiledCount(), 0u);

  // The instance's "jit" source (prefix possibly uniquified "jit#N")
  // reports tier counts, code-cache bytes, and per-function tier state.
  std::map<std::string, uint64_t> Src;
  uint64_t CompileSamples = 0;
  for (const obs::Metric &Mt : obs::snapshot().Metrics) {
    if (Mt.Name == "jit.compile.ns") {
      CompileSamples = Mt.Value;
      continue;
    }
    size_t Dot = Mt.Name.find('.');
    if (Dot == std::string::npos)
      continue;
    std::string Stem = Mt.Name.substr(0, Dot);
    if (Stem == "jit" || Stem.rfind("jit#", 0) == 0)
      Src[Mt.Name.substr(Dot + 1)] = Mt.Value;
  }
  ASSERT_TRUE(Src.count("funcs"));
  EXPECT_EQ(Src["funcs"], 3u);
  EXPECT_EQ(Src["compiled"], FI.jitCompiledCount());
  EXPECT_GT(Src["code_bytes"], 0u);
  ASSERT_TRUE(Src.count("func0.tier"));
  for (unsigned F = 0; F < 3; ++F) {
    std::string K = "func" + std::to_string(F) + ".tier";
    ASSERT_TRUE(Src.count(K)) << K;
    // 0 untried, 1 compiling, 2 native, 3 refused.
    EXPECT_TRUE(Src[K] == 2 || Src[K] == 3) << K << "=" << Src[K];
  }
  EXPECT_EQ(Src["compiled"] + Src["unsupported"] + Src["pending"],
            Src["funcs"]);
  // Every eager compile recorded its latency.
  EXPECT_GE(CompileSamples, FI.jitCompiledCount());
}

#endif // RW_OBS_ENABLED

#else // !RW_JIT_ENABLED

TEST(JitTierUpOff, PoliciesAcceptedAndInert) {
  WModule M = sumModule();
  ASSERT_TRUE(validate(M).ok());
  exec::FlatInstance FI(M, EngineKind::Jit); // Degrades to flat.
  FI.setTierPolicy(0, /*Background=*/true);  // Eager — still inert.
  ASSERT_TRUE(FI.initialize().ok());
  for (int I = 0; I < 10; ++I) {
    auto R = FI.invokeByName("sum", {WValue::i32(100)});
    ASSERT_TRUE(bool(R));
    EXPECT_EQ(R->at(0).asU32(), expectSum(100));
  }
  EXPECT_EQ(FI.jitCompiledCount(), 0u);
}

#endif // RW_JIT_ENABLED
