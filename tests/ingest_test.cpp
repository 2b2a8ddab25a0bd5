//===- tests/ingest_test.cpp - Front-door admission contract --------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end contract for ingest::admit (PR 8): both container routes
// admit real modules and run them to the right answers; every rejection
// carries the right taxonomy category; admission is *total* under a 10k
// deterministic mutation battery (truncations, bit flips, section
// splices) with zero residue in the process-wide type arena; the obs
// counters account for every admission outcome; and a cached re-admission
// is served from the verified-bytes index only for the exact bytes that
// were admitted.
//
//===----------------------------------------------------------------------===//

#include "bench/Common.h"
#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "ingest/Ingest.h"
#include "ir/TypeArena.h"
#include "lower/Lower.h"
#include "obs/Obs.h"
#include "serial/Serial.h"
#include "support/Hashing.h"
#include "wasm/Binary.h"

#include <gtest/gtest.h>

#include <random>

using namespace rw;
using ingest::Category;
using ingest::IngestError;
using ingest::Limits;

namespace {

std::vector<uint8_t> wasmBytes(const ir::Module &M) {
  Expected<lower::LoweredProgram> LP = lower::lowerProgram({&M}, {});
  EXPECT_TRUE(LP) << (LP ? "" : LP.error().message());
  return wasm::encode(LP->Module);
}

/// True when \p I is an instance of the flat engine proper (not the jit).
bool runsFlat(wasm::Instance *I) {
  auto *F = dynamic_cast<exec::FlatInstance *>(I);
  return F && F->engine() == wasm::EngineKind::Flat;
}

uint64_t globalArenaNodes() {
  return ir::TypeArena::globalPtr()->stats().totalNodes();
}

/// Rewrites the RWBM header checksum so an edited payload passes it.
void fixChecksum(std::vector<uint8_t> &B) {
  uint64_t Sum = support::fnv1a(B.data() + serial::HeaderSize,
                                B.size() - serial::HeaderSize);
  for (int I = 0; I < 8; ++I)
    B[serial::HeaderSize - 8 + I] = static_cast<uint8_t>(Sum >> (8 * I));
}

/// The whole observable outcome of one admission: the rejection, or the
/// result (or trap) of running `loopmod.main` under a small fuel budget.
std::string verdict(const std::vector<uint8_t> &B,
                    const link::LinkOptions &Opts) {
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), Opts, &E);
  if (!A)
    return std::string("rejected ") + ingest::categoryName(E.Cat) + ": " +
           E.Context;
  auto R = A->invoke("loopmod.main", {}, 100000);
  if (!R)
    return "admitted, trap: " + R.error().message();
  return "admitted, result " + std::to_string(R->empty() ? 0 : (*R)[0].Bits);
}

TEST(Ingest, WasmRouteAdmitsAndRuns) {
  std::vector<uint8_t> B = wasmBytes(rwbench::loopModule(10));
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), {}, &E);
  ASSERT_TRUE(A) << A.error().message();
  EXPECT_EQ(A->R, ingest::Route::Wasm);
  EXPECT_NE(A->InputHash, 0u);
  auto R = A->invoke("loopmod.main", {});
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 55u) << "sum 1..10";
}

TEST(Ingest, RichWasmRouteAdmitsAndRuns) {
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(10));
  IngestError E;
  Expected<ingest::AdmittedModule> A = ingest::admit(B, Limits(), {}, &E);
  ASSERT_TRUE(A) << A.error().message();
  EXPECT_EQ(A->R, ingest::Route::RichWasm);
  auto R = A->invoke("loopmod.main", {});
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 55u);
}

TEST(Ingest, DefaultOptionsRunOnTheFlatEngine) {
  // A caller that picks no engine gets the shipping flat engine on both
  // routes, and so does link::instantiateLowered.
  ir::Module M = rwbench::loopModule(10);
  for (const std::vector<uint8_t> &B : {wasmBytes(M), serial::write(M)}) {
    auto A = ingest::admit(B, Limits(), link::LinkOptions());
    ASSERT_TRUE(A) << A.error().message();
    EXPECT_TRUE(runsFlat(A->instance())) << ingest::routeName(A->R);
    auto R = A->invoke("loopmod.main", {});
    ASSERT_TRUE(R) << R.error().message();
    EXPECT_EQ((*R)[0].Bits, 55u);
  }
  auto LI = link::instantiateLowered({&M});
  ASSERT_TRUE(LI) << LI.error().message();
  EXPECT_TRUE(runsFlat(LI->Instance.get()));
}

TEST(Ingest, BothRoutesAgreeOnResults) {
  ir::Module Mods[] = {rwbench::loopModule(7), rwbench::allocModule(3, true)};
  for (const ir::Module &M : Mods) {
    auto W = ingest::admit(wasmBytes(M));
    auto S = ingest::admit(serial::write(M));
    ASSERT_TRUE(W) << W.error().message();
    ASSERT_TRUE(S) << S.error().message();
    std::string Export = M.Name + ".main";
    auto RW = W->invoke(Export, {});
    auto RS = S->invoke(Export, {});
    ASSERT_TRUE(RW) << RW.error().message();
    ASSERT_TRUE(RS) << RS.error().message();
    EXPECT_EQ((*RW)[0].Bits, (*RS)[0].Bits) << M.Name;
  }
}

TEST(Ingest, RejectsUnrecognizedMagic) {
  IngestError E;
  EXPECT_FALSE(ingest::admit({0xde, 0xad, 0xbe, 0xef, 0x00}, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::BadMagic);

  EXPECT_FALSE(ingest::admit({}, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::BadMagic);

  EXPECT_FALSE(ingest::admit({0x00, 0x61}, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::BadMagic);
}

TEST(Ingest, RejectsOversizedInputBeforeDecoding) {
  std::vector<uint8_t> B = wasmBytes(rwbench::loopModule(4));
  Limits L;
  L.MaxModuleBytes = B.size() - 1;
  IngestError E;
  EXPECT_FALSE(ingest::admit(B, L, {}, &E));
  EXPECT_EQ(E.Cat, Category::TooLarge);
  EXPECT_NE(E.Context.find(std::to_string(L.MaxModuleBytes)),
            std::string::npos);
}

TEST(Ingest, WasmVersionMismatchIsUnsupported) {
  std::vector<uint8_t> B = wasmBytes(rwbench::loopModule(4));
  B[4] = 0x02;
  IngestError E;
  EXPECT_FALSE(ingest::admit(B, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::Unsupported);
  EXPECT_EQ(E.Offset, 4u);
}

TEST(Ingest, WasmValidationFailureIsCategorized) {
  // Decodes fine (call indices are plain u32s on the wire) but calls a
  // function that does not exist — caught by wasm::validate.
  std::vector<uint8_t> B = {0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00};
  B.insert(B.end(), {0x01, 0x04, 0x01, 0x60, 0x00, 0x00}); // type [] -> []
  B.insert(B.end(), {0x03, 0x02, 0x01, 0x00});             // one func
  B.insert(B.end(), {0x0a, 0x06, 0x01, 0x04, 0x00,         // body:
                     0x10, 0x05,                           //   call 5
                     0x0b});                               //   end
  IngestError E;
  EXPECT_FALSE(ingest::admit(B, Limits(), {}, &E));
  EXPECT_EQ(E.Cat, Category::Validate);
}

TEST(Ingest, SerialTruncationIsCategorized) {
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(4));
  std::vector<uint8_t> Cut(B.begin(), B.begin() + B.size() / 2);
  IngestError E;
  EXPECT_FALSE(ingest::admit(Cut, Limits(), {}, &E));
  EXPECT_TRUE(E.Cat == Category::Truncated || E.Cat == Category::Malformed)
      << ingest::categoryName(E.Cat);
}

TEST(Ingest, CountersAccountForEveryOutcome) {
  // Counter construction re-finds the named slot; deltas isolate this
  // test from whatever ran before it. Under -DRW_OBS=OFF the counters
  // are inert stubs pinned to zero, so each expected delta is zero too —
  // the admissions themselves still run either way.
  const uint64_t One = obs::compiledIn() ? 1 : 0;
  obs::Counter Accepted("ingest.accepted");
  obs::Counter Bytes("ingest.bytes");
  obs::Counter RejMagic("ingest.rejected.bad_magic");
  obs::Counter RejLarge("ingest.rejected.too_large");
  uint64_t A0 = Accepted.value(), B0 = Bytes.value(),
           M0 = RejMagic.value(), L0 = RejLarge.value();

  std::vector<uint8_t> Good = wasmBytes(rwbench::loopModule(4));
  ASSERT_TRUE(ingest::admit(Good));
  EXPECT_EQ(Accepted.value(), A0 + One);
  EXPECT_EQ(Bytes.value(), B0 + One * Good.size());

  ASSERT_FALSE(ingest::admit({1, 2, 3, 4}));
  EXPECT_EQ(RejMagic.value(), M0 + One);

  Limits Tiny;
  Tiny.MaxModuleBytes = 2;
  ASSERT_FALSE(ingest::admit(Good, Tiny));
  EXPECT_EQ(RejLarge.value(), L0 + One);
  EXPECT_EQ(Accepted.value(), A0 + One) << "rejections never count accepted";
}

TEST(Ingest, HotReadmissionSkipsReadAndCheck) {
  // Under -DRW_OBS=OFF the read counter is pinned to zero, so the expected
  // delta is zero too.
  const uint64_t One = obs::compiledIn() ? 1 : 0;
  obs::Counter BytesRead("serial.bytes_read");
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(10));
  for (wasm::EngineKind K : {wasm::EngineKind::Flat, wasm::EngineKind::Jit}) {
    cache::AdmissionCache C;
    link::LinkOptions Opts;
    Opts.Cache = &C;
    Opts.Engine = K;
    uint64_t R0 = BytesRead.value();
    auto Cold = ingest::admit(B, Limits(), Opts);
    ASSERT_TRUE(Cold) << Cold.error().message();
    EXPECT_EQ(BytesRead.value(), R0 + One * B.size());
    EXPECT_EQ(C.stats().ProgramMisses, 1u);

    Opts.Profile = true;
    auto Hot = ingest::admit(B, Limits(), Opts);
    ASSERT_TRUE(Hot) << Hot.error().message();
    EXPECT_EQ(C.stats().ProgramHits, 1u);
    EXPECT_EQ(C.stats().ProgramMisses, 1u);
    EXPECT_EQ(BytesRead.value(), R0 + One * B.size())
        << "a hot re-admission read the bytes again";

    auto RC = Cold->invoke("loopmod.main", {});
    auto RH = Hot->invoke("loopmod.main", {});
    ASSERT_TRUE(RC) << RC.error().message();
    ASSERT_TRUE(RH) << RH.error().message();
    EXPECT_EQ((*RC)[0].Bits, 55u);
    EXPECT_EQ((*RH)[0].Bits, 55u);
    EXPECT_FALSE(Cold->instance()->profilingEnabled());
    ASSERT_TRUE(Hot->instance()->profilingEnabled());
    uint64_t Calls = 0;
    for (const wasm::FunctionProfile &P : Hot->instance()->functionProfiles())
      Calls += P.Invocations;
    EXPECT_GT(Calls, 0u) << "the hot instance did not profile";
  }
}

TEST(Ingest, OneByteVariantIsNeverServedTheHotArtifact) {
  // Each single-bit edit of the payload, with its checksum repaired, must
  // miss the index and get the verdict an uncached admission gives it.
  std::vector<uint8_t> B = serial::write(rwbench::loopModule(10));
  cache::AdmissionCache C;
  link::LinkOptions Cached;
  Cached.Engine = wasm::EngineKind::Flat;
  link::LinkOptions Fresh = Cached;
  Cached.Cache = &C;
  ASSERT_EQ(verdict(B, Cached), "admitted, result 55");

  size_t Admitted = 0;
  for (size_t I = serial::HeaderSize; I < B.size(); ++I) {
    std::vector<uint8_t> V = B;
    V[I] ^= 0x01;
    fixChecksum(V);
    uint64_t Hits = C.stats().ProgramHits;
    std::string Want = verdict(V, Fresh);
    EXPECT_EQ(verdict(V, Cached), Want) << "payload offset " << I;
    EXPECT_EQ(C.stats().ProgramHits, Hits) << "payload offset " << I;
    Admitted += Want.rfind("admitted", 0) == 0;
  }
  EXPECT_GT(Admitted, 0u) << "no variant reached the artifact stage";
  EXPECT_EQ(verdict(B, Cached), "admitted, result 55");
}

TEST(Ingest, RejectedRichWasmAdmissionLeavesArenaClean) {
  std::vector<uint8_t> B = serial::write(rwbench::wideModule(4));
  uint64_t Before = globalArenaNodes();
  for (int I = 0; I < 50; ++I) {
    std::vector<uint8_t> Mut = B;
    Mut[20 + I] ^= 0xff; // corrupt past the header
    IngestError E;
    Expected<ingest::AdmittedModule> A = ingest::admit(Mut, Limits(), {}, &E);
    EXPECT_FALSE(A) << "checksummed payload accepted a corrupt byte";
  }
  EXPECT_EQ(globalArenaNodes(), Before)
      << "rejected admissions must leave zero residue in the global arena";
}

// The 10k-seed deterministic mutation battery the acceptance criteria
// names: truncations, bit flips, and section splices over real encodings
// of both containers. Totality means: never a crash, never unbounded
// allocation (tight Limits), zero global-arena residue; accepted mutants
// must still run under fuel.
TEST(Ingest, MutationBattery10k) {
  std::vector<std::vector<uint8_t>> Seeds = {
      wasmBytes(rwbench::loopModule(10)),
      wasmBytes(rwbench::wideModule(4)),
      serial::write(rwbench::loopModule(10)),
      serial::write(rwbench::wideModule(4)),
  };
  for (const auto &S : Seeds)
    ASSERT_GT(S.size(), 24u);

  Limits L;
  L.MaxModuleBytes = 1 << 20;
  L.MaxTotalAlloc = 16u << 20;
  link::LinkOptions Opts;
  Opts.RunStart = false;

  uint64_t ArenaBefore = globalArenaNodes();
  std::mt19937_64 Rng(0xbadc0ffee);
  size_t Accepted = 0, Rejected = 0;

  for (int I = 0; I < 10000; ++I) {
    std::vector<uint8_t> B = Seeds[Rng() % Seeds.size()];
    switch (Rng() % 3) {
    case 0: { // truncation
      B.resize(Rng() % (B.size() + 1));
      break;
    }
    case 1: { // 1..8 bit flips
      for (unsigned F = 1 + Rng() % 8; F && !B.empty(); --F)
        B[Rng() % B.size()] ^= uint8_t(1) << (Rng() % 8);
      break;
    }
    default: { // splice: copy a random slice over a random position
      if (B.size() > 8) {
        size_t From = Rng() % B.size();
        size_t Len = 1 + Rng() % std::min<size_t>(64, B.size() - From);
        size_t To = Rng() % (B.size() - Len + 1);
        std::vector<uint8_t> Slice(B.begin() + From, B.begin() + From + Len);
        std::copy(Slice.begin(), Slice.end(), B.begin() + To);
      }
      break;
    }
    }

    IngestError E;
    Expected<ingest::AdmittedModule> A = ingest::admit(B, L, Opts, &E);
    if (A) {
      ++Accepted;
      EXPECT_TRUE(runsFlat(A->instance()))
          << "admitted off the flat engine at iteration " << I;
    } else {
      ++Rejected;
      EXPECT_NE(E.Cat, Category::None)
          << "rejection without a category at iteration " << I;
    }
  }

  EXPECT_EQ(Accepted + Rejected, 10000u);
  EXPECT_GT(Rejected, 5000u) << "mutations should mostly break something";
  EXPECT_EQ(globalArenaNodes(), ArenaBefore)
      << "battery left residue in the global type arena";
}

} // namespace
