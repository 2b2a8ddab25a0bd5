//===- tests/cache_test.cpp - Admission cache tests -----------------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
// Pins the content-addressed admission cache contract (DESIGN.md §8):
//
//  * link sets — a warm link::instantiateLowered resubmission skips
//    straight to instantiation (stats prove the hit) and produces
//    identical results on both engines, which share one artifact; the
//    key is the link set's exact content, a forced key collision is a
//    miss, and a link-set entry is never served to ingest::admit;
//  * cold link sets — checking on a miss reports the sequential
//    checker's diagnostics for any pool size and caches nothing;
//  * LRU byte budget — recency decides eviction, stats account bytes and
//    evictions exactly, and evicting an artifact never invalidates a
//    running instance;
//  * verified bytes — an ingest::admit re-admission is served only for
//    byte-equal input, even when keys collide, re-applies the caller's
//    Limits, and the entry owns and is charged for its artifact;
//  * thread safety — concurrent probes/stores from the thread pool (the
//    TSan job runs this binary).
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"

#include "bench/Common.h"
#include "exec/Engine.h"
#include "ingest/Ingest.h"
#include "obs/Obs.h"
#include "serial/Serial.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace rw;
using namespace rw::ir;

namespace {

/// A small valid module with content parameterized by \p Tag.
ir::Module okModule(uint32_t Tag) {
  using namespace rw::ir::build;
  ir::Module M;
  M.Name = "ok" + std::to_string(Tag);
  InstVec Body = {getLocal(0, Qual::unr()),
                  iconst(static_cast<int32_t>(Tag)), addI32()};
  M.Funcs.push_back(function({"f"},
                             FunType::get({}, arrow({i32T()}, {i32T()})), {},
                             std::move(Body)));
  return M;
}

/// A module the checker rejects (drops a linear value).
ir::Module badModule(uint32_t Tag) {
  using namespace rw::ir::build;
  ir::Module M;
  M.Name = "bad" + std::to_string(Tag);
  InstVec Body = {iconst(static_cast<int32_t>(Tag)),
                  structMalloc({Size::constant(32)}, Qual::lin()),
                  drop(), // Leaks the linear reference.
                  iconst(0)};
  M.Funcs.push_back(function({"f"},
                             FunType::get({}, arrow({}, {i32T()})), {},
                             std::move(Body)));
  return M;
}

/// lib exports `double`, client imports it and exports `main`.
std::pair<ir::Module, ir::Module> linkedPair() {
  using namespace rw::ir::build;
  FunTypeRef Fn = FunType::get({}, arrow({i32T()}, {i32T()}));
  ir::Module Lib;
  Lib.Name = "lib";
  Lib.Funcs.push_back(function({"double"}, Fn, {},
                               {getLocal(0, Qual::unr()),
                                getLocal(0, Qual::unr()), addI32()}));
  ir::Module Client;
  Client.Name = "client";
  Client.Funcs.push_back(importFunc({"lib", "double"}, Fn));
  Client.Funcs.push_back(function(
      {"main"}, FunType::get({}, arrow({}, {i32T()})), {},
      {iconst(21), call(0)}));
  return {std::move(Lib), std::move(Client)};
}

/// Key function for synthetic entries (keyBytes strings, 16 bytes or
/// more): the first 16 bytes, read as the key's two words, so a test
/// picks keys (and so shards) directly.
cache::ContentKey wordsKey(const std::vector<uint8_t> &B) {
  cache::ContentKey K;
  std::memcpy(&K.Hi, B.data(), 8);
  std::memcpy(&K.Lo, B.data() + 8, 8);
  return K;
}

/// A 16-byte string that wordsKey maps to {Hi, Lo}, plus \p Pad bytes.
std::vector<uint8_t> keyBytes(uint64_t Hi, uint64_t Lo, size_t Pad = 0) {
  std::vector<uint8_t> B(16 + Pad);
  std::memcpy(B.data(), &Hi, 8);
  std::memcpy(B.data() + 8, &Lo, 8);
  return B;
}

/// The artifact synthetic entries store: the cache never looks inside.
cache::VerifiedModule emptyEntry(uint64_t Funcs = 0) {
  static const auto Empty = std::make_shared<const cache::LoweredArtifact>();
  return {Empty, Funcs, 0, 0};
}

/// What one synthetic entry (16 key bytes) is charged.
uint64_t syntheticCharge() {
  cache::AdmissionCache P;
  P.storeVerified(keyBytes(0, 0), emptyEntry());
  return P.stats().Bytes;
}

//===----------------------------------------------------------------------===//
// Link-set memoization (instantiateLowered warm path)
//===----------------------------------------------------------------------===//

TEST(Cache, WarmInstantiateLoweredSkipsToInstantiation) {
  auto [Lib, Client] = linkedPair();
  std::vector<const ir::Module *> Mods = {&Lib, &Client};

  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;

  auto Cold = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.error().message();
  auto R1 = Cold->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R1)) << R1.error().message();
  EXPECT_EQ((*R1)[0].Bits, 42u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
  EXPECT_EQ(C.stats().ProgramHits, 0u);

  auto Warm = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
  // Both instances share one lowered artifact.
  EXPECT_EQ(Warm->Program.get(), Cold->Program.get());
  auto R2 = Warm->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R2)) << R2.error().message();
  EXPECT_EQ((*R2)[0].Bits, 42u);

  // The jit engine hits the same artifact (the key is engine-
  // independent) and adopts the memoized translation.
  link::LinkOptions JitOpts = Opts;
  JitOpts.Engine = wasm::EngineKind::Jit;
  auto Jit = link::instantiateLowered(Mods, JitOpts);
  ASSERT_TRUE(bool(Jit)) << Jit.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 2u);
  EXPECT_EQ(static_cast<exec::FlatInstance &>(*Jit->Instance).engine(),
            wasm::EngineKind::Jit);
  auto R3 = Jit->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R3)) << R3.error().message();
  EXPECT_EQ((*R3)[0].Bits, 42u);

  // Different link order = different program = different key.
  std::vector<const ir::Module *> Reordered = {&Client, &Lib};
  auto Miss = link::instantiateLowered(Reordered, Opts);
  EXPECT_EQ(C.stats().ProgramMisses, 2u);
  (void)Miss; // Client-before-lib leaves the import host-unbound; the
              // cold path may fail or succeed, the key just must differ.
}

TEST(Cache, LinkSetOrderAndContentDecideTheKey) {
  auto [Lib, Client] = linkedPair();
  ir::Module Lib2 = Lib; // Same content, different object.
  std::vector<uint8_t> Key = cache::linkSetKey({&Lib, &Client});
  EXPECT_EQ(cache::linkSetKey({&Lib2, &Client}), Key);
  EXPECT_NE(cache::linkSetKey({&Client, &Lib}), Key);

  // The tag, then each module's wire bytes in link order.
  std::vector<uint8_t> Want = {'R', 'W', 'L', 'S'};
  for (const ir::Module *M : {&Lib, &Client}) {
    std::vector<uint8_t> B = serial::write(*M);
    Want.insert(Want.end(), B.begin(), B.end());
  }
  EXPECT_EQ(Key, Want);

  // Same content from another object is a hit.
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;
  ASSERT_TRUE(bool(link::instantiateLowered({&Lib, &Client}, Opts)));
  auto Warm = link::instantiateLowered({&Lib2, &Client}, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 1u);
}

TEST(Cache, ForcedLinkSetKeyCollisionDegradesToMiss) {
  cache::AdmissionCache C;
  C.setBytesKeyForTesting(
      [](const std::vector<uint8_t> &) { return cache::ContentKey{7, 7}; });
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Engine = wasm::EngineKind::Flat;
  auto [Lib, Client] = linkedPair();
  ir::Module Loop = rwbench::loopModule(10);
  auto result = [](Expected<link::LoweredInstance> &LI, const char *Export) {
    if (!LI)
      return "rejected: " + LI.error().message();
    auto R = LI->invokeExport(Export, {});
    return R ? std::to_string((*R)[0].Bits) : "trap: " + R.error().message();
  };

  auto A = link::instantiateLowered({&Lib, &Client}, Opts);
  EXPECT_EQ(result(A, "client.main"), "42");
  // Same key, different link set: a miss with its own result.
  auto B = link::instantiateLowered({&Loop}, Opts);
  EXPECT_EQ(result(B, "loopmod.main"), "55");
  EXPECT_EQ(C.stats().ProgramHits, 0u);
  EXPECT_EQ(C.stats().ProgramMisses, 2u);

  // The first entry stays resident and served; the second stays a miss.
  auto A2 = link::instantiateLowered({&Lib, &Client}, Opts);
  EXPECT_EQ(result(A2, "client.main"), "42");
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  auto B2 = link::instantiateLowered({&Loop}, Opts);
  EXPECT_EQ(result(B2, "loopmod.main"), "55");
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().Entries, 1u);
}

TEST(Cache, LinkSetEntryIsNeverServedToIngest) {
  ir::Module M = rwbench::loopModule(10);
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Engine = wasm::EngineKind::Flat;
  ASSERT_TRUE(bool(link::instantiateLowered({&M}, Opts)));
  EXPECT_EQ(C.stats().Entries, 1u);

  // The module's own bytes are a miss and admit normally.
  auto A = ingest::admit(serial::write(M), ingest::Limits(), Opts);
  ASSERT_TRUE(bool(A)) << A.error().message();
  auto R = A->invoke("loopmod.main", {});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 55u);
  EXPECT_EQ(C.stats().ProgramHits, 0u);
  EXPECT_EQ(C.stats().ProgramMisses, 2u);
  EXPECT_EQ(C.stats().Entries, 2u);
}

TEST(Cache, IngestRejectsALinkSetKeyAsBadMagic) {
  ir::Module M = rwbench::loopModule(10);
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;
  ASSERT_TRUE(bool(link::instantiateLowered({&M}, Opts)));

  ingest::IngestError E;
  EXPECT_FALSE(ingest::admit(cache::linkSetKey({&M}), ingest::Limits(), Opts,
                             &E));
  EXPECT_EQ(E.Cat, ingest::Category::BadMagic) << E.render();
  // Rejected before any probe.
  EXPECT_EQ(C.stats().ProgramHits, 0u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
}

TEST(Cache, ColdLinkSetChecksDeterministicallyAcrossPoolSizes) {
  // A set with successes and failures: a miss checks it, with or without
  // a pool of any size, and reports the sequential checker's first
  // failure byte for byte. Rejected link sets are never cached.
  std::vector<ir::Module> Store;
  for (uint32_t I = 0; I < 4; ++I)
    Store.push_back(okModule(I));
  for (uint32_t I = 0; I < 3; ++I)
    Store.push_back(badModule(I));
  Store.push_back(rwbench::wideModule(6));
  std::vector<const ir::Module *> Mods;
  for (ir::Module &M : Store)
    Mods.push_back(&M);
  Status Ref = typing::checkModule(Store[4]);
  ASSERT_FALSE(Ref.ok());
  std::string Want = "module 'bad0': " + Ref.error().message();

  for (unsigned Threads : {0u, 1u, 3u, 8u}) {
    std::optional<support::ThreadPool> Pool;
    cache::AdmissionCache C;
    link::LinkOptions Opts;
    Opts.Cache = &C;
    if (Threads) {
      Pool.emplace(Threads);
      Opts.Pool = &*Pool;
    }
    for (int Round = 0; Round < 2; ++Round) {
      auto LI = link::instantiateLowered(Mods, Opts);
      ASSERT_FALSE(bool(LI)) << "pool size " << Threads;
      EXPECT_EQ(LI.error().message(), Want) << "pool size " << Threads;
    }
    EXPECT_EQ(C.stats().Entries, 0u);
    EXPECT_EQ(C.stats().ProgramMisses, 2u);
  }
}

//===----------------------------------------------------------------------===//
// LRU byte budget
//===----------------------------------------------------------------------===//

TEST(Cache, LruEvictsByRecencyWithinByteBudget) {
  // Every synthetic entry is charged the same; the budget fits three.
  uint64_t E = syntheticCharge();
  cache::AdmissionCache C(3 * E + E / 2);
  std::vector<uint8_t> KA = keyBytes(1, 1), KB = keyBytes(2, 2),
                       KC = keyBytes(3, 3), KD = keyBytes(4, 4);
  C.storeVerified(KA, emptyEntry());
  C.storeVerified(KB, emptyEntry());
  EXPECT_TRUE(C.lookupVerified(KA).has_value()); // A is now more recent.
  C.storeVerified(KC, emptyEntry());
  EXPECT_EQ(C.stats().Entries, 3u);
  EXPECT_EQ(C.stats().Evictions, 0u);

  C.storeVerified(KD, emptyEntry()); // Four entries > budget: evict B.
  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().Entries, 3u);
  EXPECT_LE(C.stats().Bytes, C.byteBudget());
  EXPECT_FALSE(C.lookupVerified(KB).has_value());
  EXPECT_TRUE(C.lookupVerified(KA).has_value());
  EXPECT_TRUE(C.lookupVerified(KC).has_value());
  EXPECT_TRUE(C.lookupVerified(KD).has_value());

  C.clear();
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.stats().Bytes, 0u);
  EXPECT_FALSE(C.lookupVerified(KA).has_value());
}

TEST(Cache, OversizedArtifactIsRejectedWithoutFlushingResidents) {
  // A budget smaller than the program's artifact: the store is rejected
  // up front — admitting it would evict the whole warm set before the
  // oversized entry itself went. Resident entries survive and the
  // returned instance still works (it owns the artifact through its
  // shared_ptr).
  auto [Lib, Client] = linkedPair();
  std::vector<const ir::Module *> Mods = {&Lib, &Client};
  uint64_t E = syntheticCharge();
  cache::AdmissionCache C(2 * E + E / 2); // Fits two synthetic entries.
  std::vector<uint8_t> KA = keyBytes(1, 1), KB = keyBytes(2, 2);
  C.storeVerified(KA, emptyEntry());
  C.storeVerified(KB, emptyEntry());

  link::LinkOptions Opts;
  Opts.Cache = &C;
  cache::AdmissionCache Probe;
  link::LinkOptions ProbeOpts = Opts;
  ProbeOpts.Cache = &Probe;
  ASSERT_TRUE(bool(link::instantiateLowered(Mods, ProbeOpts)));
  ASSERT_GT(Probe.stats().Bytes, C.byteBudget());

  auto LI = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(LI)) << LI.error().message();
  // The warm resident set was not collateral damage.
  EXPECT_EQ(C.stats().Evictions, 0u);
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_TRUE(C.lookupVerified(KA).has_value());
  EXPECT_TRUE(C.lookupVerified(KB).has_value());

  auto R = LI->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R)) << R.error().message();
  EXPECT_EQ((*R)[0].Bits, 42u);
  // And the next submission is a miss again (the artifact never cached).
  uint64_t Hits = C.stats().ProgramHits;
  auto LI2 = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(LI2));
  EXPECT_EQ(C.stats().ProgramHits, Hits);
  EXPECT_EQ(C.stats().ProgramMisses, 2u);
}

//===----------------------------------------------------------------------===//
// Verified-bytes index
//===----------------------------------------------------------------------===//

std::shared_ptr<const cache::LoweredArtifact>
artifactOf(const ir::Module &M, cache::AdmissionCache &C) {
  link::LinkOptions Opts;
  Opts.Cache = &C; // A cacheable artifact: validated and translated.
  auto A = link::lowerArtifact({&M}, Opts);
  EXPECT_TRUE(bool(A)) << A.error().message();
  return A ? A.take() : nullptr;
}

/// The heap bytes an artifact's vectors hold: every capacity, summed.
uint64_t summedCapacities(const cache::LoweredArtifact &A) {
  auto Cap = [](const auto &V) {
    return uint64_t(V.capacity()) * sizeof(V[0]);
  };
  const wasm::WModule &M = A.Program.Module;
  uint64_t B = Cap(M.Types) + Cap(M.ImportFuncs) + Cap(M.Funcs) +
               Cap(M.TableElems) + Cap(M.Globals) + Cap(M.Exports) +
               Cap(M.Data) + Cap(A.Program.RefGlobals) + Cap(A.Flat.Funcs) +
               Cap(A.Flat.CanonType);
  for (const wasm::FuncType &T : M.Types)
    B += Cap(T.Params) + Cap(T.Results);
  for (const wasm::WFunc &F : M.Funcs) {
    B += Cap(F.Locals) + Cap(F.Body) + Cap(F.BlockTypes) + Cap(F.BrTargets);
    for (const wasm::FuncType &T : F.BlockTypes)
      B += Cap(T.Params) + Cap(T.Results);
  }
  for (const wasm::WGlobal &G : M.Globals)
    B += Cap(G.Init);
  for (const wasm::WData &D : M.Data)
    B += Cap(D.Bytes);
  for (const exec::FlatFunc &F : A.Flat.Funcs)
    B += Cap(F.Code);
  return B;
}

TEST(Cache, VerifiedEntryOwnsAndIsChargedItsArtifact) {
  ir::Module M1 = okModule(1), M2 = okModule(2);
  std::vector<uint8_t> B1 = serial::write(M1), B2 = serial::write(M2);
  cache::AdmissionCache P, C;
  auto Art = artifactOf(M1, C);
  P.storeVerified({}, {Art, 1, 0, 0}); // Charged the artifact alone.
  C.storeVerified(B1, {Art, 1, 0, 0});
  uint64_t Charge1 = C.stats().Bytes;
  EXPECT_EQ(Charge1, P.stats().Bytes + B1.size());
  // The charge covers the heap the artifact really holds.
  EXPECT_GE(P.stats().Bytes, summedCapacities(*Art));

  auto Hit = C.lookupVerified(B1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Art, Art);
  EXPECT_EQ(Hit->Funcs, 1u);
  std::vector<uint8_t> Edited = B1;
  Edited.back() ^= 1;
  EXPECT_FALSE(C.lookupVerified(Edited).has_value());
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);

  // A budget that holds either entry but not both: storing the second
  // evicts the first, and with it the last owner of its artifact.
  C.storeVerified(B2, {artifactOf(M2, C), 1, 0, 0});
  uint64_t Charge2 = C.stats().Bytes - Charge1;
  cache::AdmissionCache D(Charge1 + Charge2 - 1);
  D.storeVerified(B1, {artifactOf(M1, D), 1, 0, 0});
  std::weak_ptr<const cache::LoweredArtifact> W = D.lookupVerified(B1)->Art;
  EXPECT_FALSE(W.expired());
  D.storeVerified(B2, {artifactOf(M2, D), 1, 0, 0});
  EXPECT_EQ(D.stats().Evictions, 1u);
  EXPECT_LE(D.stats().Bytes, D.byteBudget());
  EXPECT_TRUE(W.expired()) << "an evicted entry kept its artifact alive";
  EXPECT_FALSE(D.lookupVerified(B1).has_value());
  EXPECT_TRUE(D.lookupVerified(B2).has_value());
}

std::string runMain(Expected<ingest::AdmittedModule> &A) {
  if (!A)
    return "rejected: " + A.error().message();
  auto R = A->invoke("loopmod.main", {});
  return R ? std::to_string((*R)[0].Bits) : "trap: " + R.error().message();
}

TEST(Cache, ForcedBytesKeyCollisionDegradesToMiss) {
  cache::AdmissionCache C;
  C.setBytesKeyForTesting(
      [](const std::vector<uint8_t> &) { return cache::ContentKey{7, 7}; });
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Engine = wasm::EngineKind::Flat;
  std::vector<uint8_t> First = serial::write(rwbench::loopModule(10));
  std::vector<uint8_t> Second = serial::write(rwbench::loopModule(7));
  std::vector<uint8_t> IllTyped = serial::write(badModule(1));

  auto A = ingest::admit(First, ingest::Limits(), Opts);
  EXPECT_EQ(runMain(A), "55");
  // Same key, different bytes: a miss with the second module's own result.
  auto B = ingest::admit(Second, ingest::Limits(), Opts);
  EXPECT_EQ(runMain(B), "28");
  ingest::IngestError E;
  EXPECT_FALSE(ingest::admit(IllTyped, ingest::Limits(), Opts, &E));
  EXPECT_EQ(E.Cat, ingest::Category::Check) << E.render();
  EXPECT_EQ(C.stats().ProgramHits, 0u);
  EXPECT_EQ(C.stats().ProgramMisses, 3u);

  // The first entry stays resident and served; the second stays a miss.
  auto A2 = ingest::admit(First, ingest::Limits(), Opts);
  EXPECT_EQ(runMain(A2), "55");
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  auto B2 = ingest::admit(Second, ingest::Limits(), Opts);
  EXPECT_EQ(runMain(B2), "28");
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().Entries, 1u);
}

TEST(Cache, StricterLimitsRejectAVerifiedHit) {
  // Under -DRW_OBS=OFF the counter is pinned to zero.
  const uint64_t One = obs::compiledIn() ? 1 : 0;
  obs::Counter Rejected("ingest.rejected.limit_exceeded");
  ir::Module M = rwbench::wideModule(4);
  M.Tab.Entries = {0, 1, 2};
  std::vector<uint8_t> B = serial::write(M);
  cache::AdmissionCache C;
  link::LinkOptions Opts;
  Opts.Cache = &C;
  auto A = ingest::admit(B, ingest::Limits(), Opts);
  ASSERT_TRUE(bool(A)) << A.error().message();

  ingest::Limits FewFuncs, FewElems;
  FewFuncs.MaxFuncs = 3;
  FewElems.MaxElems = 2;
  for (const ingest::Limits &L : {FewFuncs, FewElems}) {
    uint64_t Hits = C.stats().ProgramHits, R0 = Rejected.value();
    ingest::IngestError Hot, Fresh;
    EXPECT_FALSE(ingest::admit(B, L, Opts, &Hot));
    EXPECT_EQ(C.stats().ProgramHits, Hits + 1) << "not served from the index";
    EXPECT_EQ(Hot.Cat, ingest::Category::LimitExceeded) << Hot.render();
    EXPECT_EQ(Rejected.value(), R0 + One);
    EXPECT_FALSE(ingest::admit(B, L, {}, &Fresh));
    EXPECT_EQ(Hot.render(), Fresh.render());
  }
  auto Again = ingest::admit(B, ingest::Limits(), Opts);
  EXPECT_TRUE(bool(Again)) << Again.error().message();
}

//===----------------------------------------------------------------------===//
// Concurrency (TSan)
//===----------------------------------------------------------------------===//

TEST(Cache, ConcurrentProbesAndStoresAreSafe) {
  cache::AdmissionCache C(1 << 16);
  support::ThreadPool Pool(8);
  std::vector<std::vector<uint8_t>> Keys;
  for (uint32_t I = 0; I < 8; ++I)
    Keys.push_back(serial::write(okModule(I % 4)));

  Pool.parallelFor(256, [&](size_t I) {
    const std::vector<uint8_t> &K = Keys[I % Keys.size()];
    if (I % 3 == 0)
      C.storeVerified(K, emptyEntry());
    else
      (void)C.lookupVerified(K);
    if (I % 7 == 0)
      (void)C.stats();
  });
  EXPECT_LE(C.stats().Entries, 4u); // 4 unique contents.

  // Concurrent submissions of one link set through the full cached
  // pipeline, each from its own module objects.
  std::vector<std::string> Outs(4);
  Pool.parallelFor(4, [&](size_t I) {
    auto [Lib, Client] = linkedPair();
    link::LinkOptions Opts;
    Opts.Cache = &C;
    auto LI = link::instantiateLowered({&Lib, &Client}, Opts);
    if (!LI) {
      Outs[I] = "rejected: " + LI.error().message();
      return;
    }
    auto R = LI->invokeExport("client.main", {});
    Outs[I] = R ? std::to_string((*R)[0].Bits) : R.error().message();
  });
  for (const std::string &O : Outs)
    EXPECT_EQ(O, "42");
}

TEST(Cache, ConcurrentVerifiedAdmissionsAreSafe) {
  // One entry per shard, six byte strings over four shards: hits, misses,
  // stores and evictions interleave across the pool's threads.
  std::vector<std::vector<uint8_t>> Bs;
  for (int32_t N = 2; N < 8; ++N)
    Bs.push_back(serial::write(rwbench::loopModule(N)));
  link::LinkOptions Opts;
  Opts.Engine = wasm::EngineKind::Flat;
  cache::AdmissionCache Probe;
  Opts.Cache = &Probe;
  ASSERT_TRUE(bool(ingest::admit(Bs.back(), ingest::Limits(), Opts)));
  uint64_t Charge = Probe.stats().Bytes;

  cache::AdmissionCache C(Charge * 3 / 2 * 4, 4);
  Opts.Cache = &C;
  support::ThreadPool Pool(4);
  constexpr size_t N = 96;
  std::vector<std::string> Got(N);
  Pool.parallelFor(N, [&](size_t I) {
    auto A = ingest::admit(Bs[I % Bs.size()], ingest::Limits(), Opts);
    Got[I] = runMain(A);
  });
  for (size_t I = 0; I < N; ++I) {
    uint32_t K = static_cast<uint32_t>(I % Bs.size()) + 2;
    EXPECT_EQ(Got[I], std::to_string(K * (K + 1) / 2)) << I;
  }
  cache::CacheStats S = C.stats();
  EXPECT_EQ(S.ProgramHits + S.ProgramMisses, N);
  EXPECT_LE(S.Bytes, C.byteBudget());
}

//===----------------------------------------------------------------------===//
// Sharding
//===----------------------------------------------------------------------===//

TEST(Cache, ShardedRoundTripAndStatsAggregation) {
  cache::AdmissionCache C(1 << 20, 8);
  C.setBytesKeyForTesting(wordsKey);
  EXPECT_EQ(C.shardCount(), 8u);
  for (uint64_t I = 0; I < 256; ++I)
    C.storeVerified(keyBytes(I, I * 2 + 1), emptyEntry(I));
  for (uint64_t I = 0; I < 256; ++I) {
    auto R = C.lookupVerified(keyBytes(I, I * 2 + 1));
    ASSERT_TRUE(R.has_value()) << I;
    EXPECT_EQ(R->Funcs, I);
  }
  (void)C.lookupVerified(keyBytes(999, 999)); // One miss somewhere.

  cache::CacheStats Agg = C.stats();
  EXPECT_EQ(Agg.Entries, 256u);
  EXPECT_EQ(Agg.ProgramHits, 256u);
  EXPECT_EQ(Agg.ProgramMisses, 1u); // Stores do not probe; one cold lookup.
  cache::CacheStats Sum;
  unsigned NonEmpty = 0;
  for (unsigned S = 0; S < C.shardCount(); ++S) {
    cache::CacheStats SS = C.shardStats(S);
    Sum.ProgramHits += SS.ProgramHits;
    Sum.ProgramMisses += SS.ProgramMisses;
    Sum.Evictions += SS.Evictions;
    Sum.Bytes += SS.Bytes;
    Sum.Entries += SS.Entries;
    NonEmpty += SS.Entries > 0;
  }
  EXPECT_EQ(Sum.ProgramHits, Agg.ProgramHits);
  EXPECT_EQ(Sum.ProgramMisses, Agg.ProgramMisses);
  EXPECT_EQ(Sum.Bytes, Agg.Bytes);
  EXPECT_EQ(Sum.Entries, Agg.Entries);
  // mix64 actually partitions: 256 correlated keys do not pile into one
  // shard.
  EXPECT_GT(NonEmpty, 4u);
}

TEST(Cache, ShardedEvictionIsPerShardBudget) {
  // Eight shards, each with room for three synthetic entries: 24
  // residents total at most.
  uint64_t E = syntheticCharge();
  uint64_t ShardBudget = 3 * E + E / 2;
  cache::AdmissionCache C(8 * ShardBudget, 8);
  C.setBytesKeyForTesting(wordsKey);
  for (uint64_t I = 0; I < 64; ++I)
    C.storeVerified(keyBytes(I * 31 + 7, I), emptyEntry());
  cache::CacheStats Agg = C.stats();
  EXPECT_LE(Agg.Entries, 24u);
  EXPECT_GE(Agg.Evictions, 64u - 24u);
  for (unsigned S = 0; S < C.shardCount(); ++S) {
    cache::CacheStats SS = C.shardStats(S);
    EXPECT_LE(SS.Entries, 3u) << "shard " << S << " exceeded its budget";
    EXPECT_LE(SS.Bytes, ShardBudget) << "shard " << S;
  }

  // Oversize is judged against the *shard* budget: an entry charged 4E
  // would fit the whole budget but is rejected per the single-shard rule.
  uint64_t EvBefore = C.stats().Evictions;
  std::vector<uint8_t> Big = keyBytes(12345, 54321, 3 * E);
  C.storeVerified(Big, emptyEntry());
  EXPECT_FALSE(C.lookupVerified(Big).has_value());
  EXPECT_EQ(C.stats().Evictions, EvBefore) << "oversize store flushed a shard";

  C.clear();
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.stats().Bytes, 0u);
}

TEST(Cache, ShardedWarmPipelineStillHits) {
  auto [Lib, Client] = linkedPair();
  std::vector<const ir::Module *> Mods = {&Lib, &Client};
  cache::AdmissionCache C(cache::AdmissionCache::DefaultByteBudget, 4);
  support::ThreadPool Pool(3);

  // Check once up front and hand the InfoMaps over: the cold admission
  // checks nothing again, the warm one skips lowering too.
  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = typing::checkModules(Mods, Pool, &Infos);
  ASSERT_TRUE(Checks[0].ok() && Checks[1].ok());
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Infos = &Infos;
  auto Cold = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.error().message();
  auto Warm = link::instantiateLowered(Mods, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.error().message();
  EXPECT_EQ(C.stats().ProgramHits, 1u);
  EXPECT_EQ(C.stats().ProgramMisses, 1u);
  auto R = Warm->invokeExport("client.main", {});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0].Bits, 42u);
}

#if RW_OBS_ENABLED
TEST(Cache, ShardedObsSourceEmitsPerShardKeys) {
  cache::AdmissionCache C(1 << 16, 4);
  C.storeVerified(keyBytes(1, 2), emptyEntry());
  (void)C.lookupVerified(keyBytes(1, 2));
  (void)C.lookupVerified(keyBytes(3, 4));
  obs::Snapshot S = obs::snapshot();
  // The source prefix may be uniquified ("cache#N") when other tests'
  // instances are alive; match on suffix within cache-prefixed names.
  bool SawShards = false, SawPerShard = false;
  uint64_t Hits = 0, ShardHits = 0;
  bool SawAggHits = false;
  for (const obs::Metric &M : S.Metrics) {
    if (M.Name.rfind("cache", 0) != 0)
      continue;
    std::string N = M.Name.substr(M.Name.find('.') + 1);
    if (N == "shards" && M.Value == 4)
      SawShards = true;
    if (N.rfind("shard", 0) == 0 && N.find(".hits") != std::string::npos)
      SawPerShard = true;
  }
  EXPECT_TRUE(SawShards);
  EXPECT_TRUE(SawPerShard);
  // Per-shard hit counters sum to the aggregate for *this* instance:
  // find the unique cache prefix whose "shards" value is 4 and fold it.
  std::string Prefix;
  for (const obs::Metric &M : S.Metrics)
    if (M.Name.rfind("cache", 0) == 0 && M.Value == 4 &&
        M.Name.substr(M.Name.find('.') + 1) == "shards")
      Prefix = M.Name.substr(0, M.Name.find('.'));
  ASSERT_FALSE(Prefix.empty());
  for (const obs::Metric &M : S.Metrics) {
    if (M.Name.rfind(Prefix + ".", 0) != 0)
      continue;
    std::string N = M.Name.substr(Prefix.size() + 1);
    if (N == "hits") {
      Hits = M.Value;
      SawAggHits = true;
    }
    if (N.rfind("shard", 0) == 0 &&
        N.substr(N.find('.') + 1) == "hits")
      ShardHits += M.Value;
  }
  EXPECT_TRUE(SawAggHits);
  EXPECT_EQ(ShardHits, Hits);
  EXPECT_EQ(Hits, 1u);
}
#endif // RW_OBS_ENABLED

TEST(Cache, ShardedConcurrentHammer) {
  cache::AdmissionCache C(1 << 14, 8);
  C.setBytesKeyForTesting(wordsKey);
  support::ThreadPool Pool(8);
  Pool.parallelFor(2048, [&](size_t I) {
    std::vector<uint8_t> K = keyBytes(I % 97, I % 89);
    switch (I % 5) {
    case 0:
      C.storeVerified(K, emptyEntry());
      break;
    case 1:
    case 2:
      (void)C.lookupVerified(K);
      break;
    case 3:
      (void)C.stats();
      break;
    default:
      (void)C.shardStats(static_cast<unsigned>(I) % C.shardCount());
    }
  });
  cache::CacheStats Agg = C.stats();
  EXPECT_LE(Agg.Bytes, C.byteBudget());
  EXPECT_GT(Agg.ProgramHits + Agg.ProgramMisses, 0u);
}

} // namespace
