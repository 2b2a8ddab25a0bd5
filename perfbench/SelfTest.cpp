//===- perfbench/SelfTest.cpp - Tests of the benchmark's generators -------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tests (run with `python3 perfbench/run.py
/// --selftest`): generation is deterministic in the seed, another seed
/// changes the bytes but not the class shares or sizes, every generated
/// source compiles, and every payload meets its known answer through the
/// front door. Exits non-zero on the first failed check.
///
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "cache/AdmissionCache.h"

#include <cstdio>
#include <cstdlib>
#include <map>

using namespace rw;
using namespace perfbench;

namespace {

int Checks = 0;

#define CHECK(Cond, ...)                                                       \
  do {                                                                         \
    ++Checks;                                                                  \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed: ", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      std::fprintf(stderr, __VA_ARGS__);                                       \
      std::fputc('\n', stderr);                                                \
      std::exit(1);                                                            \
    }                                                                          \
  } while (0)

constexpr size_t ColdN = 256, AdvN = 512;

using Pool = std::vector<AdmitPayload> AdmitMix::*;
constexpr Pool Pools[] = {&AdmitMix::Hot, &AdmitMix::HotWasm, &AdmitMix::Adv};

/// The first \p N cold modules, as the benchmark builds them on demand.
std::vector<AdmitPayload> coldPool(const AdmitMix &M, size_t N) {
  std::vector<AdmitPayload> Cold;
  for (size_t J = 0; J < N; ++J)
    Cold.push_back(M.cold(J));
  return Cold;
}

double meanBytes(const std::vector<AdmitPayload> &Ps) {
  double Sum = 0;
  for (const AdmitPayload &P : Ps)
    Sum += static_cast<double>(P.Bytes.size());
  return Sum / static_cast<double>(Ps.size());
}

void sameSeedSameInputs() {
  AdmitMix A(7, AdvN), B(7, AdvN);
  for (Pool P : Pools) {
    CHECK((A.*P).size() == (B.*P).size(), "pool sizes differ");
    for (size_t I = 0; I < (A.*P).size(); ++I)
      CHECK((A.*P)[I].Bytes == (B.*P)[I].Bytes, "payload %zu differs", I);
  }
  for (size_t J = 0; J < ColdN; ++J)
    CHECK(A.cold(J).Bytes == B.cold(J).Bytes, "cold payload %zu differs", J);
  for (unsigned Extra : {0u, ColdLinkProgram::LargeExtra}) {
    ColdLinkProgram C(7, Extra), D(7, Extra);
    CHECK(C.Sources.size() == D.Sources.size(), "source counts differ");
    for (size_t I = 0; I < C.Sources.size(); ++I)
      CHECK(C.Sources[I].Name == D.Sources[I].Name &&
                C.Sources[I].Text == D.Sources[I].Text,
            "source %zu differs", I);
  }
  InteropKernels E(7), F(7);
  CHECK(E.LoopN == F.LoopN && E.ClientSource == F.ClientSource,
        "interop kernels differ");
}

void otherSeedSameShape() {
  AdmitMix A(7, AdvN), B(8, AdvN);
  for (Pool P : Pools) {
    CHECK((A.*P).size() == (B.*P).size(), "pool sizes differ");
    double MA = meanBytes(A.*P), MB = meanBytes(B.*P);
    CHECK(std::abs(MA - MB) <= 0.05 * MA, "mean sizes %.1f vs %.1f", MA, MB);
  }
  std::vector<AdmitPayload> ColdA = coldPool(A, ColdN), ColdB = coldPool(B, ColdN);
  double MA = meanBytes(ColdA), MB = meanBytes(ColdB);
  CHECK(std::abs(MA - MB) <= 0.05 * MA, "mean cold sizes %.1f vs %.1f", MA, MB);
  for (size_t I = 0; I < A.Hot.size(); ++I)
    CHECK(A.Hot[I].Bytes != B.Hot[I].Bytes, "hot payload %zu unchanged", I);
  for (size_t I = 0; I < ColdN; ++I)
    CHECK(ColdA[I].Bytes != ColdB[I].Bytes, "cold payload %zu unchanged", I);
  CHECK(ColdA[0].Bytes != ColdA[1].Bytes, "cold payloads repeat");
  for (const AdmitMix *M : {&A, &B}) {
    std::map<AdmitClass, size_t> Kinds;
    for (const AdmitPayload &P : M->Adv)
      ++Kinds[P.Class];
    CHECK(Kinds[AdmitClass::Malformed] == AdvN / 2 &&
              Kinds[AdmitClass::IllTyped] == AdvN / 2,
          "adversarial pool is not half malformed, half ill-typed");
  }
  // The request shares are 75/5/10/10 for every seed.
  for (uint64_t Seed : {7, 8}) {
    Rng R(streamSeed(Seed, 0x100));
    std::map<AdmitClass, double> Share;
    constexpr int Draws = 200000;
    for (int I = 0; I < Draws; ++I)
      Share[A.draw(R)] += 1.0 / Draws;
    CHECK(std::abs(Share[AdmitClass::Hot] - 0.75) < 0.01 &&
              std::abs(Share[AdmitClass::HotWasm] - 0.05) < 0.01 &&
              std::abs(Share[AdmitClass::Cold] - 0.10) < 0.01 &&
              std::abs(Share[AdmitClass::Malformed] - 0.10) < 0.01,
          "class shares off for seed %llu",
          static_cast<unsigned long long>(Seed));
  }
  for (unsigned Extra : {0u, ColdLinkProgram::LargeExtra}) {
    ColdLinkProgram C(7, Extra), D(8, Extra);
    CHECK(C.Sources.size() == D.Sources.size() &&
              C.Sources[0].Text.size() == D.Sources[0].Text.size(),
          "cold_link shapes differ");
    CHECK(C.Sources[0].Name != D.Sources[0].Name, "cold_link names unchanged");
  }
  // A large program is the base one with more code in every module.
  ColdLinkProgram Base(7), Large(7, ColdLinkProgram::LargeExtra);
  for (size_t I = 0; I < Base.Sources.size(); ++I)
    CHECK(Large.Sources[I].Text.size() > 2 * Base.Sources[I].Text.size(),
          "large source %zu is not larger", I);
}

void sourcesCompile() {
  for (uint64_t Seed : {7, 8}) {
    for (unsigned Extra : {0u, ColdLinkProgram::LargeExtra}) {
      ColdLinkProgram P(Seed, Extra);
      for (const ColdLinkProgram::Source &S : P.Sources) {
        auto M = S.ML ? ml::compileSource(S.Name, S.Text)
                      : l3::compileSource(S.Name, S.Text);
        CHECK(bool(M), "%s: %s", S.Name.c_str(), M.error().message().c_str());
      }
    }
    InteropKernels K(Seed);
    auto Lib = l3::compileSource("ilib", K.LibSource);
    auto Client = ml::compileSource("iapp", K.ClientSource);
    CHECK(Lib && Client, "interop counter sources do not compile");
  }
}

void payloadsMeetKnownAnswers() {
  AdmitMix M(7, AdvN);
  cache::AdmissionCache Cache(64ull << 20, 8);
  link::LinkOptions LO;
  LO.Engine = wasm::EngineKind::Flat;
  LO.Cache = &Cache;
  std::map<ingest::Category, size_t> Cats;
  std::vector<AdmitPayload> Cold = coldPool(M, ColdN);
  for (const std::vector<AdmitPayload> *Ps :
       {&M.Hot, &M.HotWasm, &Cold, &M.Adv})
    for (size_t I = 0; I < Ps->size(); ++I) {
      const AdmitPayload &Pay = (*Ps)[I];
      std::string Why;
      CHECK(admitAndCheck(Pay, static_cast<uint32_t>(I * 977), LO, Why),
            "%s payload %zu: %s", admitClassName(Pay.Class), I, Why.c_str());
      ++Cats[Pay.Expect];
    }
  // A hot module admitted twice is served from the cache the second time.
  uint64_t Hits = Cache.stats().ProgramHits;
  std::string Why;
  CHECK(admitAndCheck(M.Hot[0], 1, LO, Why), "hot re-admission: %s",
        Why.c_str());
  CHECK(Cache.stats().ProgramHits == Hits + 1, "hot re-admission missed");
  for (ingest::Category C :
       {ingest::Category::BadMagic, ingest::Category::Truncated,
        ingest::Category::Malformed, ingest::Category::Check})
    CHECK(Cats[C] > 0, "no %s payload generated", ingest::categoryName(C));
}

} // namespace

int main() {
  sameSeedSameInputs();
  otherSeedSameShape();
  sourcesCompile();
  payloadsMeetKnownAnswers();
  std::printf("perfbench self-test: %d checks passed\n", Checks);
  return 0;
}
