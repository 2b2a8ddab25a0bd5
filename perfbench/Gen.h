//===- perfbench/Gen.h - Seeded inputs with known answers -------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the three benchmark workloads, generated from one seed,
/// each paired with the answer it must produce. The answers come from the
/// generators' own arithmetic (3·(x + c) for server modules, N(N+1)/2 for
/// the loop kernel, ticks × rate × step for the counter) or from how the
/// payload was built (a truncated container must be rejected as
/// Truncated), never from running the code under test.
///
/// Same seed, same bytes and sources; another seed changes the tags,
/// names and constants but keeps the class shares, pool sizes and module
/// shapes. SelfTest.cpp checks both.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_PERFBENCH_GEN_H
#define RICHWASM_PERFBENCH_GEN_H

#include "bench/Common.h"
#include "bench/ServerMix.h"
#include "ingest/Ingest.h"
#include "serial/Serial.h"
#include "wasm/Binary.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A splitmix64 stream (bench/ServerMix.h) with a few draw helpers.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() { return rwbench::splitmix64(S); }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

/// A stream seed derived from the run seed and a stream label, so every
/// pool and thread draws from its own independent stream.
inline uint64_t streamSeed(uint64_t Seed, uint64_t Label) {
  uint64_t S = Seed * 0x9e3779b97f4a7c15ull ^ (Label + 0x51ed27d3ull);
  return rwbench::splitmix64(S);
}

//===----------------------------------------------------------------------===//
// admit_mix
//===----------------------------------------------------------------------===//

/// Request classes of the admission mix, in the order of their shares.
enum class AdmitClass : uint8_t { Hot, HotWasm, Cold, Malformed, IllTyped };

inline const char *admitClassName(AdmitClass C) {
  switch (C) {
  case AdmitClass::Hot:
    return "hot";
  case AdmitClass::HotWasm:
    return "hot_wasm";
  case AdmitClass::Cold:
    return "cold";
  case AdmitClass::Malformed:
    return "malformed";
  case AdmitClass::IllTyped:
    return "ill_typed";
  }
  return "?";
}

/// One submission and its known verdict. An admissible payload exports
/// `Export` (lowered "module.f0" naming) computing 3·(x + Const) in i32
/// arithmetic; a rejected one must fail with category Expect.
struct AdmitPayload {
  AdmitClass Class = AdmitClass::Hot;
  std::vector<uint8_t> Bytes;
  std::string Export;
  uint32_t Const = 0;
  rw::ingest::Category Expect = rw::ingest::Category::None;

  bool admissible() const { return Expect == rw::ingest::Category::None; }
  uint32_t expected(uint32_t X) const { return 3u * (X + Const); }
};

/// Functions per hot and per cold server module (the c7 shapes).
constexpr unsigned HotFuncs = 3;
constexpr unsigned ColdFuncs = 2;
constexpr unsigned HotModules = 64;

/// The `f0` constant serverModule(Tag, Funcs) bakes in.
inline uint32_t serverConst(uint64_t Tag, unsigned Funcs) {
  return static_cast<uint32_t>((Tag * Funcs) & 0x7fffffff);
}

/// Twelve-digit tags, so names have one width for every seed: hot tags
/// are Base + i, cold tags Base + 2^24 + j (AdmitMix::ColdTags).
inline uint64_t tagBase(uint64_t Seed) {
  return 100'000'000'000ull + streamSeed(Seed, 1) % 400'000'000'000ull;
}

inline AdmitPayload serverPayload(AdmitClass C, uint64_t Tag,
                                  unsigned Funcs) {
  AdmitPayload P;
  P.Class = C;
  P.Bytes = rw::serial::write(rwbench::serverModule(Tag, Funcs));
  P.Export = "srv_" + std::to_string(Tag) + ".f0";
  P.Const = serverConst(Tag, Funcs);
  return P;
}

/// The `\0asm` encoding of a hot module's lowered program: the Wasm route
/// runs the same export with the same answer.
inline AdmitPayload wasmPayload(uint64_t Tag) {
  rw::ir::Module M = rwbench::serverModule(Tag, HotFuncs);
  auto LP = rw::lower::lowerProgram({&M});
  if (!LP)
    throw std::runtime_error("lowering a server module failed: " +
                             LP.error().message());
  AdmitPayload P;
  P.Class = AdmitClass::HotWasm;
  P.Bytes = rw::wasm::encode(LP.take().Module);
  P.Export = "srv_" + std::to_string(Tag) + ".f0";
  P.Const = serverConst(Tag, HotFuncs);
  return P;
}

/// RWBM container layout (serial/Serial.cpp): magic, version, payload
/// length, 64-bit FNV-1a payload checksum.
constexpr size_t RwbmHeaderBytes = 24;

/// A malformed mutant of a well-formed RWBM container whose rejection
/// category follows from how it was built:
///  * a strict prefix is Truncated — or BadMagic when shorter than the
///    four magic bytes the front door needs to sniff the container;
///  * a changed magic byte is BadMagic;
///  * a changed payload byte is Malformed: the payload checksum is a full
///    64-bit FNV-1a, whose steps are bijections, so any one-byte change
///    is always detected.
inline AdmitPayload malformedPayload(const std::vector<uint8_t> &Src,
                                     Rng &R) {
  using rw::ingest::Category;
  AdmitPayload P;
  P.Class = AdmitClass::Malformed;
  P.Bytes = Src;
  switch (R.below(3)) {
  case 0:
    P.Bytes.resize(R.below(static_cast<uint32_t>(Src.size())));
    P.Expect = P.Bytes.size() < 4 ? Category::BadMagic : Category::Truncated;
    break;
  case 1:
    P.Bytes[R.below(4)] ^= static_cast<uint8_t>(1 + R.below(255));
    P.Expect = Category::BadMagic;
    break;
  default:
    P.Bytes[RwbmHeaderBytes +
            R.below(static_cast<uint32_t>(Src.size() - RwbmHeaderBytes))] ^=
        static_cast<uint8_t>(1u << R.below(8));
    P.Expect = Category::Malformed;
    break;
  }
  return P;
}

/// A well-framed module that the capability type system must reject
/// (Category::Check). ML does not check linearity, so these compile; the
/// RichWasm checker catches the duplicated linear reference:
///  * the Fig. 1 stash: `stash` stores its linear argument in a global
///    and also returns it;
///  * a linear reference bound to a second name and returned as well.
inline AdmitPayload illTypedPayload(uint64_t Tag, bool Stash) {
  std::string Src =
      Stash ? std::string(rwbench::MLStashUnsafe)
            : "export fun dup (r : lin (ref int)) : lin (ref int) = "
              "let a = r in r ;;";
  auto M = rw::ml::compileSource(
      (Stash ? "stash_" : "dup_") + std::to_string(Tag), Src);
  if (!M)
    throw std::runtime_error("ill-typed generator failed to compile: " +
                             M.error().message());
  AdmitPayload P;
  P.Class = AdmitClass::IllTyped;
  P.Bytes = rw::serial::write(*M);
  P.Expect = rw::ingest::Category::Check;
  return P;
}

/// Checks an admitted instance against the payload's known answer: the
/// export must return 3·(X + Const). On a mismatch says why in \p Why.
inline bool outputMatches(const AdmitPayload &P, rw::wasm::Instance &Inst,
                          uint32_t X, std::string &Why) {
  auto R = Inst.invokeByName(P.Export, {rw::wasm::WValue::i32(X)});
  if (!R) {
    Why = "invoke failed: " + R.error().message();
    return false;
  }
  if (R->size() != 1 || (*R)[0].asU32() != P.expected(X)) {
    Why = "wrong output for x=" + std::to_string(X);
    return false;
  }
  return true;
}

/// Checks a rejection against the payload's known verdict: an admissible
/// payload must not be rejected, any other must fail with exactly its
/// expected category.
inline bool rejectionMatches(const AdmitPayload &P,
                             const rw::ingest::IngestError &E,
                             std::string &Why) {
  if (P.admissible()) {
    Why = "rejected: " + E.render();
    return false;
  }
  if (E.Cat != P.Expect) {
    Why = std::string("rejected as ") + rw::ingest::categoryName(E.Cat) +
          ", expected " + rw::ingest::categoryName(P.Expect);
    return false;
  }
  return true;
}

/// One admission through the front door, checked end to end: the verdict
/// and, when admitted, the output for argument \p X.
inline bool admitAndCheck(const AdmitPayload &P, uint32_t X,
                          const rw::link::LinkOptions &LO, std::string &Why) {
  rw::ingest::IngestError E;
  auto A = rw::ingest::admit(P.Bytes, rw::ingest::Limits(), LO, &E);
  if (!A)
    return rejectionMatches(P, E, Why);
  if (!P.admissible()) {
    Why = std::string("admitted, expected rejection as ") +
          rw::ingest::categoryName(P.Expect);
    return false;
  }
  return outputMatches(P, *A->instance(), X, Why);
}

/// The admit_mix traffic: 75% zipf re-admissions of 64 hot modules, 5% the
/// same hot modules as `\0asm`, 10% novel cold modules (each submitted
/// once), 10% adversarial (alternately malformed and ill-typed).
struct AdmitMix {
  static constexpr unsigned HotPct = 75, HotWasmPct = 5, ColdPct = 10;
  /// Distinct cold modules: far more than any run submits.
  static constexpr uint64_t ColdTags = 1ull << 24;

  uint64_t Base; ///< tagBase(Seed).
  std::vector<AdmitPayload> Hot;
  std::vector<AdmitPayload> HotWasm;
  std::vector<AdmitPayload> Adv; ///< Even index malformed, odd ill-typed.
  std::vector<double> ZipfCdf;   ///< Over Hot, exponent 1.1.

  AdmitMix(uint64_t Seed, size_t AdvN) : Base(tagBase(Seed)) {
    for (unsigned I = 0; I < HotModules; ++I) {
      Hot.push_back(serverPayload(AdmitClass::Hot, Base + I, HotFuncs));
      HotWasm.push_back(wasmPayload(Base + I));
    }
    double Acc = 0;
    for (unsigned I = 0; I < HotModules; ++I) {
      Acc += 1.0 / std::pow(static_cast<double>(I + 1), 1.1);
      ZipfCdf.push_back(Acc);
    }
    for (double &C : ZipfCdf)
      C /= Acc;
    Rng R(streamSeed(Seed, 2));
    Adv.reserve(AdvN);
    for (size_t K = 0; Adv.size() < AdvN; ++K) {
      if (Adv.size() % 2 == 1) {
        Adv.push_back(illTypedPayload(Base + K, K % 4 == 1));
        continue;
      }
      const std::vector<uint8_t> &Src = Hot[R.below(HotModules)].Bytes;
      AdmitPayload P = malformedPayload(Src, R);
      if (P.Bytes != Src) // A mutant equal to its source has no known verdict.
        Adv.push_back(std::move(P));
    }
  }

  /// The \p J-th novel cold module, built on demand from (seed, J) so no
  /// pool grows with the run's length. Every J < ColdTags is distinct from
  /// every other and from the hot modules.
  AdmitPayload cold(uint64_t J) const {
    if (J >= ColdTags)
      throw std::out_of_range("cold module index out of range");
    return serverPayload(AdmitClass::Cold, Base + ColdTags + J, ColdFuncs);
  }

  /// The class of the next request.
  AdmitClass draw(Rng &R) const {
    uint32_t D = R.below(100);
    if (D < HotPct)
      return AdmitClass::Hot;
    if (D < HotPct + HotWasmPct)
      return AdmitClass::HotWasm;
    if (D < HotPct + HotWasmPct + ColdPct)
      return AdmitClass::Cold;
    return AdmitClass::Malformed; // Adversarial; the pool alternates kinds.
  }

  /// A zipf-ranked hot index.
  size_t zipf(Rng &R) const {
    double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
    size_t Lo = 0, Hi = ZipfCdf.size() - 1;
    while (Lo < Hi) {
      size_t Mid = (Lo + Hi) / 2;
      if (ZipfCdf[Mid] < U)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }
};

//===----------------------------------------------------------------------===//
// cold_link
//===----------------------------------------------------------------------===//

/// One ML client of the cold_link program and its known total: `tick`
/// bumps the library counter `Rate` times by `Step`, so after `Ticks`
/// ticks `total` returns Ticks × Rate × Step.
struct ColdClient {
  std::string Name;
  uint32_t Ticks = 1, Rate = 1, Step = 1;
  /// In a large program: the depth of the client's last `aux` function,
  /// which returns AuxDepth(AuxDepth+1)/2; 0 in a base program.
  uint32_t AuxDepth = 0;
  int32_t expected() const { return static_cast<int32_t>(Ticks * Rate * Step); }
  int32_t auxExpected() const {
    return static_cast<int32_t>(AuxDepth * (AuxDepth + 1) / 2);
  }
};

/// The Fig. 3 scenario at scale: 32 L3 counter libraries (variations of
/// CounterLibL3 with a per-library step) and 32 ML clients (variations of
/// CounterClientML with a per-client library, rate and tick count), in
/// link order libraries first.
///
/// A large program (\p Extra > 0) has the same 64 modules, each with
/// \p Extra more exported functions: a library gets `bumpK` variants with
/// other steps, a client gets `auxK`/`sumK` pairs, where `auxK ()` returns
/// sumK(d) = d(d+1)/2 for a seeded depth d.
struct ColdLinkProgram {
  static constexpr unsigned Libs = 32, Clients = 32;
  /// The Extra of the large program the cold_link workload mixes in.
  static constexpr unsigned LargeExtra = 6;

  struct Source {
    std::string Name;
    std::string Text;
    bool ML = false;
  };
  std::vector<Source> Sources;
  std::vector<ColdClient> Expect;

  explicit ColdLinkProgram(uint64_t Seed, unsigned Extra = 0) {
    Rng R(streamSeed(Seed, 3));
    uint64_t Salt = streamSeed(Seed, 4) % 900'000 + 100'000; // six digits
    std::vector<uint32_t> Steps;
    for (unsigned I = 0; I < Libs; ++I) {
      uint32_t Step = 1 + R.below(3);
      Steps.push_back(Step);
      Sources.push_back({"lib" + std::to_string(Salt) + "_" +
                             std::to_string(100 + I),
                         libSource(Step) + libExtra(Extra, Step), false});
    }
    for (unsigned I = 0; I < Clients; ++I) {
      unsigned Lib = R.below(Libs);
      ColdClient C;
      C.Name = "app" + std::to_string(Salt) + "_" + std::to_string(100 + I);
      C.Rate = 1 + R.below(4);
      C.Ticks = 1 + R.below(4);
      C.Step = Steps[Lib];
      std::string Text = clientSource(Sources[Lib].Name, C.Rate);
      for (unsigned K = 0; K < Extra; ++K) {
        C.AuxDepth = 8 + R.below(8);
        Text += clientAux(K, C.AuxDepth);
      }
      Sources.push_back({C.Name, std::move(Text), true});
      Expect.push_back(C);
    }
  }

  /// The name of the last `aux` function of a client of a large program.
  static std::string auxName(unsigned Extra) {
    return "aux" + std::to_string(Extra - 1);
  }

  static std::string libSource(uint32_t Step) {
    return "export fun make (n : int) : Ref int = join (new n) ;;"
           "export fun bump (r : Ref int) : Ref int = "
           "  let (old, c) = swap (split r) 0 in "
           "  let (z, c2) = swap c (old + " +
           std::to_string(Step) +
           ") in "
           "  join c2 ;;"
           "export fun finish (r : Ref int) : int = free (split r) ;;";
  }

  static std::string libExtra(unsigned Extra, uint32_t Step) {
    std::string Out;
    for (unsigned K = 0; K < Extra; ++K)
      Out += "export fun bump" + std::to_string(K) +
             " (r : Ref int) : Ref int = "
             "  let (old, c) = swap (split r) 0 in "
             "  let (z, c2) = swap c (old + " +
             std::to_string(Step + K + 1) +
             ") in "
             "  join c2 ;;";
    return Out;
  }

  static std::string clientAux(unsigned K, uint32_t Depth) {
    std::string N = std::to_string(K);
    return "fun sum" + N + " (n : int) : int = "
           "  if n = 0 then 0 else n + sum" + N + " (n - 1) ;;"
           "export fun aux" + N + " (u : unit) : int = sum" + N + " " +
           std::to_string(Depth) + " ;;";
  }

  static std::string clientSource(const std::string &Lib, uint32_t Rate) {
    return "import " + Lib + ".make : int -> lin (ref int) ;;"
           "import " + Lib + ".bump : lin (ref int) -> lin (ref int) ;;"
           "import " + Lib + ".finish : lin (ref int) -> int ;;"
           "global cell = linref [ref int] () ;;"
           "global rate = ref " + std::to_string(Rate) + " ;;"
           "export fun init (u : unit) : unit = cell := make 0 ;;"
           "fun ntimes (n : int) : unit = "
           "  if n = 0 then () else (cell := bump !cell; ntimes (n - 1)) ;;"
           "export fun tick (u : unit) : unit = ntimes !rate ;;"
           "export fun total (u : unit) : int = finish !cell ;;";
  }
};

//===----------------------------------------------------------------------===//
// run_interop
//===----------------------------------------------------------------------===//

/// The run_interop kernels and their known answers. The seed changes the
/// loop bound by under 0.2% and the counter step (which costs nothing),
/// so every seed does the same work. The sizes keep the kernels' latencies
/// apart — counter_tick < gc_churn < loop < lin_churn, each about twice
/// the one before — which the invocation cycle in Main.cpp relies on.
struct InteropKernels {
  int32_t LoopN;     ///< loopModule(LoopN).main() = LoopN(LoopN+1)/2.
  int32_t LinN;      ///< allocModule(LinN, linear): LinN malloc/free pairs.
  int32_t GcN;       ///< allocModule(GcN, unrestricted): GcN garbage cells.
  uint32_t GcEvery;  ///< HostGc::collect after every GcEvery-th gc op,
                     ///< which must sweep exactly GcEvery × GcN cells.
  uint32_t CounterRate;  ///< Bumps per counter tick.
  uint32_t CounterStep;  ///< Counter increment per bump.
  uint32_t CounterCheck; ///< Ticks between `total` checks.
  std::string LibSource, ClientSource;

  explicit InteropKernels(uint64_t Seed) {
    Rng R(streamSeed(Seed, 5));
    LoopN = 5600 + static_cast<int32_t>(R.below(8));
    LinN = 400;
    GcN = 150;
    GcEvery = 6;
    CounterRate = 12;
    CounterStep = 1 + R.below(3);
    CounterCheck = 64;
    LibSource = ColdLinkProgram::libSource(CounterStep);
    ClientSource = ColdLinkProgram::clientSource("ilib", CounterRate);
  }

  uint32_t loopExpected() const {
    uint64_t N = static_cast<uint64_t>(LoopN);
    return static_cast<uint32_t>(N * (N + 1) / 2);
  }
  int32_t counterExpected() const {
    return static_cast<int32_t>(CounterCheck * CounterRate * CounterStep);
  }
};

} // namespace perfbench

#endif // RICHWASM_PERFBENCH_GEN_H
