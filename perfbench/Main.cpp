//===- perfbench/Main.cpp - The repository benchmark program --------------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload through the public API and prints its metrics:
///
///   perfbench --workload admit_mix|cold_link|run_interop --seed N
///             --seconds S --trace 0|1 [--trace-out FILE]
///
/// --trace 0 times the named workload with nothing recorded and reports
/// the end-to-end metrics. --trace 1 is the separate traced run: it breaks
/// down all three workloads (S/3 seconds each, half untraced for
/// reference, half traced), so every per-layer metric is present in every
/// traced run, and writes the spans to FILE. Every op is checked against
/// its known answer (Gen.h); failures are printed with their class and
/// seed index. The last stdout line is the JSON result; the line before
/// it records the host and build. README.md lists every metric.
///
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Trace.h"

#include "cache/AdmissionCache.h"
#include "exec/Engine.h"
#include "exec/Translate.h"
#include "lower/Runtime.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "wasm/Validate.h"

#include <sched.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

using namespace rw;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Run-wide bookkeeping
//===----------------------------------------------------------------------===//

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Moves a measuring thread across every CPU the process may use, to the
/// next one every HopNs. On a shared host each CPU's speed drifts on its
/// own over seconds to minutes (co-tenants on its sibling hyperthread come
/// and go); visiting all of them makes every run average over the same
/// CPUs instead of sampling the one the scheduler happened to pick.
/// Threads with different \p Offset are on different CPUs at any instant.
/// The destructor restores the original affinity, so threads spawned
/// later (thread pools) are not confined.
class CpuRotation {
public:
  static constexpr uint64_t HopNs = 200'000'000;

  explicit CpuRotation(unsigned Offset) : Offset(Offset) {
    sched_getaffinity(0, sizeof(Saved), &Saved);
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved))
        Cpus.push_back(C);
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof(Saved), &Saved); }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void tick(uint64_t Now) {
    if (Now < NextHop || Cpus.size() < 2)
      return;
    uint64_t Slot = Now / HopNs;
    NextHop = (Slot + 1) * HopNs;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[(Slot + Offset) % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  unsigned Offset;
  cpu_set_t Saved;
  std::vector<int> Cpus;
  uint64_t NextHop = 0;
};

/// Peak resident memory of this process image. VmHWM, not ru_maxrss:
/// Linux carries the parent's high-water mark across fork+exec into
/// ru_maxrss, so a launcher's own memory would leak into the figure.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return std::nan("");
  char Line[256];
  double Kb = std::nan("");
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return Kb / 1024.0;
}

double secondsSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e9;
}

/// A fixed host-speed probe: a dependent integer chain of fixed length
/// timed on every CPU the process may use (best of three on each), then
/// the median over the CPUs, in ms. Taken before the set-ups and after the
/// measured phase and recorded in the context line, so runs made in
/// different host states can be told apart from a change in the program.
double calibrationMs() {
  cpu_set_t Saved;
  sched_getaffinity(0, sizeof(Saved), &Saved);
  std::vector<double> PerCpu;
  for (int C = 0; C < CPU_SETSIZE; ++C) {
    if (!CPU_ISSET(C, &Saved))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(C, &One);
    sched_setaffinity(0, sizeof(One), &One);
    double Best = 1e300;
    for (int Rep = 0; Rep < 3; ++Rep) {
      uint64_t T0 = nowNs(), X = static_cast<uint64_t>(C) + 1;
      for (uint32_t I = 0; I < 4'000'000; ++I)
        X = (X ^ (X >> 29)) * 0xbf58476d1ce4e5b9ull + I;
      volatile uint64_t Sink = X;
      (void)Sink;
      Best = std::min(Best, static_cast<double>(nowNs() - T0) / 1e6);
    }
    PerCpu.push_back(Best);
  }
  sched_setaffinity(0, sizeof(Saved), &Saved);
  return quantile(PerCpu, 0.5);
}

/// Ticks of the whole machine from the aggregate line of /proc/stat:
/// {stolen by the hypervisor, all}. Runs made during host steal are
/// slower throughout, so the context line records the share of the run it
/// took.
std::pair<double, double> stealTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return {std::nan(""), std::nan("")};
  double Field[8] = {};
  int N = std::fscanf(F, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &Field[0],
                      &Field[1], &Field[2], &Field[3], &Field[4], &Field[5],
                      &Field[6], &Field[7]);
  std::fclose(F);
  if (N != 8)
    return {std::nan(""), std::nan("")};
  double All = 0;
  for (double V : Field)
    All += V;
  return {Field[7], All};
}

/// Extra numeric fields of the context line, in order.
std::vector<std::pair<std::string, double>> Context;

/// Every checked op of the run — setup, warm-up, timed and traced — and
/// the ones that failed. The first failures are printed with their
/// workload, class and seed index.
class Tally {
public:
  void ok() { Attempted.fetch_add(1, std::memory_order_relaxed); }
  void fail(const char *Workload, const char *Class, uint64_t Index,
            const std::string &Why) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    uint64_t N = Failed.fetch_add(1, std::memory_order_relaxed);
    if (N < 50) {
      std::lock_guard<std::mutex> G(PrintMutex);
      std::fprintf(stderr, "FAIL %s class=%s index=%llu: %s\n", Workload,
                   Class, static_cast<unsigned long long>(Index),
                   Why.c_str());
    }
  }
  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return Failed.load(); }

private:
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  std::mutex PrintMutex;
};

Tally Ops;

/// Metrics in emission order.
struct Metrics {
  struct M {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<M> All;
  void add(std::string Name, double Value, std::string Unit) {
    All.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// One thread's op latencies, kept as a uniform sample of at most Cap ops
/// (reservoir sampling): the benchmark's own memory then stays fixed
/// whatever the throughput, so peak_rss_mb measures the program.
struct Latencies {
  static constexpr size_t Cap = 1 << 17;
  std::vector<double> Us;
  uint64_t Ops = 0;
  uint64_t Rng = 0x5eed;

  void add(uint64_t T0) {
    double V = static_cast<double>(nowNs() - T0) / 1e3;
    if (++Ops <= Cap)
      Us.push_back(V);
    else if (uint64_t J = rwbench::splitmix64(Rng) % Ops; J < Cap)
      Us[J] = V;
  }
};

/// Latencies and throughput of one measured phase.
struct Phase {
  std::vector<double> LatUs;
  double OpsPerS = 0; ///< Summed over threads.

  /// Adds one thread's ops, which took \p OpS seconds of its time.
  void merge(const Latencies &L, double OpS) {
    LatUs.insert(LatUs.end(), L.Us.begin(), L.Us.end());
    OpsPerS += static_cast<double>(L.Ops) / OpS;
  }
  double p50() const {
    std::vector<double> V = LatUs;
    return quantile(V, 0.5);
  }
};

/// The end-to-end metrics of a timed phase (README.md).
void endToEnd(Metrics &Out, const Phase &P, double SetupS) {
  Out.add("ops_per_s", P.OpsPerS, "1/s");
  std::vector<double> V = P.LatUs;
  Out.add("op_p50_us", quantile(V, 0.5), "us");
  if (tailHasTen(V.size(), 0.99))
    Out.add("op_p99_us", quantile(V, 0.99), "us");
  else
    std::fprintf(stderr, "note: %zu ops leave fewer than 10 beyond p99; "
                         "op_p99_us not reported\n",
                 V.size());
  Out.add("setup_s", SetupS, "s");
  Out.add("peak_rss_mb", peakRssMb(), "MB");
}

/// Runs op \p Op(0), Op(1), ... back to back on this thread for
/// \p Seconds, timing each.
template <class F> Phase runSerial(double Seconds, F Op) {
  Phase P;
  Latencies Lat;
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  CpuRotation Rot(0);
  for (uint64_t K = 0;; ++K) {
    uint64_t T0 = nowNs();
    if (T0 >= Deadline)
      break;
    Rot.tick(T0);
    Op(K);
    Lat.add(T0);
  }
  P.merge(Lat, secondsSince(Start));
  return P;
}

/// Runs \p Setup \p Reps times, keeps the last state, and returns the
/// median set-up time.
template <class S, class F> double timedSetups(unsigned Reps, S &Keep, F Setup) {
  std::vector<double> T;
  for (unsigned R = 0; R < Reps; ++R) {
    Keep.reset(); // Free the previous state before building the next.
    uint64_t T0 = nowNs();
    Keep = Setup();
    T.push_back(secondsSince(T0));
  }
  return quantile(T, 0.5);
}

/// The shipping admission path — link::instantiateLowered — or, when
/// traced, the same phases called one by one so each gets its own span:
/// resolve, lower, validate, translate, then instance creation (on Jit,
/// initialize() is where every function is compiled to native code).
template <class T>
Expected<link::LoweredInstance>
admitLowered(const std::vector<const ir::Module *> &Mods,
             const link::LinkOptions &LO, T &Tr) {
  if constexpr (!T::On) {
    return link::instantiateLowered(Mods, LO);
  } else {
    auto Res = Tr.span("link.resolve", [&] {
      return link::resolveImports(
          Mods, link::ResolveOptions{LO.Resolution,
                                     /*AllowUnresolvedFuncs=*/true});
    });
    if (!Res)
      return Res.error();
    lower::LowerOptions LowO;
    LowO.Resolved = &*Res;
    LowO.Infos = LO.Infos;
    LowO.Pool = LO.Pool;
    auto LP = Tr.span("lower.lower",
                      [&] { return lower::lowerProgram(Mods, LowO); });
    if (!LP)
      return LP.error();
    auto Art = std::make_shared<cache::LoweredArtifact>();
    Art->Program = LP.take();
    Status V = Tr.span("wasm.validate",
                       [&] { return wasm::validate(Art->Program.Module); });
    if (!V)
      return V.error().addContext("lowered module validation");
    auto FM = Tr.span("exec.translate",
                      [&] { return exec::translate(Art->Program.Module); });
    if (!FM)
      return FM.error().addContext("flat translation");
    Art->Flat = FM.take();
    auto FI =
        std::make_unique<exec::FlatInstance>(Art->Program.Module, LO.Engine);
    FI->adoptPretranslated(
        std::shared_ptr<const exec::FlatModule>(Art, &Art->Flat));
    Status I = Tr.span(
        LO.Engine == wasm::EngineKind::Jit ? "jit.compile" : "exec.instantiate",
        [&] { return FI->initialize(LO.RunStart); });
    if (!I)
      return I.error();
    return link::LoweredInstance{
        std::shared_ptr<const lower::LoweredProgram>(Art, &Art->Program),
        std::move(FI)};
  }
}

/// Calls a unit-taking export and returns its i32 result.
template <class T>
Expected<int32_t> call(wasm::Instance &I, const std::string &Name, T &Tr,
                       const char *SpanName = "exec.invoke") {
  auto R = Tr.span(SpanName, [&] {
    return I.invokeByName(Name, {wasm::WValue::i32(0)});
  });
  if (!R)
    return R.error();
  return R->empty() ? 0 : static_cast<int32_t>((*R)[0].asU32());
}

//===----------------------------------------------------------------------===//
// admit_mix
//===----------------------------------------------------------------------===//

constexpr unsigned AdmitClients = 2;
constexpr size_t AdmitWarmupOps = 2000;

struct AdmitState {
  uint64_t Seed;
  AdmitMix Mix;
  cache::AdmissionCache Cache{64ull << 20, 8};
  link::LinkOptions LO;
  std::atomic<uint64_t> ColdNext{0}, AdvNext{0};
  /// Rejections by category in the traced phase.
  std::atomic<uint64_t> Rejects[16] = {};

  explicit AdmitState(uint64_t Seed) : Seed(Seed), Mix(Seed, 4096) {
    LO.Engine = wasm::EngineKind::Flat;
    LO.Cache = &Cache;
  }
};

/// One admission of \p P, checked. Untraced: the front door,
/// ingest::admit. Traced: the same route called layer by layer —
/// a private ir::TypeArena, serial::read into it, typing::checkModule, then
/// link::instantiateLowered with the InfoMap handed over (RWBM), or
/// wasm::decode, wasm::validate and instance creation (`\0asm`).
/// Rejections stay one ingest::admit call.
template <class T>
bool admitPayload(AdmitState &S, const AdmitPayload &P, uint32_t X, T &Tr,
                  std::string &Why) {
  if constexpr (!T::On) {
    return admitAndCheck(P, X, S.LO, Why);
  } else {
    if (!P.admissible()) {
      ingest::IngestError E;
      auto A = Tr.span("ingest.reject", [&] {
        return ingest::admit(P.Bytes, ingest::Limits(), S.LO, &E);
      });
      if (A) {
        Why = "admitted, expected a rejection";
        return false;
      }
      S.Rejects[static_cast<unsigned>(E.Cat) % 16].fetch_add(1);
      return rejectionMatches(P, E, Why);
    }
    if (P.Class == AdmitClass::HotWasm) {
      ingest::Limits L;
      auto M = Tr.span("wasm.decode", [&] { return wasm::decode(P.Bytes, L); });
      if (!M) {
        Why = "decode: " + M.error().message();
        return false;
      }
      Status V = Tr.span("wasm.validate",
                         [&] { return wasm::validate(*M, L.MaxOperandDepth); });
      if (!V) {
        Why = "validate: " + V.error().message();
        return false;
      }
      std::unique_ptr<wasm::Instance> Inst;
      Status I = Tr.span("exec.instantiate", [&] {
        Inst = wasm::createInstance(*M, S.LO.Engine);
        return Inst->initialize(S.LO.RunStart);
      });
      if (!I) {
        Why = "instantiate: " + I.error().message();
        return false;
      }
      return Tr.span("exec.invoke",
                     [&] { return outputMatches(P, *Inst, X, Why); });
    }
    auto Arena = Tr.span("ir.arena_new",
                         [] { return std::make_shared<ir::TypeArena>(); });
    auto M = Tr.span("serial.read", [&] { return serial::read(P.Bytes, Arena); });
    if (!M) {
      Why = "read: " + M.error().message();
      return false;
    }
    std::vector<typing::InfoMap> Infos(1);
    Status C = Tr.span("typing.check",
                       [&] { return typing::checkModule(*M, &Infos[0]); });
    if (!C) {
      Why = "check: " + C.error().message();
      return false;
    }
    link::LinkOptions LO = S.LO;
    LO.Infos = &Infos;
    auto LI = Tr.span(P.Class == AdmitClass::Hot ? "link.instantiate_hot"
                                                 : "link.instantiate_cold",
                      [&] { return link::instantiateLowered({&*M}, LO); });
    if (!LI) {
      Why = "instantiate: " + LI.error().message();
      return false;
    }
    return Tr.span("exec.invoke",
                   [&] { return outputMatches(P, *LI->Instance, X, Why); });
  }
}

/// One drawn request: its payload, seed index and argument.
struct AdmitRequest {
  const AdmitPayload *P = nullptr;
  uint64_t Index = 0;
  uint32_t X = 0;
  AdmitPayload ColdBuf; ///< The payload of a cold request, built on draw.
};

/// Draws the next request of the mix. A cold request's module is built
/// here, before the op's clock starts.
void drawRequest(AdmitState &S, Rng &R, AdmitRequest &Q) {
  switch (S.Mix.draw(R)) {
  case AdmitClass::Hot:
    Q.Index = S.Mix.zipf(R);
    Q.P = &S.Mix.Hot[Q.Index];
    break;
  case AdmitClass::HotWasm:
    Q.Index = S.Mix.zipf(R);
    Q.P = &S.Mix.HotWasm[Q.Index];
    break;
  case AdmitClass::Cold:
    Q.Index = S.ColdNext.fetch_add(1, std::memory_order_relaxed);
    Q.ColdBuf = S.Mix.cold(Q.Index);
    Q.P = &Q.ColdBuf;
    break;
  default:
    Q.Index = S.AdvNext.fetch_add(1, std::memory_order_relaxed) % S.Mix.Adv.size();
    Q.P = &S.Mix.Adv[Q.Index];
    break;
  }
  Q.X = R.below(1u << 16);
}

/// Runs and checks one drawn request.
template <class T>
void admitOp(AdmitState &S, const AdmitRequest &Q, uint64_t OpId, T &Tr) {
  std::string Why;
  Tr.beginOp(OpId, static_cast<uint8_t>(Q.P->Class));
  bool Ok = admitPayload(S, *Q.P, Q.X, Tr, Why);
  Tr.endOp();
  if (Ok)
    Ops.ok();
  else
    Ops.fail("admit_mix", admitClassName(Q.P->Class), Q.Index, Why);
}

std::unique_ptr<AdmitState> setupAdmit(uint64_t Seed) {
  auto S = std::make_unique<AdmitState>(Seed);
  // The hot set is admitted once, so the timed hot share re-admits.
  for (size_t I = 0; I < S->Mix.Hot.size(); ++I) {
    std::string Why;
    if (admitAndCheck(S->Mix.Hot[I], static_cast<uint32_t>(I), S->LO, Why))
      Ops.ok();
    else
      Ops.fail("admit_mix", "hot_setup", I, Why);
  }
  Rng R(streamSeed(Seed, 0x50));
  NoTrace N;
  AdmitRequest Q;
  for (size_t K = 0; K < AdmitWarmupOps; ++K) {
    drawRequest(*S, R, Q);
    admitOp(*S, Q, K, N);
  }
  return S;
}

/// Runs the closed loop: each client sends its next request when the
/// previous verdict is back, until \p Seconds have passed. A client's
/// throughput counts only the time it spends on ops, not on drawing and
/// building requests.
template <class T>
Phase runAdmit(AdmitState &S, double Seconds, unsigned PhaseId,
               std::vector<T> &Tracers) {
  unsigned Clients = static_cast<unsigned>(Tracers.size());
  std::vector<Latencies> Lat(Clients);
  std::vector<uint64_t> DrawNs(Clients, 0);
  std::atomic<bool> Go{false};
  uint64_t Deadline = 0;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      Rng R(streamSeed(S.Seed, 0x100 + PhaseId * 16 + C));
      CpuRotation Rot(C);
      AdmitRequest Q;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (uint64_t K = 0;; ++K) {
        uint64_t D0 = nowNs();
        if (D0 >= Deadline)
          break;
        Rot.tick(D0);
        drawRequest(S, R, Q);
        uint64_t T0 = nowNs();
        DrawNs[C] += T0 - D0;
        admitOp(S, Q, K, Tracers[C]);
        Lat[C].add(T0);
      }
    });
  uint64_t Start = nowNs();
  Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  Go.store(true, std::memory_order_release);
  for (std::thread &Th : Threads)
    Th.join();
  double WallS = secondsSince(Start);
  Phase P;
  for (unsigned C = 0; C < Clients; ++C)
    P.merge(Lat[C], WallS - static_cast<double>(DrawNs[C]) / 1e9);
  return P;
}

unsigned admitClients() { return std::min(AdmitClients, nproc()); }

//===----------------------------------------------------------------------===//
// cold_link
//===----------------------------------------------------------------------===//

constexpr size_t ColdLinkWarmupOps = 8;
/// Every ColdLinkLargeEvery-th op admits the large program, whose modules
/// carry ColdLinkProgram::LargeExtra more functions each. Without it every op does
/// the same work and op_p99_us only measures host stalls; with a fixed 2%
/// share of large programs the p99 is about the median of that class and
/// moves with the cost of a large cold admission.
constexpr uint64_t ColdLinkLargeEvery = 50;

struct ColdLinkState {
  ColdLinkProgram Prog, Large;
  support::ThreadPool Pool;
  /// The lowered base program of the last warm-up op (for the size counts).
  std::shared_ptr<const lower::LoweredProgram> Lowered;

  ColdLinkState(uint64_t Seed, unsigned Threads)
      : Prog(Seed), Large(streamSeed(Seed, 9), ColdLinkProgram::LargeExtra),
        Pool(Threads) {}

  const ColdLinkProgram &program(uint64_t OpId) const {
    return OpId % ColdLinkLargeEvery == ColdLinkLargeEvery - 1 ? Large : Prog;
  }
};

/// The ThreadPool participants: the calling thread plus two workers.
unsigned coldLinkThreads() { return std::min(3u, nproc()); }

/// One cold multi-language admission of \p P: compile the 64 sources,
/// check them as a batch on the pool, admit the link set on the Flat
/// engine with the InfoMaps and pool handed over (no cache), then run every
/// client and check its total (and, in a large program, its last `aux`).
template <class T>
bool coldLinkOp(ColdLinkState &S, const ColdLinkProgram &P, T &Tr,
                std::string &Why,
                std::shared_ptr<const lower::LoweredProgram> *Keep = nullptr) {
  std::vector<ir::Module> Mods;
  Mods.reserve(P.Sources.size());
  for (const ColdLinkProgram::Source &Src : P.Sources) {
    auto M = Src.ML ? Tr.span("ml.compile",
                              [&] { return ml::compileSource(Src.Name, Src.Text); })
                    : Tr.span("l3.compile", [&] {
                        return l3::compileSource(Src.Name, Src.Text);
                      });
    if (!M) {
      Why = "compile " + Src.Name + ": " + M.error().message();
      return false;
    }
    Mods.push_back(M.take());
  }
  std::vector<const ir::Module *> Ptrs;
  for (const ir::Module &M : Mods)
    Ptrs.push_back(&M);
  std::vector<typing::InfoMap> Infos;
  std::vector<Status> Checks = Tr.span("typing.check_batch", [&] {
    return typing::checkModules(Ptrs, S.Pool, &Infos);
  });
  for (size_t I = 0; I < Checks.size(); ++I)
    if (!Checks[I]) {
      Why = "check " + Mods[I].Name + ": " + Checks[I].error().message();
      return false;
    }
  link::LinkOptions LO;
  LO.Engine = wasm::EngineKind::Flat;
  LO.Infos = &Infos;
  LO.Pool = &S.Pool;
  auto LI = admitLowered(Ptrs, LO, Tr);
  if (!LI) {
    Why = "admit: " + LI.error().message();
    return false;
  }
  for (const ColdClient &C : P.Expect) {
    bool Ok = bool(call(*LI->Instance, C.Name + ".init", Tr));
    for (uint32_t K = 0; Ok && K < C.Ticks; ++K)
      Ok = bool(call(*LI->Instance, C.Name + ".tick", Tr));
    auto Total = call(*LI->Instance, C.Name + ".total", Tr);
    if (!Ok || !Total || *Total != C.expected()) {
      Why = C.Name + ": total " +
            (Total ? std::to_string(*Total) : Total.error().message()) +
            ", expected " + std::to_string(C.expected());
      return false;
    }
    if (C.AuxDepth == 0)
      continue;
    auto Aux = call(*LI->Instance,
                    C.Name + "." + ColdLinkProgram::auxName(ColdLinkProgram::LargeExtra),
                    Tr);
    if (!Aux || *Aux != C.auxExpected()) {
      Why = C.Name + ": aux " +
            (Aux ? std::to_string(*Aux) : Aux.error().message()) +
            ", expected " + std::to_string(C.auxExpected());
      return false;
    }
  }
  if (Keep)
    *Keep = LI->Program;
  return true;
}

template <class T> void coldLinkCheckedOp(ColdLinkState &S, uint64_t OpId, T &Tr) {
  std::string Why;
  Tr.beginOp(OpId, 0);
  bool Ok = coldLinkOp(S, S.program(OpId), Tr, Why);
  Tr.endOp();
  if (Ok)
    Ops.ok();
  else
    Ops.fail("cold_link", &S.program(OpId) == &S.Large ? "large" : "base",
             OpId, Why);
}

std::unique_ptr<ColdLinkState> setupColdLink(uint64_t Seed) {
  auto S = std::make_unique<ColdLinkState>(Seed, coldLinkThreads());
  NoTrace N;
  for (size_t K = 0; K < ColdLinkWarmupOps; ++K) {
    std::string Why;
    // Large first, so the last warm-up op leaves the base program's sizes.
    bool Large = K < 2;
    if (coldLinkOp(*S, Large ? S->Large : S->Prog, N, Why, &S->Lowered))
      Ops.ok();
    else
      Ops.fail("cold_link", Large ? "warmup-large" : "warmup", K, Why);
  }
  return S;
}

template <class T> Phase runColdLink(ColdLinkState &S, double Seconds, T &Tr) {
  return runSerial(Seconds, [&](uint64_t K) { coldLinkCheckedOp(S, K, Tr); });
}

//===----------------------------------------------------------------------===//
// run_interop
//===----------------------------------------------------------------------===//

enum Kernel : uint8_t { KLoop, KLinChurn, KGcChurn, KCounterTick };
/// The fixed invocation cycle. Kernel sizes (Gen.h) put counter_tick and
/// gc_churn below loop and lin_churn above it; with loop on half the slots
/// and a quarter on each side, the op median is the median of the loop
/// cluster, so run_interop op_p50_us measures `loop` alone (the other
/// kernels move ops_per_s and op_p99_us). A median on the gap between two
/// clusters would jump between them, and one near a cluster's edge would
/// swing with how long the host spends in its fast and slow states.
/// setupInterop checks the order on the warm-up latencies.
constexpr Kernel Cycle[] = {KLoop, KCounterTick, KLoop, KLinChurn,
                            KLoop, KGcChurn,     KLoop, KLinChurn};
constexpr size_t CycleLen = sizeof(Cycle) / sizeof(Cycle[0]);

const char *kernelName(unsigned K) {
  static const char *Names[] = {"loop", "lin_churn", "gc_churn",
                                "counter_tick"};
  return Names[K % 4];
}
constexpr size_t InteropWarmupCycles = 1500;

struct InteropState {
  InteropKernels K;
  ir::Module Loop, Lin, Gc, Lib, Client;
  link::LoweredInstance ILoop, ILin, IGc, ICounter;
  std::unique_ptr<lower::HostGc> Collector;
  uint32_t LinLive = 0; ///< Live allocations of the linear kernel at rest.
  uint64_t GcOps = 0, Ticks = 0;
  std::vector<double> Swept; ///< Cells swept by each collection.
  bool ClustersOrdered = false; ///< Warm-up medians in Cycle's order.

  explicit InteropState(uint64_t Seed)
      : K(Seed), Loop(rwbench::loopModule(K.LoopN)),
        Lin(rwbench::allocModule(K.LinN, /*Linear=*/true)),
        Gc(rwbench::allocModule(K.GcN, /*Linear=*/false)) {}
};

/// One invocation of the cycle's kernel for \p OpId, checked against its
/// known answer.
template <class T> void interopOp(InteropState &S, uint64_t OpId, T &Tr) {
  unsigned Kern = Cycle[OpId % CycleLen];
  std::string Why;
  Tr.beginOp(OpId, static_cast<uint8_t>(Kern));
  switch (Kern) {
  case KLoop: {
    auto R = call(*S.ILoop.Instance, "loopmod.main", Tr, "exec.loop");
    if (!R || static_cast<uint32_t>(*R) != S.K.loopExpected())
      Why = "loop sum wrong";
    break;
  }
  case KLinChurn: {
    auto R = call(*S.ILin.Instance, "allocmod.main", Tr, "exec.lin_churn");
    uint32_t Live = S.ILin.Instance->global(S.ILin.Program->Runtime.GLive).asU32();
    if (!R || *R != 0 || Live != S.LinLive)
      Why = "linear churn leaked or failed";
    break;
  }
  case KGcChurn: {
    auto R = call(*S.IGc.Instance, "allocmod.main", Tr, "exec.gc_churn");
    if (!R || *R != 0) {
      Why = "gc churn failed";
      break;
    }
    if (++S.GcOps % S.K.GcEvery == 0) {
      auto St = Tr.span("lower.gc_collect", [&] { return S.Collector->collect(); });
      S.Swept.push_back(static_cast<double>(St.Swept));
      if (St.Swept != uint64_t(S.K.GcEvery) * uint64_t(S.K.GcN))
        Why = "collection swept " + std::to_string(St.Swept) + " cells";
    }
    break;
  }
  default: {
    auto R = call(*S.ICounter.Instance, "iapp.tick", Tr, "exec.counter_tick");
    if (!R) {
      Why = "tick failed";
      break;
    }
    if (++S.Ticks % S.K.CounterCheck == 0) {
      auto Total = call(*S.ICounter.Instance, "iapp.total", Tr);
      if (!Total || *Total != S.K.counterExpected())
        Why = "counter total wrong";
      else if (!call(*S.ICounter.Instance, "iapp.init", Tr))
        Why = "counter re-init failed";
    }
    break;
  }
  }
  Tr.endOp();
  if (Why.empty())
    Ops.ok();
  else
    Ops.fail("run_interop", kernelName(Kern), OpId, Why);
}

/// Admits the four kernel programs on the Jit engine (every function
/// compiled to native code at instantiation), then warms them up.
template <class T>
std::unique_ptr<InteropState> setupInterop(uint64_t Seed, T &Tr) {
  auto S = std::make_unique<InteropState>(Seed);
  auto Lib = l3::compileSource("ilib", S->K.LibSource);
  auto Client = ml::compileSource("iapp", S->K.ClientSource);
  if (!Lib || !Client) {
    Ops.fail("run_interop", "setup", 0, "counter sources do not compile");
    return nullptr;
  }
  S->Lib = Lib.take();
  S->Client = Client.take();
  link::LinkOptions LO;
  LO.Engine = wasm::EngineKind::Jit;
  struct Prog {
    std::vector<const ir::Module *> Mods;
    link::LoweredInstance *Into;
  } Progs[] = {{{&S->Loop}, &S->ILoop},
               {{&S->Lin}, &S->ILin},
               {{&S->Gc}, &S->IGc},
               {{&S->Lib, &S->Client}, &S->ICounter}};
  for (unsigned I = 0; I < 4; ++I) {
    auto LI = admitLowered(Progs[I].Mods, LO, Tr);
    if (!LI) {
      Ops.fail("run_interop", kernelName(I), 0,
               "admission failed: " + LI.error().message());
      return nullptr;
    }
    *Progs[I].Into = LI.take();
  }
  S->Collector = std::make_unique<lower::HostGc>(
      *S->IGc.Instance, S->IGc.Program->Runtime, S->IGc.Program->RefGlobals);
  S->LinLive = S->ILin.Instance->global(S->ILin.Program->Runtime.GLive).asU32();
  NoTrace N;
  if (!call(*S->ICounter.Instance, "iapp.init", N)) {
    Ops.fail("run_interop", "setup", 0, "counter init failed");
    return nullptr;
  }
  std::vector<double> WarmUs[4];
  for (uint64_t K = 0; K < InteropWarmupCycles * CycleLen; ++K) {
    uint64_t T0 = nowNs();
    interopOp(*S, K, N);
    WarmUs[Cycle[K % CycleLen]].push_back(static_cast<double>(nowNs() - T0) /
                                          1e3);
  }
  // The cycle needs counter_tick < gc_churn < loop < lin_churn; when a
  // change to the program breaks that order, op_p50_us no longer sits in
  // the middle of the loop cluster and the cycle has to be re-weighted.
  double Med[4];
  for (unsigned K = 0; K < 4; ++K)
    Med[K] = quantile(WarmUs[K], 0.5);
  bool Ordered = Med[KCounterTick] < Med[KGcChurn] && Med[KGcChurn] < Med[KLoop] &&
                 Med[KLoop] < Med[KLinChurn];
  if (!Ordered)
    std::fprintf(stderr,
                 "note: run_interop kernel medians are out of order "
                 "(counter_tick %.2f, gc_churn %.2f, loop %.2f, lin_churn "
                 "%.2f us); op_p50_us is not the loop median\n",
                 Med[KCounterTick], Med[KGcChurn], Med[KLoop], Med[KLinChurn]);
  S->ClustersOrdered = Ordered;
  return S;
}

/// Invokes the kernels in the fixed Cycle for \p Seconds; one op is one
/// invocation (plus the collection or total check it triggers).
template <class T> Phase runInterop(InteropState &S, double Seconds, T &Tr) {
  return runSerial(Seconds, [&](uint64_t K) { interopOp(S, K, Tr); });
}

//===----------------------------------------------------------------------===//
// Timed runs (--trace 0)
//===----------------------------------------------------------------------===//

/// Set-ups per timed run; setup_s is their median.
constexpr unsigned SetupReps = 5;

bool timedRun(const std::string &W, uint64_t Seed, double Seconds,
              Metrics &Out) {
  if (W == "admit_mix") {
    std::unique_ptr<AdmitState> S;
    double SetupS = timedSetups(SetupReps, S, [&] { return setupAdmit(Seed); });
    std::vector<NoTrace> Tr(admitClients());
    endToEnd(Out, runAdmit(*S, Seconds, 0, Tr), SetupS);
    return true;
  }
  if (W == "cold_link") {
    std::unique_ptr<ColdLinkState> S;
    double SetupS = timedSetups(SetupReps, S, [&] { return setupColdLink(Seed); });
    NoTrace Tr;
    endToEnd(Out, runColdLink(*S, Seconds, Tr), SetupS);
    return true;
  }
  if (W == "run_interop") {
    std::unique_ptr<InteropState> S;
    NoTrace Tr;
    double SetupS =
        timedSetups(SetupReps, S, [&] { return setupInterop(Seed, Tr); });
    if (!S)
      return false;
    Context.emplace_back("interop_clusters_ordered", S->ClustersOrdered);
    endToEnd(Out, runInterop(*S, Seconds, Tr), SetupS);
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// The traced run (--trace 1)
//===----------------------------------------------------------------------===//

double p50(std::vector<double> V) { return quantile(V, 0.5); }
double p99(std::vector<double> V) { return quantile(V, 0.99); }

/// Adds the reconciliation metrics of one workload: the share of the
/// untraced median op that the traced layer calls do not cover, and how
/// much the tracing itself slowed the median op.
void reconcile(Metrics &Out, const std::string &W, const TraceView &V,
               const Phase &Untraced) {
  double Base = Untraced.p50();
  Out.add(W + ".unattributed_share", 1.0 - p50(V.attributedPerOp()) / Base,
          "ratio");
  Out.add(W + ".trace_overhead", p50(V.opTimes()) / Base - 1.0, "ratio");
}

/// Prints each layer's share of the traced op time (self time).
void printSelfTimes(const std::string &W, const TraceView &V) {
  std::map<std::string, double> Self = V.selfTimes();
  double Total = 0;
  for (double Us : V.opTimes())
    Total += Us;
  std::fprintf(stderr, "%s self time per layer (share of traced op time):\n",
               W.c_str());
  for (const auto &[Name, Us] : Self)
    std::fprintf(stderr, "  %-24s %8.2f%%\n",
                 Name == "op" ? "(unattributed)" : Name.c_str(),
                 100.0 * Us / Total);
}

struct SpanFile {
  std::FILE *F = nullptr;
  uint64_t T0 = nowNs();
  size_t PerWorkloadCap = 200000;
  void write(const char *W, const std::vector<const SpanLog *> &Logs) {
    if (!F)
      return;
    size_t Total = 0;
    for (const SpanLog *L : Logs)
      Total += L->Spans.size();
    size_t N = writeSpans(F, W, Logs, T0, PerWorkloadCap);
    if (N < Total)
      std::fprintf(stderr, "note: wrote %zu of %zu %s spans\n", N, Total, W);
  }
};

void tracedAdmit(uint64_t Seed, double Seconds, Metrics &Out, SpanFile &F) {
  auto S = setupAdmit(Seed);
  std::vector<NoTrace> Plain(admitClients());
  Phase Untraced = runAdmit(*S, Seconds / 2, 0, Plain);
  cache::CacheStats Before = S->Cache.stats();
  std::vector<SpanLog> Logs(admitClients());
  runAdmit(*S, Seconds / 2, 1, Logs);
  cache::CacheStats After = S->Cache.stats();
  TraceView V;
  for (const SpanLog &L : Logs)
    V.Logs.push_back(&L);
  constexpr int Hot = static_cast<int>(AdmitClass::Hot);
  Out.add("serial.read_us_p50", p50(V.durations("serial.read", Hot)), "us");
  Out.add("typing.check_us_p50", p50(V.durations("typing.check", Hot)), "us");
  Out.add("typing.check_us_p99", p99(V.durations("typing.check", Hot)), "us");
  std::vector<double> HotInst = V.durations("link.instantiate_hot");
  Out.add("link.instantiate_hot_us_p50", p50(HotInst), "us");
  Out.add("cache.hot_hit_ratio",
          static_cast<double>(After.ProgramHits - Before.ProgramHits) /
              static_cast<double>(HotInst.size()),
          "ratio");
  Out.add("cache.bytes_per_entry",
          static_cast<double>(After.Bytes) /
              static_cast<double>(std::max<uint64_t>(After.Entries, 1)),
          "B");
  Out.add("cache.evictions", static_cast<double>(After.Evictions), "count");
  Out.add("link.instantiate_cold_us_p50",
          p50(V.durations("link.instantiate_cold")), "us");
  Out.add("link.instantiate_cold_us_p99",
          p99(V.durations("link.instantiate_cold")), "us");
  Out.add("ingest.reject_us_p50", p50(V.durations("ingest.reject")), "us");
  for (ingest::Category C : {ingest::Category::BadMagic,
                             ingest::Category::Truncated,
                             ingest::Category::Malformed,
                             ingest::Category::Check})
    Out.add(std::string("ingest.rejects_") + ingest::categoryToken(C),
            static_cast<double>(S->Rejects[static_cast<unsigned>(C)].load()),
            "count");
  Out.add("wasm.decode_us_p50", p50(V.durations("wasm.decode")), "us");
  Out.add("wasm.validate_us_p50",
          p50(V.durations("wasm.validate",
                          static_cast<int>(AdmitClass::HotWasm))),
          "us");
  reconcile(Out, "admit_mix", V, Untraced);
  printSelfTimes("admit_mix", V);
  F.write("admit_mix", V.Logs);
}

void tracedColdLink(uint64_t Seed, double Seconds, Metrics &Out,
                    SpanFile &F) {
  auto S = setupColdLink(Seed);
  NoTrace Plain;
  Phase Untraced = runColdLink(*S, Seconds / 2, Plain);
  SpanLog Log;
  runColdLink(*S, Seconds / 2, Log);
  TraceView V{{&Log}};
  Out.add("ml.compile_us", p50(V.perOpSums("ml.compile")), "us");
  Out.add("l3.compile_us", p50(V.perOpSums("l3.compile")), "us");
  Out.add("typing.check_batch_us", p50(V.durations("typing.check_batch")),
          "us");
  Out.add("link.resolve_us", p50(V.durations("link.resolve")), "us");
  Out.add("lower.lower_us", p50(V.durations("lower.lower")), "us");
  Out.add("wasm.validate_us", p50(V.durations("wasm.validate")), "us");
  Out.add("exec.translate_us", p50(V.durations("exec.translate")), "us");
  Out.add("exec.instantiate_us", p50(V.durations("exec.instantiate")), "us");
  if (S->Lowered) {
    Out.add("lower.wasm_bytes",
            static_cast<double>(wasm::encode(S->Lowered->Module).size()),
            "count");
    Out.add("lower.wasm_funcs",
            static_cast<double>(S->Lowered->Module.Funcs.size()), "count");
  }
  reconcile(Out, "cold_link", V, Untraced);
  printSelfTimes("cold_link", V);
  F.write("cold_link", V.Logs);
}

bool tracedInterop(uint64_t Seed, double Seconds, Metrics &Out,
                   SpanFile &F) {
  SpanLog SetupLog;
  auto S = setupInterop(Seed, SetupLog);
  if (!S)
    return false;
  Context.emplace_back("interop_clusters_ordered", S->ClustersOrdered);
  NoTrace Plain;
  Phase Untraced = runInterop(*S, Seconds / 2, Plain);
  S->Swept.clear();
  SpanLog Log;
  runInterop(*S, Seconds / 2, Log);
  TraceView V{{&Log}};
  for (unsigned K = 0; K < 4; ++K)
    Out.add(std::string("exec.") + kernelName(K) + "_us",
            p50(V.durations(std::string("exec.") + kernelName(K))), "us");
  Out.add("lower.gc_collect_us", p50(V.durations("lower.gc_collect")), "us");
  Out.add("lower.gc_swept_cells", p50(S->Swept), "count");
  double Jit = 0;
  for (double Us : TraceView{{&SetupLog}}.durations("jit.compile"))
    Jit += Us;
  Out.add("jit.compile_us", Jit, "us");
  reconcile(Out, "run_interop", V, Untraced);
  printSelfTimes("run_interop", V);
  F.write("run_interop", V.Logs);
  return true;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O.push_back('\\');
    if (static_cast<unsigned char>(C) >= 0x20)
      O.push_back(C);
  }
  return O;
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printContext(const std::string &W, uint64_t Seed, double Seconds,
                  bool Trace) {
  uint64_t A = Ops.attempted(), F = Ops.failed();
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"host\": \"%s\", \"nproc\": %u, \"build_type\": "
      "\"%s\", \"rw_jit\": %d, \"rw_obs\": %d, \"obs_enabled_at_run\": %d, "
      "\"admit_clients\": %u, \"cold_link_threads\": %u, "
      "\"fail_ratio\": %s",
      W.c_str(), static_cast<unsigned long long>(Seed), num(Seconds).c_str(),
      Trace ? 1 : 0, jsonEscape(rwbench::hostFingerprint()).c_str(), nproc(),
      PERFBENCH_BUILD_TYPE, RW_JIT_ENABLED, RW_OBS_ENABLED,
      obs::enabled() ? 1 : 0, admitClients(), coldLinkThreads(),
      num(A ? static_cast<double>(F) / static_cast<double>(A) : 0.0).c_str());
  for (const auto &[Key, Value] : Context)
    std::printf(", \"%s\": %s", Key.c_str(), num(Value).c_str());
  std::printf("}}\n");
}

void printResult(const Metrics &M) {
  uint64_t A = Ops.attempted(), F = Ops.failed();
  for (const Metrics::M &X : M.All)
    std::fprintf(stderr, "  %-34s %16.4f %s\n", X.Name.c_str(), X.Value,
                 X.Unit.c_str());
  std::fprintf(stderr, "  %-34s %16.6f ratio (%llu of %llu ops failed)\n",
               "fail_ratio",
               A ? static_cast<double>(F) / static_cast<double>(A) : 0.0,
               static_cast<unsigned long long>(F),
               static_cast<unsigned long long>(A));
  std::string Out = "{\"correct\": ";
  Out += (F == 0 && A > 0) ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(A);
  Out += ", \"failed\": " + std::to_string(F);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < M.All.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + M.All[I].Name + "\": {\"value\": " + num(M.All[I].Value) +
           ", \"unit\": \"" + M.All[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload admit_mix|cold_link|run_interop "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string W, TraceOut;
  uint64_t Seed = 1;
  double Seconds = 30;
  int Trace = 0;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      W = V;
    else if (K == "--seed")
      Seed = std::stoull(V);
    else if (K == "--seconds")
      Seconds = std::stod(V);
    else if (K == "--trace")
      Trace = std::stoi(V);
    else if (K == "--trace-out")
      TraceOut = V;
    else
      return usage();
  }
  if ((W != "admit_mix" && W != "cold_link" && W != "run_interop") ||
      Seconds <= 0 || (Trace != 0 && Trace != 1))
    return usage();

  // Timed runs measure the library with its observability layer off: no
  // metrics, no trace sampling, no timeline, whatever the environment says.
  obs::setEnabled(false);
  obs::setTracing(false);
  obs::setTraceSampling(1);

  Context.emplace_back("calib_ms_before", calibrationMs());
  std::pair<double, double> Steal0 = stealTicks();
  Metrics M;
  bool Ok;
  if (Trace == 0) {
    Ok = timedRun(W, Seed, Seconds, M);
  } else {
    SpanFile F;
    if (!TraceOut.empty()) {
      F.F = std::fopen(TraceOut.c_str(), "w");
      if (F.F)
        std::fputs("workload,thread,op,kind,parent,name,start_ns,end_ns\n", F.F);
    }
    tracedAdmit(Seed, Seconds / 3, M, F);
    tracedColdLink(Seed, Seconds / 3, M, F);
    Ok = tracedInterop(Seed, Seconds / 3, M, F);
    if (F.F)
      std::fclose(F.F);
  }
  std::pair<double, double> Steal1 = stealTicks();
  Context.emplace_back("host_steal_share", (Steal1.first - Steal0.first) /
                                               (Steal1.second - Steal0.second));
  Context.emplace_back("calib_ms_after", calibrationMs());
  if (!Ok) {
    std::fprintf(stderr, "perfbench: %s could not be set up\n", W.c_str());
    return 1;
  }
  printContext(W, Seed, Seconds, Trace == 1);
  printResult(M);
  return 0;
}
