//===- bench/c6_admission_cache.cpp - C6: content-addressed admission -----===//
// The admission-server repetition experiment (DESIGN.md §8): real traffic
// resubmits the same library modules over and over, so admission results
// are memoized, keyed by exact content. Measures the full admission
// pipeline — link::instantiateLowered with a cache and a pool, which on a
// miss checks, lowers and translates, and on a hit (the link set's bytes
// compared in full) goes straight to instantiation — cold (empty cache)
// versus warm (resident cache), plus the serialization layer the key is
// built from. run_bench.sh emits the cold/warm pairs into
// BENCH_cache.json; the 64-module warm speedup is the headline number
// (≥10x gates cache PRs).
#include "Common.h"

#include "cache/AdmissionCache.h"
#include "serial/Serial.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

using namespace rw;
using namespace rwbench;

namespace {

// AdmissionSet (the N-module link-shaped workload with checker-relevant
// bodies) lives in bench/Common.h, shared with fig3's cold-instantiate
// bench.

/// One admission of the whole set through the lowered pipeline: a miss
/// checks over the pool, lowers and translates; a hit does none of it.
bool admit(const AdmissionSet &Set, support::ThreadPool &Pool,
           cache::AdmissionCache &C) {
  link::LinkOptions Opts;
  Opts.Cache = &C;
  Opts.Pool = &Pool;
  Opts.Engine = wasm::EngineKind::Flat;
  Opts.RunStart = false;
  auto LI = link::instantiateLowered(Set.Ptrs, Opts);
  return bool(LI);
}

/// Cache and arena stats flow through the obs registry (the cache
/// registers a "cache.*" snapshot source for its lifetime, the global
/// arena an "arena.*" one), so the export is one shared call; the
/// '.'→'_' key mapping keeps the exact names run_bench.sh parses
/// (cache_hits, cache_misses, cache_evictions, cache_bytes,
/// arena_serialized_bytes).
void reportCache(benchmark::State &St, const cache::AdmissionCache &C) {
  (void)C; // Sampled via its registered obs source.
  exportObsCounters(St, {"cache", "arena"});
}

} // namespace

//===----------------------------------------------------------------------===//
// Full admission pipeline, cold vs warm
//===----------------------------------------------------------------------===//

static void C6_AdmissionCold(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  support::ThreadPool Pool;
  for (auto _ : St) {
    cache::AdmissionCache C; // Empty every submission: all misses.
    if (!admit(Set, Pool, C)) {
      St.SkipWithError("admission failed");
      return;
    }
  }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Set.Mods.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(C6_AdmissionCold)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

static void C6_AdmissionWarm(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  support::ThreadPool Pool;
  cache::AdmissionCache C;
  if (!admit(Set, Pool, C)) { // Prime.
    St.SkipWithError("admission failed");
    return;
  }
  for (auto _ : St)
    if (!admit(Set, Pool, C)) {
      St.SkipWithError("admission failed");
      return;
    }
  St.counters["modules/s"] = benchmark::Counter(
      static_cast<double>(Set.Mods.size()) * St.iterations(),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  reportCache(St, C);
}
BENCHMARK(C6_AdmissionWarm)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// The serialization layer
//===----------------------------------------------------------------------===//

static void C6_SerializeModule(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  uint64_t Bytes = 0;
  for (auto _ : St) {
    Bytes = 0;
    for (const rw::ir::Module *M : Set.Ptrs)
      Bytes += serial::write(*M).size();
    benchmark::DoNotOptimize(Bytes);
  }
  St.counters["bytes_per_module"] =
      static_cast<double>(Bytes) / static_cast<double>(Set.Mods.size());
}
BENCHMARK(C6_SerializeModule)->Arg(64)->Unit(benchmark::kMicrosecond);

static void C6_DeserializeModule(benchmark::State &St) {
  AdmissionSet Set(static_cast<unsigned>(St.range(0)));
  std::vector<std::vector<uint8_t>> Blobs;
  for (const rw::ir::Module *M : Set.Ptrs)
    Blobs.push_back(serial::write(*M));
  for (auto _ : St)
    for (const std::vector<uint8_t> &B : Blobs) {
      auto R = serial::read(B);
      if (!R) {
        St.SkipWithError("read failed");
        return;
      }
      benchmark::DoNotOptimize(R->Funcs.size());
    }
}
BENCHMARK(C6_DeserializeModule)->Arg(64)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
