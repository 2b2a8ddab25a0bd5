//===- fuzz/fuzz_ingest_admit.cpp - libFuzzer target for ingest::admit ----===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end totality harness for the whole front door: decode → validate
// → check → link → lower → translate → instantiate on arbitrary bytes,
// both container routes, on the default (flat) engine that ships. RunStart
// is off so hostile start functions cost no fuel; everything up to and
// including instance initialization runs.
//
// Every input is admitted twice through one small process-lifetime
// admission cache, so an admitted RWBM input comes back through the
// verified-bytes index. The two verdicts must agree.
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"
#include "ingest/Ingest.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

std::string verdict(const std::vector<uint8_t> &Bytes,
                    const rw::ingest::Limits &L,
                    const rw::link::LinkOptions &Opts) {
  rw::ingest::IngestError E;
  rw::Expected<rw::ingest::AdmittedModule> A =
      rw::ingest::admit(Bytes, L, Opts, &E);
  return A ? std::string("admitted") : E.render();
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  static rw::cache::AdmissionCache Cache(4u << 20);
  std::vector<uint8_t> Bytes(Data, Data + Size);
  rw::ingest::Limits L;
  L.MaxModuleBytes = 1 << 20;
  L.MaxTotalAlloc = 16u << 20;
  rw::link::LinkOptions Opts;
  Opts.RunStart = false;
  Opts.Cache = &Cache;
  std::string First = verdict(Bytes, L, Opts);
  std::string Second = verdict(Bytes, L, Opts);
  if (First != Second) {
    std::fprintf(stderr, "verdicts disagree: '%s' then '%s'\n", First.c_str(),
                 Second.c_str());
    std::abort();
  }
  return 0;
}
