//===- ingest/Ingest.h - Hardened untrusted-ingestion front door -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point an admission server feeds raw untrusted bytes:
/// ingest::admit() sniffs the container magic, then runs the full
/// decode → validate → resolve → lower → translate → instantiate pipeline
/// under an explicit ingest::Limits resource policy. It is **total on
/// arbitrary bytes**: any input either yields a runnable AdmittedModule or
/// a structured IngestError (category + byte offset + context) — never a
/// crash, unbounded allocation, or unbounded recursion (DESIGN.md §12).
///
/// Two admissible containers:
///   * `\0asm` — a WebAssembly binary: wasm::decode under Limits,
///     wasm::validate with the operand-depth cap, then flat translation
///     and instantiation on LinkOptions::Engine.
///   * `RWBM`  — a serialized RichWasm module (serial/). With
///     LinkOptions::Cache set, the exact bytes are first probed in the
///     cache's verified-bytes index. A hit re-applies the Limits counts
///     and goes straight to instantiation: no arena, no read, no check.
///     A miss runs serial::readPrivate into a *private* arena (a rejected
///     admission leaves zero residue in the process-wide arena by
///     construction), typing::checkModule, then link::lowerArtifact and
///     link::instantiateArtifact, honoring the caller's pool, engine and
///     instance options. Only bytes that are admitted in full are stored
///     in the index. A hit and a miss return the same AdmittedModule.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_INGEST_INGEST_H
#define RICHWASM_INGEST_INGEST_H

#include "ingest/Limits.h"
#include "link/Link.h"
#include "support/Error.h"
#include "wasm/Instance.h"

#include <memory>

namespace rw::ingest {

/// Which container format an admission came in as.
enum class Route : uint8_t { Wasm, RichWasm };

inline const char *routeName(Route R) {
  return R == Route::Wasm ? "wasm" : "richwasm";
}

/// A fully admitted module: the decoded artifact plus a ready instance.
/// Owns everything it hands out; safe to move across threads as a unit.
struct AdmittedModule {
  Route R = Route::Wasm;
  /// FNV-1a of the admitted input bytes (both routes) — a cheap identity
  /// for logs and the trace-sampling key.
  uint64_t InputHash = 0;

  /// Wasm route: the decoded module (the instance borrows it).
  std::unique_ptr<wasm::WModule> WasmMod;
  std::unique_ptr<wasm::Instance> WasmInst;

  /// RichWasm route: the lowered program + instance.
  link::LoweredInstance Lowered;

  /// The live instance, whichever route produced it.
  wasm::Instance *instance() {
    return R == Route::Wasm ? WasmInst.get() : Lowered.Instance.get();
  }

  /// Invokes an export by name. On the RichWasm route exports use the
  /// lowered "module.export" naming scheme.
  Expected<std::vector<wasm::WValue>>
  invoke(const std::string &Name, std::vector<wasm::WValue> Args,
         uint64_t MaxFuel = 1'000'000'000) {
    return instance()->invokeByName(Name, std::move(Args), MaxFuel);
  }
};

/// Admits \p Bytes under resource policy \p L and admission options
/// \p Opts. On rejection, \p ErrOut (when non-null) receives the
/// structured error the returned Error renders. Total on arbitrary bytes.
Expected<AdmittedModule> admit(const std::vector<uint8_t> &Bytes,
                               const Limits &L = Limits(),
                               const link::LinkOptions &Opts = {},
                               IngestError *ErrOut = nullptr);

} // namespace rw::ingest

#endif // RICHWASM_INGEST_INGEST_H
