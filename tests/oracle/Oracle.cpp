//===- tests/oracle/Oracle.cpp - Engine selection for differential tests --===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tests/oracle/Oracle.h"

#include "cache/AdmissionCache.h"
#include "tests/oracle/Interp.h"

using namespace rw;

const char *oracle::engineName(Engine E) {
  return E == Engine::Tree   ? "tree"
         : E == Engine::Flat ? "flat"
                             : "jit";
}

static wasm::EngineKind shipping(oracle::Engine E) {
  return E == oracle::Engine::Jit ? wasm::EngineKind::Jit
                                  : wasm::EngineKind::Flat;
}

std::unique_ptr<wasm::Instance>
oracle::createInstance(const wasm::WModule &M, Engine E) {
  if (E == Engine::Tree)
    return std::make_unique<wasm::WasmInstance>(M);
  return wasm::createInstance(M, shipping(E));
}

Expected<link::LoweredInstance>
oracle::instantiateLowered(const std::vector<const ir::Module *> &Mods,
                           Engine E, link::LinkOptions Opts) {
  if (E != Engine::Tree) {
    Opts.Engine = shipping(E);
    return link::instantiateLowered(Mods, Opts);
  }
  Expected<std::shared_ptr<const cache::LoweredArtifact>> Art =
      link::lowerArtifact(Mods, Opts);
  if (!Art)
    return Art.error();
  std::shared_ptr<const cache::LoweredArtifact> A = Art.take();
  auto Inst = std::make_unique<wasm::WasmInstance>(A->Program.Module);
  if (Opts.Profile)
    Inst->enableProfiling();
  if (Status S = Inst->initialize(Opts.RunStart); !S)
    return S.error();
  return link::LoweredInstance{
      std::shared_ptr<const lower::LoweredProgram>(A, &A->Program),
      std::move(Inst)};
}
