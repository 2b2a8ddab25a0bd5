//===- tests/oracle/Oracle.h - Engines for differential tests --*- C++ -*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests and the engine-comparison benchmarks run one module
/// on the tree oracle (tests/oracle/Interp.h) and on the two shipping
/// engines (wasm::EngineKind). This header names the three and creates
/// an instance on any of them, so a test can loop over engines the way
/// it loops over inputs.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_TESTS_ORACLE_ORACLE_H
#define RICHWASM_TESTS_ORACLE_ORACLE_H

#include "link/Link.h"
#include "wasm/Instance.h"

#include <memory>
#include <vector>

namespace rw::oracle {

/// Where a differential run executes: the tree oracle or a shipping
/// engine.
enum class Engine : uint8_t { Tree, Flat, Jit };

constexpr Engine TreeAndFlat[] = {Engine::Tree, Engine::Flat};
constexpr Engine AllEngines[] = {Engine::Tree, Engine::Flat, Engine::Jit};

const char *engineName(Engine E);

/// Creates an uninitialized instance of \p M on \p E.
std::unique_ptr<wasm::Instance> createInstance(const wasm::WModule &M,
                                               Engine E);

/// link::instantiateLowered on \p E. The shipping engines go through
/// link::instantiateLowered with Opts.Engine set; the tree oracle
/// instantiates the artifact of link::lowerArtifact, honoring
/// Opts.RunStart and Opts.Profile (it neither probes nor fills
/// Opts.Cache).
Expected<link::LoweredInstance>
instantiateLowered(const std::vector<const ir::Module *> &Mods, Engine E,
                   link::LinkOptions Opts = {});

} // namespace rw::oracle

#endif // RICHWASM_TESTS_ORACLE_ORACLE_H
