//===- fuzz/fuzz_serial_read.cpp - libFuzzer target for serial::read ------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Totality harness for the RichWasm wire-format reader. A private arena
// per input keeps rejected payloads from growing any shared state; a
// payload that reads back must re-serialize without UB.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeArena.h"
#include "serial/Serial.h"

#include <cstddef>
#include <cstdint>
#include <memory>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);
  auto Arena = std::make_shared<rw::ir::TypeArena>();
  rw::Expected<rw::ir::Module> M = rw::serial::read(Bytes, Arena);
  if (M)
    (void)rw::serial::write(*M);
  return 0;
}
