//===- support/Hashing.h - Shared hash mixing primitives --------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit mixing primitives shared by the link-time export index, the
/// serialization checksum, trace sampling, and the admission cache's key
/// hash.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_SUPPORT_HASHING_H
#define RICHWASM_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace rw::support {

/// murmur3's 64-bit finalizer: full avalanche, so inputs whose entropy
/// sits in a few bits still spread over the low bits a power-of-two
/// table masks with.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdull;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ull;
  X ^= X >> 33;
  return X;
}

/// FNV-1a over a byte range (the serial payload checksum; not a MAC).
inline uint64_t fnv1a(const uint8_t *D, size_t N,
                      uint64_t H = 0xcbf29ce484222325ull) {
  for (size_t I = 0; I < N; ++I)
    H = (H ^ D[I]) * 0x100000001b3ull;
  return H;
}

} // namespace rw::support

#endif // RICHWASM_SUPPORT_HASHING_H
