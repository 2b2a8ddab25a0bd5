//===- cache/AdmissionCache.h - Content-addressed admission cache -*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission-server memoization layer (DESIGN.md §8): real traffic is
/// heavily repetitive — the same library modules are submitted over and
/// over — yet every submission re-pays check + lower + translate. The
/// cache has one namespace, keyed by exact content: a byte string maps to
/// the lowered artifact (the Wasm module, runtime/GC metadata and the
/// flat bytecode from exec::translate) built from it. Two kinds of byte
/// string are stored:
///
///   * the exact RWBM bytes ingest::admit accepted, with the module
///     counts ingest::Limits caps. A resubmission of the same bytes skips
///     reading, checking and lowering;
///   * the link-set key of link::instantiateLowered (LinkOptions::Cache):
///     the tag "RWLS" followed by every module's serial::write bytes in
///     link order. ingest::admit rejects that tag as bad magic before it
///     probes, so these entries are never served to it.
///
/// Every hit compares the full stored bytes, so a collision of the fast
/// key hash degrades to a miss: no hit can serve an artifact built from
/// different content. Entries hold no arena nodes (artifacts are pure
/// Wasm), so they survive TypeArena rollback and need no invalidation.
/// Thread-safe (mutex per shard; probes copy shared handles out);
/// artifacts are handed out as shared_ptr<const ...>, so eviction never
/// invalidates a running instance. Capacity is a byte budget with LRU
/// eviction.
///
/// Sharding: the default single shard is one mutex + one global LRU —
/// exact global recency, the right trade for benches and small pools. A
/// server hammering one cache from many client threads constructs with
/// Shards > 1: keys hash-partition across independent shards (budget
/// split evenly), contention drops by the shard count, and recency
/// becomes per-shard (a hot key only competes with its shard's
/// residents). stats() aggregates; shardStats() exposes the partition,
/// and the obs source emits per-shard "shard<i>.*" keys when sharded.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_CACHE_ADMISSIONCACHE_H
#define RICHWASM_CACHE_ADMISSIONCACHE_H

#include "exec/Translate.h"
#include "lower/Lower.h"

#include <memory>
#include <optional>
#include <vector>

namespace rw::cache {

/// The whole-program artifact of the shipping path: one lowered Wasm
/// module plus its flat-bytecode translation. Flat.Source points at
/// Program.Module, so the pair must live (and be shared) together.
struct LoweredArtifact {
  lower::LoweredProgram Program;
  exec::FlatModule Flat;
};

/// What the cache serves for a byte string: its artifact, plus (for
/// admitted RWBM bytes) the module's function, global and table-entry
/// counts so a hit can re-apply the caller's ingest::Limits.
struct VerifiedModule {
  std::shared_ptr<const LoweredArtifact> Art;
  uint64_t Funcs = 0;
  uint64_t Globals = 0;
  uint64_t Elems = 0;
};

/// Hit/miss/eviction counters and the current resident size. Bytes are
/// the heap an entry holds (vector capacities, heap strings, estimated map
/// nodes — DESIGN.md §8), consistent with what eviction
/// accounts against the budget.
struct CacheStats {
  uint64_t ProgramHits = 0;   ///< Lookups served (admitted bytes, link sets).
  uint64_t ProgramMisses = 0; ///< Lookups not served.
  uint64_t Evictions = 0;
  uint64_t Bytes = 0;   ///< Resident entry bytes.
  uint64_t Entries = 0; ///< Resident entry count.
};

/// The 128-bit hash a byte string is indexed under; a hit still compares
/// the full bytes.
struct ContentKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const ContentKey &O) const = default;
};

/// The cache key of an ordered link set: "RWLS", then each module's
/// serial::write bytes in link order (order decides import shadowing).
/// Each RWBM header carries its payload length, so the concatenation is
/// unambiguous.
std::vector<uint8_t> linkSetKey(const std::vector<const ir::Module *> &Mods);

class AdmissionCache {
public:
  static constexpr uint64_t DefaultByteBudget = 64ull << 20;

  /// Shards = 1 (the default) is a single global LRU; Shards > 1
  /// hash-partitions keys across independent per-shard LRUs, each with
  /// ByteBudget / Shards of the budget (entries larger than a shard's
  /// budget are rejected, matching the single-shard oversize rule).
  explicit AdmissionCache(uint64_t ByteBudget = DefaultByteBudget,
                          unsigned Shards = 1);
  ~AdmissionCache();
  AdmissionCache(const AdmissionCache &) = delete;
  AdmissionCache &operator=(const AdmissionCache &) = delete;

  /// lookup returns the entry whose stored bytes equal \p Bytes exactly,
  /// refreshing its LRU recency and counting a program hit or miss. store
  /// charges the entry its artifact plus \p Bytes and may evict. Only
  /// bytes whose artifact was fully built and checked may be stored; the
  /// returned artifact is immutable and outlives eviction. When two byte
  /// strings share a key, the resident one stays and the other is never
  /// served.
  std::optional<VerifiedModule>
  lookupVerified(const std::vector<uint8_t> &Bytes);
  void storeVerified(const std::vector<uint8_t> &Bytes, VerifiedModule V);

  /// Replaces the key function of the index, so a test can force
  /// distinct byte strings onto one key. Call before any use.
  using BytesKeyFn = ContentKey (*)(const std::vector<uint8_t> &);
  void setBytesKeyForTesting(BytesKeyFn Fn) { BytesKey = Fn; }

  uint64_t byteBudget() const { return Budget; }
  unsigned shardCount() const { return NumShards; }
  /// Aggregate across all shards.
  CacheStats stats() const;
  /// One shard's counters (Shard < shardCount()).
  CacheStats shardStats(unsigned Shard) const;
  /// Drops every entry (stats counters are kept; Bytes/Entries reset).
  void clear();

private:
  struct Impl;
  Impl &shardFor(const ContentKey &Key);
  const uint64_t Budget;
  const unsigned NumShards;
  const uint64_t ShardBudget;
  std::vector<std::unique_ptr<Impl>> Sh;
  BytesKeyFn BytesKey;
  /// obs registry handle ("cache.*" snapshot source); 0 when compiled out.
  uint64_t ObsSourceId = 0;
};

} // namespace rw::cache

#endif // RICHWASM_CACHE_ADMISSIONCACHE_H
