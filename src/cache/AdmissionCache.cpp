//===- cache/AdmissionCache.cpp - Content-addressed admission cache -------===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each shard is one mutex-guarded LRU with its slice of the byte budget:
// a recency list whose nodes own the entries, plus one hash index pointing
// into it. Every operation is a hash probe, a byte compare and a list
// splice, so a lock is held briefly; evicted entries leave the lock on a
// local list and are freed after it is released, so no artifact is
// destroyed under it. The default single shard gives exact global
// recency, and a server constructs with more shards to spread client
// threads across independent locks (the shard is picked from the content
// key, so a given byte string always lands on the same shard).
//
//===----------------------------------------------------------------------===//

#include "cache/AdmissionCache.h"

#include "obs/Obs.h"
#include "serial/Serial.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"

#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>

using namespace rw;
using namespace rw::cache;

std::vector<uint8_t>
rw::cache::linkSetKey(const std::vector<const ir::Module *> &Mods) {
  std::vector<uint8_t> Key = {'R', 'W', 'L', 'S'};
  for (const ir::Module *M : Mods) {
    std::vector<uint8_t> B = serial::write(*M);
    Key.insert(Key.end(), B.begin(), B.end());
  }
  return Key;
}

namespace {

/// The default key: two independent word-at-a-time multiply chains over
/// the bytes, seeded with the length. Not collision-resistant;
/// lookupVerified compares the full bytes anyway.
ContentKey bytesKey(const std::vector<uint8_t> &Bytes) {
  using support::mix64;
  uint64_t A = 0x9e3779b97f4a7c15ull ^ Bytes.size();
  uint64_t B = 0x2545f4914f6cdd1dull;
  size_t N = Bytes.size(), I = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    A = (A ^ W) * 0xff51afd7ed558ccdull;
    B = ((B ^ W) * 0xc4ceb9fe1a85ec53ull) ^ (B >> 29);
  }
  uint64_t Tail = 0;
  if (I < N)
    std::memcpy(&Tail, Bytes.data() + I, N - I);
  return {mix64(A ^ Tail), mix64(B ^ mix64(Tail))};
}

struct KeyHash {
  size_t operator()(const ContentKey &K) const {
    return static_cast<size_t>(K.Hi ^ (K.Lo * 0x9e3779b97f4a7c15ull));
  }
};

//===----------------------------------------------------------------------===//
// Byte accounting
//===----------------------------------------------------------------------===//

// An artifact is charged the heap it holds: the capacity of every vector
// and heap string, plus an estimate for each std::map node (header,
// key/value pair, allocator rounding). O(functions): the code itself is a
// handful of flat vectors per function.

template <typename T> uint64_t capBytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

uint64_t strBytes(const std::string &S) {
  // Short strings live inside the std::string object itself.
  return S.capacity() > 15 ? S.capacity() + 1 : 0;
}

uint64_t typeBytes(const wasm::FuncType &T) {
  return capBytes(T.Params) + capBytes(T.Results);
}

/// An rb-tree node of a small key/value pair as the allocator hands it out.
constexpr uint64_t MapNodeBytes = 64;

uint64_t artifactBytes(const LoweredArtifact &A) {
  uint64_t B = sizeof(LoweredArtifact);
  const wasm::WModule &M = A.Program.Module;
  B += capBytes(M.Types);
  for (const wasm::FuncType &T : M.Types)
    B += typeBytes(T);
  B += capBytes(M.ImportFuncs);
  for (const wasm::WImportFunc &F : M.ImportFuncs)
    B += strBytes(F.Mod) + strBytes(F.Name);
  B += capBytes(M.Funcs);
  for (const wasm::WFunc &F : M.Funcs) {
    B += capBytes(F.Locals) + capBytes(F.Body) + capBytes(F.BlockTypes) +
         capBytes(F.BrTargets);
    for (const wasm::FuncType &T : F.BlockTypes)
      B += typeBytes(T);
  }
  B += capBytes(M.TableElems) + capBytes(M.Globals);
  for (const wasm::WGlobal &G : M.Globals)
    B += capBytes(G.Init);
  B += capBytes(M.Exports);
  for (const wasm::WExport &E : M.Exports)
    B += strBytes(E.Name);
  B += capBytes(M.Data);
  for (const wasm::WData &D : M.Data)
    B += capBytes(D.Bytes);
  for (const auto &[Name, Idx] : A.Program.Exports)
    B += MapNodeBytes + sizeof(std::string) + strBytes(Name);
  B += (A.Program.FuncMap.size() + A.Program.TableBase.size()) * MapNodeBytes;
  B += capBytes(A.Program.RefGlobals);
  B += capBytes(A.Flat.Funcs);
  for (const exec::FlatFunc &F : A.Flat.Funcs)
    B += capBytes(F.Code);
  B += capBytes(A.Flat.CanonType);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// LRU store
//===----------------------------------------------------------------------===//

struct AdmissionCache::Impl {
  struct Entry {
    ContentKey Key;
    /// The exact bytes every hit is compared to.
    std::vector<uint8_t> Input;
    VerifiedModule Ver;
    uint64_t Bytes = 0;
  };

  using Lru = std::list<Entry>;

  mutable std::mutex M;
  Lru Recency; ///< Front = most recently used.
  std::unordered_map<ContentKey, Lru::iterator, KeyHash> Index;
  CacheStats St;

  void touch(Lru::iterator It) { Recency.splice(Recency.begin(), Recency, It); }

  /// Moves entries from the LRU tail to \p Dead until the resident bytes
  /// fit the budget. The caller frees \p Dead after unlocking, so the last
  /// reference to an evicted artifact is never dropped under the lock.
  /// (Entries larger than the whole budget never get in — see insert.)
  void evict(uint64_t Budget, Lru &Dead) {
    while (St.Bytes > Budget && !Recency.empty()) {
      Entry &E = Recency.back();
      Index.erase(E.Key);
      St.Bytes -= E.Bytes;
      --St.Entries;
      ++St.Evictions;
      Dead.splice(Dead.end(), Recency, std::prev(Recency.end()));
    }
  }

  /// Inserts \p E unless its key is resident. \p E is moved from only
  /// when inserted, so a caller that declared it before taking the lock
  /// frees a duplicate after unlocking.
  void insert(Entry &&E, uint64_t Budget, Lru &Dead) {
    // An entry the whole budget cannot hold is rejected up front: pushing
    // it through the LRU would evict every resident entry before the
    // oversized one itself went, flushing the warm set for nothing.
    if (E.Bytes > Budget)
      return;
    auto It = Index.find(E.Key);
    if (It != Index.end()) {
      // A re-store of the same bytes carries the same artifact: refresh
      // recency and keep the resident entry. The resident may also be a
      // different byte string on the same key: it stays served, and the
      // newcomer stays uncached.
      touch(It->second);
      return;
    }
    St.Bytes += E.Bytes;
    ++St.Entries;
    Recency.push_front(std::move(E));
    Index.emplace(Recency.front().Key, Recency.begin());
    evict(Budget, Dead);
  }
};

AdmissionCache::AdmissionCache(uint64_t ByteBudget, unsigned Shards)
    : Budget(ByteBudget), NumShards(Shards == 0 ? 1 : Shards),
      ShardBudget(ByteBudget / (Shards == 0 ? 1 : Shards)),
      BytesKey(bytesKey) {
  Sh.reserve(NumShards);
  for (unsigned S = 0; S < NumShards; ++S)
    Sh.push_back(std::make_unique<Impl>());
  // Every cache joins obs::snapshot() for its lifetime (a second live
  // cache shows up as "cache#2.*"). stats() takes the shard mutexes,
  // which is why snapshot() samples sources outside the registry lock.
  // A sharded cache also emits per-shard keys ("shard0.hits", ...) so
  // partition skew and per-shard pressure are visible; renderPrometheus
  // lifts the "shard<i>" segment into a shard="<i>" label.
  ObsSourceId = obs::registerSource("cache", [this](const obs::EmitFn &E) {
    CacheStats S = stats();
    E("hits", S.ProgramHits);
    E("misses", S.ProgramMisses);
    E("evictions", S.Evictions);
    E("bytes", S.Bytes);
    E("entries", S.Entries);
    E("shards", NumShards);
    if (NumShards > 1) {
      for (unsigned I = 0; I < NumShards; ++I) {
        CacheStats P = shardStats(I);
        std::string Prefix = "shard" + std::to_string(I) + ".";
        E((Prefix + "hits").c_str(), P.ProgramHits);
        E((Prefix + "misses").c_str(), P.ProgramMisses);
        E((Prefix + "evictions").c_str(), P.Evictions);
        E((Prefix + "bytes").c_str(), P.Bytes);
        E((Prefix + "entries").c_str(), P.Entries);
      }
    }
  });
}

AdmissionCache::~AdmissionCache() { obs::unregisterSource(ObsSourceId); }

AdmissionCache::Impl &AdmissionCache::shardFor(const ContentKey &Key) {
  if (NumShards == 1)
    return *Sh[0];
  // Mix the words through two rounds so the shard choice neither shares
  // bits with the per-shard map's KeyHash (which folds Lo into Hi) nor
  // collapses for correlated Hi/Lo pairs (Lo ^ (Hi << 1) is constant
  // along the line Lo = 2*Hi + c — cache_test pins this with synthetic
  // keys; real keys are well mixed, but the cost here is two multiplies).
  return *Sh[support::mix64(Key.Lo ^ support::mix64(Key.Hi)) % NumShards];
}

std::optional<VerifiedModule>
AdmissionCache::lookupVerified(const std::vector<uint8_t> &Bytes) {
  OBS_SPAN("cache_probe");
  ContentKey Key = BytesKey(Bytes);
  Impl &I = shardFor(Key);
  std::lock_guard<std::mutex> G(I.M);
  auto It = I.Index.find(Key);
  if (It == I.Index.end() || It->second->Input != Bytes) {
    ++I.St.ProgramMisses;
    return std::nullopt;
  }
  ++I.St.ProgramHits;
  I.touch(It->second);
  return It->second->Ver;
}

void AdmissionCache::storeVerified(const std::vector<uint8_t> &Bytes,
                                   VerifiedModule V) {
  OBS_SPAN("cache_store");
  // Store-failure seam: a dropped store degrades to uncached admission —
  // the artifact is simply rebuilt on the next submission.
  if (RW_FAULT_POINT(support::fault::Seam::CacheStore))
    return;
  if (!V.Art)
    return;
  Impl::Entry E;
  E.Key = BytesKey(Bytes);
  E.Input = Bytes;
  E.Bytes = artifactBytes(*V.Art) + Bytes.size();
  E.Ver = std::move(V);
  Impl &I = shardFor(E.Key);
  Impl::Lru Dead;
  std::lock_guard<std::mutex> G(I.M);
  I.insert(std::move(E), ShardBudget, Dead);
}

CacheStats AdmissionCache::stats() const {
  CacheStats Out;
  for (const std::unique_ptr<Impl> &I : Sh) {
    std::lock_guard<std::mutex> G(I->M);
    Out.ProgramHits += I->St.ProgramHits;
    Out.ProgramMisses += I->St.ProgramMisses;
    Out.Evictions += I->St.Evictions;
    Out.Bytes += I->St.Bytes;
    Out.Entries += I->St.Entries;
  }
  return Out;
}

CacheStats AdmissionCache::shardStats(unsigned Shard) const {
  if (Shard >= NumShards)
    return {};
  std::lock_guard<std::mutex> G(Sh[Shard]->M);
  return Sh[Shard]->St;
}

void AdmissionCache::clear() {
  for (const std::unique_ptr<Impl> &I : Sh) {
    Impl::Lru Dead;
    std::lock_guard<std::mutex> G(I->M);
    Dead.swap(I->Recency);
    I->Index.clear();
    I->St.Bytes = 0;
    I->St.Entries = 0;
  }
}
