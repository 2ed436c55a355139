// The daemon's content-addressed artifact cache: CacheKey -> rewritten
// image + sitemap, bounded by an LRU byte budget (`redfatd --cache-bytes`).
//
// Entries may additionally retain an opaque "warm state" handle (the
// service parks the pipeline analysis context of a base entry there, so a
// later profile upload re-tiers against it instead of re-running the
// analysis front half). Retained state is charged against the same byte
// budget via an explicit estimate, and eviction drops the handle together
// with the artifact — a shared_ptr keeps it alive for any re-tier already
// in flight.
//
// A base entry can exist in "analysis-only" form (empty artifact): a cold
// rewrite *with* a profile still deposits its profile-independent analysis
// under the base key, but never fabricates an untiered image it did not
// build. Lookup() only reports entries that carry an artifact.
//
// Artifacts are immutable and shared by pointer. The request that builds
// one inserts that same object, and a hit holds the cache's one mutex only
// long enough to copy the shared_ptr: no one copies the image bytes. The
// daemon writes a reply straight from the artifact, and the reply's pointer
// keeps it alive even if the LRU evicts the entry mid-write.
#ifndef REDFAT_SRC_SERVE_CACHE_H_
#define REDFAT_SRC_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/serve/fingerprint.h"

namespace redfat {

struct CachedArtifact {
  std::vector<uint8_t> image_bytes;  // serialized rewritten image
  std::string sitemap;               // SerializeSiteMap text
  bool has_artifact() const { return !image_bytes.empty(); }
};

struct ArtifactCacheStats {
  uint64_t entries = 0;
  uint64_t bytes = 0;       // charged bytes currently resident
  uint64_t budget = 0;
  uint64_t hits = 0;        // Lookup() calls that found an artifact
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;   // entries dropped by LRU pressure
};

class ArtifactCache {
 public:
  // budget == 0 means "unbounded" (no eviction).
  explicit ArtifactCache(uint64_t budget_bytes) : budget_(budget_bytes) {}

  // Hands out the artifact on a hit (`out` may be null) and marks the entry
  // most recently used. Analysis-only entries and absent keys are misses.
  bool Lookup(const CacheKey& key, std::shared_ptr<const CachedArtifact>* out);

  // The retained warm-state handle of the entry (typically the base entry),
  // or null. Bumps recency: an image being actively re-tiered should be the
  // last thing the budget evicts.
  std::shared_ptr<void> LookupRetained(const CacheKey& key);

  // Inserts or replaces an entry, storing `artifact` itself (never null;
  // empty for an analysis-only entry). `retained_bytes` is the caller's
  // estimate of the retained handle's footprint (0 when `retained` is
  // null); the entry's total charge is artifact bytes + sitemap bytes +
  // retained bytes. Inserting may evict least-recently-used entries until
  // the budget holds again (the new entry itself is never evicted by its
  // own insert).
  void Insert(const CacheKey& key, std::shared_ptr<const CachedArtifact> artifact,
              std::shared_ptr<void> retained = nullptr, uint64_t retained_bytes = 0);

  ArtifactCacheStats stats() const;

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CachedArtifact> artifact;  // never null
    std::shared_ptr<void> retained;
    uint64_t charged_bytes = 0;
  };
  using EntryList = std::list<Entry>;

  void EvictOverBudgetLocked(const CacheKey& keep);

  const uint64_t budget_;
  mutable std::mutex mu_;
  EntryList lru_;  // front = most recently used
  std::unordered_map<CacheKey, EntryList::iterator, CacheKeyHash> index_;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace redfat

#endif  // REDFAT_SRC_SERVE_CACHE_H_
