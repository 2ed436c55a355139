#include "src/serve/cache.h"

namespace redfat {

bool ArtifactCache::Lookup(const CacheKey& key, std::shared_ptr<const CachedArtifact>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || !it->second->artifact->has_artifact()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  if (out != nullptr) {
    *out = it->second->artifact;
  }
  return true;
}

std::shared_ptr<void> ArtifactCache::LookupRetained(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->retained == nullptr) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->retained;
}

void ArtifactCache::Insert(const CacheKey& key, CachedArtifact artifact,
                           std::shared_ptr<void> retained, uint64_t retained_bytes) {
  auto shared = std::make_shared<const CachedArtifact>(std::move(artifact));
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t charge = shared->image_bytes.size() + shared->sitemap.size() +
                          (retained != nullptr ? retained_bytes : 0);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place (e.g. a lost insert race, or an analysis-only base
    // entry gaining its artifact). Keep an existing retained handle when
    // the new insert does not bring one.
    Entry& e = *it->second;
    bytes_ -= e.charged_bytes;
    e.artifact = std::move(shared);
    if (retained != nullptr) {
      e.retained = std::move(retained);
    }
    e.charged_bytes = e.artifact->image_bytes.size() + e.artifact->sitemap.size() +
                      (e.retained != nullptr ? retained_bytes : 0);
    bytes_ += e.charged_bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(shared), std::move(retained), charge});
    index_[key] = lru_.begin();
    bytes_ += charge;
  }
  ++insertions_;
  EvictOverBudgetLocked(key);
}

void ArtifactCache::EvictOverBudgetLocked(const CacheKey& keep) {
  if (budget_ == 0) {
    return;
  }
  while (bytes_ > budget_ && !lru_.empty()) {
    auto victim = std::prev(lru_.end());
    if (victim->key == keep) {
      // The just-inserted entry is all that is left; an over-budget single
      // entry stays resident (the budget bounds steady state, it does not
      // make oversized requests unservable).
      break;
    }
    bytes_ -= victim->charged_bytes;
    index_.erase(victim->key);
    lru_.erase(victim);
    ++evictions_;
  }
}

ArtifactCacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ArtifactCacheStats s;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.budget = budget_;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  return s;
}

}  // namespace redfat
