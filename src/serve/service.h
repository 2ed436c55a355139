// RewriteService: the daemon's engine, independent of any transport.
//
// One service instance owns
//   * `Config::jobs` pipeline slots: a miss or re-tier runs the pipeline,
//     on its own request thread, only while it holds one, so at most that
//     many rewrites run at once; hits and fetches never wait for a slot,
//   * the content-addressed artifact cache (serve/cache.h), and
//   * a TelemetryRegistry receiving per-request latency and queue-depth
//     distributions (`serve.request_latency_cycles`, `serve.queue_depth` —
//     the PR 7 histogram cells, so p50/p90/p99 come straight out of the
//     stats snapshot).
//
// Request flow:
//   Rewrite(image, opts, profile_json):
//     key = (fnv(image), OptionsFingerprint(opts), fingerprint(profile))
//     cache hit                 -> share the cached artifact (no byte copied)
//     miss, no profile          -> full pipeline run; capture the post-group
//                                  PipelineCheckpoint; store artifact +
//                                  warm analysis under the (base) key
//     miss, profile, warm base  -> INCREMENTAL RE-TIER: restore the base
//                                  entry's checkpoint into its retained
//                                  context and re-enter the pipeline at the
//                                  tier pass (tier..patch only)
//     miss, profile, cold       -> full tiered pipeline run; the
//                                  profile-independent analysis is still
//                                  deposited under the base key
//   UploadProfile(image_hash, opts, profile_json): the re-tier path without
//     shipping the image again — fails kNotFound when the daemon holds no
//     warm analysis for the base key.
//
// Every outcome carries the cache's artifact object itself: a miss or
// re-tier serializes its image and sitemap once into the artifact it
// inserts, a hit hands out that same object, and the transport writes the
// reply from it.
//
// Byte identity is the hard contract: every cell (hit, miss, re-tier) must
// produce images cmp-identical to the offline `redfat` run with the same
// flags. The incremental path preserves it because the checkpoint is
// captured *before* the tier pass, where the context state is a pure
// function of (image, options) — the profile only ever feeds the passes
// that re-run.
#ifndef REDFAT_SRC_SERVE_SERVICE_H_
#define REDFAT_SRC_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/bin/image.h"
#include "src/core/pipeline.h"
#include "src/serve/cache.h"
#include "src/serve/fingerprint.h"
#include "src/support/telemetry.h"

namespace redfat {

// Monotonic cycle counter for request-latency histograms (TSC on x86-64,
// steady-clock nanoseconds elsewhere).
uint64_t HostCycleNow();

// Parses a `--metrics` snapshot JSON into a tier profile: image-0 sites
// only, cycles = trampoline + inline-check cycles. The one conversion:
// `redfat --profile=FILE` calls it too, so an offline rewrite and a daemon
// upload tier the same profile identically.
Result<TierProfile> TierProfileFromSnapshotJson(const std::string& json);

// The fingerprint the service actually keys its cache with: the profile
// pointer is normalized away (the profile's content is keyed separately),
// so it never splits entries for byte-identical outputs. `redfat
// --print-cache-key` prints this.
uint64_t CacheOptionsFingerprint(const RedFatOptions& opts);

class RewriteService {
 public:
  struct Config {
    unsigned jobs = 1;  // pipelines run at once (0 = hardware threads)
    uint64_t cache_bytes = 256ull << 20;  // LRU budget; 0 = unbounded
  };

  explicit RewriteService(const Config& config);
  ~RewriteService();

  struct Outcome {
    CacheKey key;
    bool cache_hit = false;           // served without touching the pipeline
    bool incremental_retier = false;  // tier..patch re-entry on warm analysis
    // The image and sitemap: the object the cache holds under `key`, never
    // null. Holding it keeps the bytes alive while a reply is written, even
    // if the cache evicts the entry meanwhile.
    std::shared_ptr<const CachedArtifact> artifact;
  };

  // `image_bytes` are the raw serialized RFBIN bytes as sent by the client
  // (hashed as-is, and only decoded on a miss); the daemon passes a view
  // into the request frame. `profile_json` may be empty (no tiering).
  Result<Outcome> Rewrite(std::span<const uint8_t> image_bytes, const RedFatOptions& opts,
                          const std::string& profile_json);

  // Re-tiers the already-cached image identified by (image_hash, opts).
  Result<Outcome> UploadProfile(uint64_t image_hash, const RedFatOptions& opts,
                                const std::string& profile_json);

  // Cache-only lookup; never computes.
  Result<Outcome> FetchArtifact(const CacheKey& key);

  // One-line JSON: request counters, cache occupancy, and latency /
  // queue-depth percentiles, plus the full telemetry snapshot nested under
  // "telemetry".
  std::string StatsJson() const;

  TelemetryRegistry& telemetry() { return telemetry_; }
  const ArtifactCache& cache() const { return cache_; }

 private:
  // Warm per-image analysis state retained with a base cache entry. The
  // context references `input`, which the entry owns; `mu` serializes
  // re-tier re-entries on the shared context.
  struct AnalysisEntry {
    BinaryImage input;
    std::unique_ptr<PipelineContext> ctx;
    PipelineCheckpoint checkpoint;
    uint64_t approx_bytes = 0;
    std::mutex mu;
  };

  class RequestScope;  // RAII latency/queue-depth recorder
  class PipelineSlot;  // RAII: waits for a free pipeline slot, frees it

  Result<Outcome> RewriteMiss(const CacheKey& key, std::span<const uint8_t> image_bytes,
                              const RedFatOptions& opts, const TierProfile* profile);
  Result<Outcome> Retier(const CacheKey& key, const std::shared_ptr<AnalysisEntry>& entry,
                         const RedFatOptions& opts, const TierProfile& profile);

  std::mutex slots_mu_;
  std::condition_variable slot_freed_;
  unsigned free_slots_;  // guarded by slots_mu_
  ArtifactCache cache_;
  TelemetryRegistry telemetry_;

  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> full_rewrites_{0};
  std::atomic<uint64_t> retiers_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace redfat

#endif  // REDFAT_SRC_SERVE_SERVICE_H_
