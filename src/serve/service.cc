#include "src/serve/service.h"

#include <chrono>
#include <utility>

#include "src/core/sitemap.h"
#include "src/support/str.h"

namespace redfat {

uint64_t HostCycleNow() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
#endif
}

Result<TierProfile> TierProfileFromSnapshotJson(const std::string& json) {
  Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson(json);
  if (!snap.ok()) {
    return Error(StrFormat("profile: %s", snap.error().c_str()));
  }
  TierProfile profile;
  for (const SiteTelemetry& st : snap.value().sites) {
    if (ImageOfSiteKey(st.site) != 0) {
      continue;  // multi-image keys: only the main image's sites apply
    }
    profile.cycles_by_site[st.site] = st.tramp_cycles() + st.inline_cycles();
  }
  return profile;
}

// The key never includes transport-only knobs: the client's --jobs value
// changes nothing about the output bytes (byte-identical by contract), and
// the profile pointee is fingerprinted separately into CacheKey::profile_fp.
// Everything else — including hot_threshold, which steers the tier pass —
// stays in the fingerprint.
uint64_t CacheOptionsFingerprint(const RedFatOptions& opts) {
  RedFatOptions normalized = opts;
  normalized.jobs = 0;
  normalized.tier_profile = nullptr;
  return OptionsFingerprint(normalized);
}

namespace {

uint64_t EstimateAnalysisBytes(const PipelineContext& ctx, size_t input_bytes) {
  uint64_t est = input_bytes;
  if (ctx.cache.has_disasm()) {
    est += ctx.cache.disasm().insns.size() * 64;  // decoded insns + cfg slots
  }
  est += ctx.plan.sites.size() * sizeof(SiteRecord) * 2;  // plan + checkpoint copy
  for (const PlannedTrampoline& t : ctx.plan.trampolines) {
    est += sizeof(PlannedTrampoline) + t.checks.size() * sizeof(PlannedCheck);
  }
  return est;
}

// A cache hit's reply. The bytes are copied out of the shared artifact
// here, after the cache lock is released.
RewriteService::Outcome HitOutcome(const CacheKey& key, const CachedArtifact& cached) {
  RewriteService::Outcome out;
  out.key = key;
  out.cache_hit = true;
  out.image_bytes = cached.image_bytes;
  out.sitemap = cached.sitemap;
  return out;
}

}  // namespace

// RAII per-request recorder: queue depth at arrival, latency cycles at
// completion — both into the PR 7 histogram cells.
class RewriteService::RequestScope {
 public:
  explicit RequestScope(RewriteService* svc) : svc_(svc), start_(HostCycleNow()) {
    svc_->requests_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t depth = svc_->inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    svc_->telemetry_.histogram("serve.queue_depth")->Record(depth);
  }
  ~RequestScope() {
    svc_->telemetry_.histogram("serve.request_latency_cycles")
        ->Record(HostCycleNow() - start_);
    svc_->inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  RewriteService* svc_;
  uint64_t start_;
};

RewriteService::RewriteService(const Config& config)
    : pool_(config.jobs), cache_(config.cache_bytes) {}

RewriteService::~RewriteService() = default;

Result<RewriteService::Outcome> RewriteService::Rewrite(
    const std::vector<uint8_t>& image_bytes, const RedFatOptions& opts,
    const std::string& profile_json) {
  RequestScope scope(this);

  TierProfile profile;
  CacheKey key;
  key.image_hash = Fnv1a64(image_bytes);
  key.options_fp = CacheOptionsFingerprint(opts);
  if (!profile_json.empty()) {
    Result<TierProfile> parsed = TierProfileFromSnapshotJson(profile_json);
    if (!parsed.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return Error(parsed.error());
    }
    profile = std::move(parsed).value();
    key.profile_fp = TierProfileFingerprint(profile);
  }

  std::shared_ptr<const CachedArtifact> cached;
  if (cache_.Lookup(key, &cached)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return HitOutcome(key, *cached);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  if (key.profile_fp != 0) {
    // A warm base entry turns this miss into an incremental re-tier.
    auto retained =
        std::static_pointer_cast<AnalysisEntry>(cache_.LookupRetained(key.Base()));
    if (retained != nullptr) {
      return Retier(key, retained, opts, profile);
    }
  }
  return RewriteMiss(key, image_bytes, opts, key.profile_fp != 0 ? &profile : nullptr);
}

Result<RewriteService::Outcome> RewriteService::UploadProfile(
    uint64_t image_hash, const RedFatOptions& opts, const std::string& profile_json) {
  RequestScope scope(this);

  Result<TierProfile> parsed = TierProfileFromSnapshotJson(profile_json);
  if (!parsed.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Error(parsed.error());
  }
  const TierProfile profile = std::move(parsed).value();

  CacheKey key;
  key.image_hash = image_hash;
  key.options_fp = CacheOptionsFingerprint(opts);
  key.profile_fp = TierProfileFingerprint(profile);

  std::shared_ptr<const CachedArtifact> cached;
  if (cache_.Lookup(key, &cached)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return HitOutcome(key, *cached);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  auto retained =
      std::static_pointer_cast<AnalysisEntry>(cache_.LookupRetained(key.Base()));
  if (retained == nullptr) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Error(StrFormat("no warm analysis for key %s (rewrite the image first, "
                           "or use the rewrite request which carries the bytes)",
                           key.Base().ToString().c_str()));
  }
  return Retier(key, retained, opts, profile);
}

Result<RewriteService::Outcome> RewriteService::FetchArtifact(const CacheKey& key) {
  RequestScope scope(this);
  std::shared_ptr<const CachedArtifact> cached;
  if (!cache_.Lookup(key, &cached)) {
    return Error(StrFormat("no cached artifact for key %s", key.ToString().c_str()));
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return HitOutcome(key, *cached);
}

Result<RewriteService::Outcome> RewriteService::RewriteMiss(
    const CacheKey& key, std::vector<uint8_t> image_bytes, const RedFatOptions& opts,
    const TierProfile* profile) {
  Result<BinaryImage> input = BinaryImage::Deserialize(image_bytes);
  if (!input.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Error(StrFormat("bad image: %s", input.error().c_str()));
  }

  // The entry owns the input image for the lifetime of the cache slot; the
  // retained context references it. Option fields are the client's, with
  // the profile pointer re-attached locally (it never crosses the wire).
  auto entry = std::make_shared<AnalysisEntry>();
  entry->input = std::move(input).value();
  RedFatOptions run_opts = opts;
  run_opts.tier_profile = profile;
  entry->ctx = std::make_unique<PipelineContext>(entry->input, run_opts, nullptr);
  entry->ctx->pool = &pool_;

  Pipeline pipeline = Pipeline::Hardening(run_opts);
  pipeline.CaptureAfter("group", &entry->checkpoint);
  Status st = pipeline.Run(*entry->ctx);
  // The profile lives on the caller's stack: never leave a dangling pointer
  // in the retained context.
  entry->ctx->opts.tier_profile = nullptr;
  if (!st.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Error(st.error());
  }
  full_rewrites_.fetch_add(1, std::memory_order_relaxed);

  Outcome out;
  out.key = key;
  out.image_bytes = entry->ctx->output.Serialize();
  out.sitemap = SerializeSiteMap(entry->ctx->plan.sites, nullptr);
  entry->approx_bytes = EstimateAnalysisBytes(*entry->ctx, image_bytes.size());

  // The artifact lands under the request's key; the warm analysis always
  // belongs to the base key. A tiered cold run therefore deposits two
  // entries: (artifact@key) and (analysis-only@base).
  if (key.profile_fp == 0) {
    cache_.Insert(key, CachedArtifact{out.image_bytes, out.sitemap}, entry,
                  entry->approx_bytes);
  } else {
    cache_.Insert(key.Base(), CachedArtifact{}, entry, entry->approx_bytes);
    cache_.Insert(key, CachedArtifact{out.image_bytes, out.sitemap});
  }
  return out;
}

Result<RewriteService::Outcome> RewriteService::Retier(
    const CacheKey& key, const std::shared_ptr<AnalysisEntry>& entry,
    const RedFatOptions& opts, const TierProfile& profile) {
  // One re-tier at a time per retained context: the checkpoint restore and
  // the back-half passes mutate it in place.
  std::lock_guard<std::mutex> lock(entry->mu);
  PipelineContext& ctx = *entry->ctx;
  RestoreCheckpoint(entry->checkpoint, ctx);
  ctx.opts.tier_profile = &profile;
  ctx.opts.hot_threshold = opts.hot_threshold;
  ctx.pool = &pool_;

  Pipeline pipeline = Pipeline::Hardening(ctx.opts);
  Status st = pipeline.RunFrom(ctx, "tier");
  ctx.opts.tier_profile = nullptr;
  if (!st.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Error(st.error());
  }
  retiers_.fetch_add(1, std::memory_order_relaxed);

  Outcome out;
  out.key = key;
  out.incremental_retier = true;
  out.image_bytes = ctx.output.Serialize();
  out.sitemap = SerializeSiteMap(ctx.plan.sites, nullptr);
  cache_.Insert(key, CachedArtifact{out.image_bytes, out.sitemap});
  return out;
}

std::string RewriteService::StatsJson() const {
  const TelemetrySnapshot snap = telemetry_.Snapshot();
  const ArtifactCacheStats cs = cache_.stats();

  const auto hist_json = [&](const char* name) {
    const HistogramData* h = snap.FindHistogram(name);
    if (h == nullptr) {
      return std::string(
          "{\"count\":0,\"mean\":0,\"p50\":0,\"p90\":0,\"p99\":0}");
    }
    return StrFormat("{\"count\":%llu,\"mean\":%.1f,\"p50\":%llu,\"p90\":%llu,"
                     "\"p99\":%llu}",
                     static_cast<unsigned long long>(h->Count()), h->Mean(),
                     static_cast<unsigned long long>(h->Percentile(50)),
                     static_cast<unsigned long long>(h->Percentile(90)),
                     static_cast<unsigned long long>(h->Percentile(99)));
  };

  return StrFormat(
      "{\"requests\":%llu,\"hits\":%llu,\"misses\":%llu,\"full_rewrites\":%llu,"
      "\"retiers\":%llu,\"errors\":%llu,"
      "\"cache\":{\"entries\":%llu,\"bytes\":%llu,\"budget\":%llu,"
      "\"insertions\":%llu,\"evictions\":%llu},"
      "\"request_latency_cycles\":%s,\"queue_depth\":%s,"
      "\"telemetry\":%s}",
      static_cast<unsigned long long>(requests_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(hits_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(misses_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(full_rewrites_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(retiers_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(errors_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(cs.entries),
      static_cast<unsigned long long>(cs.bytes),
      static_cast<unsigned long long>(cs.budget),
      static_cast<unsigned long long>(cs.insertions),
      static_cast<unsigned long long>(cs.evictions),
      hist_json("serve.request_latency_cycles").c_str(),
      hist_json("serve.queue_depth").c_str(), snap.ToJson().c_str());
}

}  // namespace redfat
