// Tests for the rewrite-as-a-service subsystem (src/serve): option
// fingerprinting, the content-addressed artifact cache, the warm
// RewriteService (hit / miss / incremental re-tier, all byte-identical to
// offline rewrites), and the redfatd daemon end-to-end over a real
// Unix-domain socket, including malformed-frame handling.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/harness.h"
#include "src/core/redfat.h"
#include "src/core/sitemap.h"
#include "src/serve/cache.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/serve/fingerprint.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

BinaryImage SynthImage(uint64_t seed) {
  SynthParams params;
  params.seed = seed;
  return GenerateSynthProgram(params);
}

struct OfflineResult {
  std::vector<uint8_t> image_bytes;
  std::string sitemap;
};

// What the daemon must be byte-identical to: a fresh in-process rewrite.
OfflineResult OfflineRewrite(const BinaryImage& input, const RedFatOptions& opts) {
  RedFatTool tool(opts);
  Result<InstrumentResult> out = tool.Instrument(input);
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error());
  OfflineResult r;
  r.image_bytes = out.value().image.Serialize();
  r.sitemap = SerializeSiteMap(out.value().sites, nullptr);
  return r;
}

// A --metrics-style snapshot JSON from actually running the untiered
// hardened image — the profile payload a client would upload.
std::string ProfileJsonFromRun(const BinaryImage& hardened) {
  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  cfg.inputs = {50, 0x3f};  // synth programs: iterations, unit-mix mode
  const RunOutcome out = RunImage(hardened, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  return reg.Snapshot().ToJson();
}

// One top-level request counter ("hits", "retiers", ...) of StatsJson().
uint64_t StatsCounter(const RewriteService& svc, const char* name) {
  const std::string json = svc.StatsJson();
  const std::string key = StrFormat("\"%s\":", name);
  const size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << json;
  return at == std::string::npos ? 0 : std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// --- option fingerprinting ---------------------------------------------------

// Every field of RedFatOptions must perturb the fingerprint. When the
// sizeof static_assert in fingerprint.cc fires and a field is added to the
// blob, it must be added here too.
TEST(OptionsFingerprint, EveryFieldPerturbsTheHash) {
  const RedFatOptions base;
  const TierProfile dummy_profile;
  struct Perturbation {
    const char* field;
    void (*apply)(RedFatOptions*, const TierProfile*);
  };
  const Perturbation perturbations[] = {
      {"check_reads", [](RedFatOptions* o, const TierProfile*) { o->check_reads = false; }},
      {"check_writes", [](RedFatOptions* o, const TierProfile*) { o->check_writes = false; }},
      {"redzone_impl",
       [](RedFatOptions* o, const TierProfile*) { o->redzone_impl = RedzoneImpl::kShadow; }},
      {"lowfat", [](RedFatOptions* o, const TierProfile*) { o->lowfat = false; }},
      {"size_hardening",
       [](RedFatOptions* o, const TierProfile*) { o->size_hardening = false; }},
      {"redzone_only_sites",
       [](RedFatOptions* o, const TierProfile*) { o->redzone_only_sites = false; }},
      {"merged_ub", [](RedFatOptions* o, const TierProfile*) { o->merged_ub = false; }},
      {"elim", [](RedFatOptions* o, const TierProfile*) { o->elim = false; }},
      {"batch", [](RedFatOptions* o, const TierProfile*) { o->batch = false; }},
      {"merge", [](RedFatOptions* o, const TierProfile*) { o->merge = false; }},
      {"clobber_analysis",
       [](RedFatOptions* o, const TierProfile*) { o->clobber_analysis = false; }},
      {"mode",
       [](RedFatOptions* o, const TierProfile*) { o->mode = RedFatOptions::Mode::kProfile; }},
      {"trampoline_base",
       [](RedFatOptions* o, const TierProfile*) { o->trampoline_base += 0x10000; }},
      {"tier_profile",
       [](RedFatOptions* o, const TierProfile* p) { o->tier_profile = p; }},
      {"hot_threshold",
       [](RedFatOptions* o, const TierProfile*) { o->hot_threshold = 0.5; }},
  };

  const uint64_t base_fp = OptionsFingerprint(base);
  std::vector<std::pair<std::string, uint64_t>> fps = {{"<base>", base_fp}};
  for (const Perturbation& p : perturbations) {
    RedFatOptions mutated = base;
    p.apply(&mutated, &dummy_profile);
    fps.emplace_back(p.field, OptionsFingerprint(mutated));
  }
  for (size_t i = 0; i < fps.size(); ++i) {
    for (size_t j = i + 1; j < fps.size(); ++j) {
      EXPECT_NE(fps[i].second, fps[j].second)
          << fps[i].first << " and " << fps[j].first << " collide";
    }
  }
}

TEST(OptionsFingerprint, BlobRoundTripsAndRejectsGarbage) {
  RedFatOptions opts;
  opts.check_reads = false;
  opts.mode = RedFatOptions::Mode::kProfile;
  opts.trampoline_base = 0x7100000;
  opts.hot_threshold = 0.75;
  const std::vector<uint8_t> blob = CanonicalOptionsBlob(opts);
  Result<RedFatOptions> back = OptionsFromBlob(blob);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(CanonicalOptionsBlob(back.value()), blob);
  // Bytes 12-15 are unused: written as 0, and whatever a client sends
  // there is ignored.
  EXPECT_EQ(std::vector<uint8_t>(blob.begin() + 12, blob.begin() + 16),
            std::vector<uint8_t>(4, 0));
  std::vector<uint8_t> unused_set = blob;
  unused_set[12] = 3;
  unused_set[15] = 0xff;
  Result<RedFatOptions> ignored = OptionsFromBlob(unused_set);
  ASSERT_TRUE(ignored.ok()) << ignored.error();
  EXPECT_EQ(CanonicalOptionsBlob(ignored.value()), blob);

  std::vector<uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(OptionsFromBlob(truncated).ok());
  std::vector<uint8_t> bad_version = blob;
  bad_version[0] = 99;
  EXPECT_FALSE(OptionsFromBlob(bad_version).ok());
  std::vector<uint8_t> bad_mode = blob;
  bad_mode[16] = 9;
  EXPECT_FALSE(OptionsFromBlob(bad_mode).ok());
}

TEST(OptionsFingerprint, CacheKeyKeepsCheckSelectionKnobs) {
  // Check-selection knobs split cache entries.
  const RedFatOptions base;
  RedFatOptions no_merge;
  no_merge.merge = false;
  EXPECT_NE(CacheOptionsFingerprint(base), CacheOptionsFingerprint(no_merge));
  // hot_threshold steers tiered output: it stays in the key.
  RedFatOptions low_threshold;
  low_threshold.hot_threshold = 0.25;
  EXPECT_NE(CacheOptionsFingerprint(base), CacheOptionsFingerprint(low_threshold));
}

// --- artifact cache ----------------------------------------------------------

CacheKey KeyOf(uint64_t image_hash) {
  CacheKey k;
  k.image_hash = image_hash;
  k.options_fp = 1;
  return k;
}

std::shared_ptr<const CachedArtifact> ArtifactOfSize(size_t n) {
  auto a = std::make_shared<CachedArtifact>();
  a->image_bytes.assign(n, 0xab);
  return a;
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedOverBudget) {
  ArtifactCache cache(250);
  cache.Insert(KeyOf(1), ArtifactOfSize(100));
  cache.Insert(KeyOf(2), ArtifactOfSize(100));
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_TRUE(cache.Lookup(KeyOf(1), nullptr));
  cache.Insert(KeyOf(3), ArtifactOfSize(100));
  EXPECT_TRUE(cache.Lookup(KeyOf(1), nullptr));
  EXPECT_FALSE(cache.Lookup(KeyOf(2), nullptr));
  EXPECT_TRUE(cache.Lookup(KeyOf(3), nullptr));
  const ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 250u);
}

TEST(ArtifactCache, OversizedSingleEntryStaysResident) {
  ArtifactCache cache(10);
  cache.Insert(KeyOf(1), ArtifactOfSize(100));
  EXPECT_TRUE(cache.Lookup(KeyOf(1), nullptr));
  cache.Insert(KeyOf(2), ArtifactOfSize(100));
  EXPECT_FALSE(cache.Lookup(KeyOf(1), nullptr));
  EXPECT_TRUE(cache.Lookup(KeyOf(2), nullptr));
}

// --- warm service: hit / miss byte identity and pipeline reuse ---------------

TEST(RewriteService, HitAndMissAreByteIdenticalToOffline) {
  const BinaryImage img = SynthImage(11);
  const std::vector<uint8_t> wire = img.Serialize();
  const RedFatOptions opts;
  const OfflineResult offline = OfflineRewrite(img, opts);

  RewriteService::Config cfg;
  cfg.jobs = 2;
  RewriteService svc(cfg);

  Result<RewriteService::Outcome> miss = svc.Rewrite(wire, opts, "");
  ASSERT_TRUE(miss.ok()) << miss.error();
  EXPECT_FALSE(miss.value().cache_hit);
  EXPECT_EQ(miss.value().artifact->image_bytes, offline.image_bytes);
  EXPECT_EQ(miss.value().artifact->sitemap, offline.sitemap);

  Result<RewriteService::Outcome> hit = svc.Rewrite(wire, opts, "");
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(hit.value().artifact->image_bytes, offline.image_bytes);
  EXPECT_EQ(hit.value().artifact->sitemap, offline.sitemap);
  EXPECT_EQ(hit.value().key, miss.value().key);
  // Not a copy: the hit hands out the very object the miss built and
  // inserted.
  EXPECT_EQ(hit.value().artifact.get(), miss.value().artifact.get());

  Result<RewriteService::Outcome> fetched = svc.FetchArtifact(miss.value().key);
  ASSERT_TRUE(fetched.ok()) << fetched.error();
  EXPECT_EQ(fetched.value().artifact->image_bytes, offline.image_bytes);
  EXPECT_EQ(fetched.value().artifact.get(), miss.value().artifact.get());

  CacheKey bogus;
  bogus.image_hash = 0xdead;
  EXPECT_FALSE(svc.FetchArtifact(bogus).ok());
}

TEST(RewriteService, WarmPipelineNeverLeaksAnalysis) {
  const BinaryImage img_a = SynthImage(21);
  const BinaryImage img_b = SynthImage(22);  // different program entirely
  const RedFatOptions opts;
  RedFatOptions no_merge = opts;
  no_merge.merge = false;

  RewriteService::Config cfg;
  cfg.jobs = 2;
  RewriteService svc(cfg);

  Result<RewriteService::Outcome> first = svc.Rewrite(img_a.Serialize(), opts, "");
  ASSERT_TRUE(first.ok()) << first.error();

  Result<RewriteService::Outcome> b = svc.Rewrite(img_b.Serialize(), opts, "");
  ASSERT_TRUE(b.ok()) << b.error();
  Result<RewriteService::Outcome> a_again = svc.Rewrite(img_a.Serialize(), opts, "");
  ASSERT_TRUE(a_again.ok()) << a_again.error();
  EXPECT_TRUE(a_again.value().cache_hit);
  Result<RewriteService::Outcome> b_variant =
      svc.Rewrite(img_b.Serialize(), no_merge, "");
  ASSERT_TRUE(b_variant.ok()) << b_variant.error();

  // No analysis-state leakage across images or option sets: every warm
  // output matches a fresh offline tool's.
  EXPECT_EQ(first.value().artifact->image_bytes, OfflineRewrite(img_a, opts).image_bytes);
  EXPECT_EQ(b.value().artifact->image_bytes, OfflineRewrite(img_b, opts).image_bytes);
  EXPECT_EQ(b_variant.value().artifact->image_bytes,
            OfflineRewrite(img_b, no_merge).image_bytes);
}

// Two threads miss on distinct images at once. With one pipeline slot the
// second waits for the first; with two they rewrite side by side. Either
// way every reply is the offline rewrite.
TEST(RewriteService, ConcurrentMissesMatchOffline) {
  const BinaryImage imgs[] = {SynthImage(31), SynthImage(32)};
  const RedFatOptions opts;
  const OfflineResult offline[] = {OfflineRewrite(imgs[0], opts),
                                   OfflineRewrite(imgs[1], opts)};
  for (const unsigned jobs : {1u, 2u}) {
    RewriteService::Config cfg;
    cfg.jobs = jobs;
    RewriteService svc(cfg);
    std::shared_ptr<const CachedArtifact> replies[2];
    std::thread threads[2];
    for (size_t t = 0; t < 2; ++t) {
      threads[t] = std::thread([&, t] {
        Result<RewriteService::Outcome> r = svc.Rewrite(imgs[t].Serialize(), opts, "");
        if (r.ok() && !r.value().cache_hit) {
          replies[t] = r.value().artifact;
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (size_t t = 0; t < 2; ++t) {
      ASSERT_NE(replies[t], nullptr) << "jobs=" << jobs << " image " << t;
      EXPECT_EQ(replies[t]->image_bytes, offline[t].image_bytes) << "jobs=" << jobs;
      EXPECT_EQ(replies[t]->sitemap, offline[t].sitemap) << "jobs=" << jobs;
    }
    EXPECT_EQ(StatsCounter(svc, "full_rewrites"), 2u) << "jobs=" << jobs;
  }
}

// --- incremental re-tier -----------------------------------------------------

TEST(RewriteService, RetierMatchesOfflineTieredRewrite) {
  const BinaryImage img = SynthImage(31);
  const std::vector<uint8_t> wire = img.Serialize();
  const RedFatOptions opts;

  const OfflineResult offline_untiered = OfflineRewrite(img, opts);
  Result<BinaryImage> hardened = BinaryImage::Deserialize(offline_untiered.image_bytes);
  ASSERT_TRUE(hardened.ok());
  const std::string profile_json = ProfileJsonFromRun(hardened.value());

  // Offline tiered reference, through the same snapshot-JSON parse the
  // daemon applies.
  Result<TierProfile> profile = TierProfileFromSnapshotJson(profile_json);
  ASSERT_TRUE(profile.ok()) << profile.error();
  RedFatOptions tiered_opts = opts;
  tiered_opts.tier_profile = &profile.value();
  const OfflineResult offline_tiered = OfflineRewrite(img, tiered_opts);
  ASSERT_NE(offline_tiered.image_bytes, offline_untiered.image_bytes);

  // Warm path: untiered rewrite deposits the analysis, the tiered request
  // re-enters at the tier pass.
  RewriteService svc(RewriteService::Config{});
  Result<RewriteService::Outcome> base = svc.Rewrite(wire, opts, "");
  ASSERT_TRUE(base.ok()) << base.error();
  EXPECT_EQ(base.value().artifact->image_bytes, offline_untiered.image_bytes);
  Result<RewriteService::Outcome> retier = svc.Rewrite(wire, opts, profile_json);
  ASSERT_TRUE(retier.ok()) << retier.error();
  EXPECT_TRUE(retier.value().incremental_retier);
  EXPECT_EQ(retier.value().artifact->image_bytes, offline_tiered.image_bytes);
  EXPECT_EQ(retier.value().artifact->sitemap, offline_tiered.sitemap);

  // Cold path on a fresh service: full tiered run, same bytes.
  RewriteService cold(RewriteService::Config{});
  Result<RewriteService::Outcome> cold_tiered = cold.Rewrite(wire, opts, profile_json);
  ASSERT_TRUE(cold_tiered.ok()) << cold_tiered.error();
  EXPECT_FALSE(cold_tiered.value().incremental_retier);
  EXPECT_EQ(cold_tiered.value().artifact->image_bytes, offline_tiered.image_bytes);

  // The re-tiered artifact is now cached: the same request is a pure hit.
  Result<RewriteService::Outcome> hit = svc.Rewrite(wire, opts, profile_json);
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(hit.value().artifact->image_bytes, offline_tiered.image_bytes);
  EXPECT_EQ(StatsCounter(svc, "hits"), 1u);
  EXPECT_EQ(StatsCounter(svc, "full_rewrites"), 1u);
  EXPECT_EQ(StatsCounter(svc, "retiers"), 1u);

  // A refreshed profile misses the artifact cache but still re-tiers the
  // warm analysis instead of rerunning the pipeline.
  Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson(profile_json);
  ASSERT_TRUE(snap.ok()) << snap.error();
  ASSERT_FALSE(snap.value().sites.empty());
  snap.value().sites[0].counts[static_cast<size_t>(SiteEvent::kTrampCycles)] += 1;
  Result<RewriteService::Outcome> refreshed = svc.Rewrite(wire, opts, snap.value().ToJson());
  ASSERT_TRUE(refreshed.ok()) << refreshed.error();
  EXPECT_TRUE(refreshed.value().incremental_retier);
  EXPECT_EQ(StatsCounter(svc, "full_rewrites"), 1u);
  EXPECT_EQ(StatsCounter(svc, "retiers"), 2u);

  // A changed hot_threshold changes the options fingerprint, so no warm
  // analysis matches and the whole pipeline runs again.
  RedFatOptions other_threshold = opts;
  other_threshold.hot_threshold = 0.8;
  Result<RewriteService::Outcome> full = svc.Rewrite(wire, other_threshold, profile_json);
  ASSERT_TRUE(full.ok()) << full.error();
  EXPECT_FALSE(full.value().cache_hit);
  EXPECT_FALSE(full.value().incremental_retier);
  EXPECT_EQ(StatsCounter(svc, "hits"), 1u);
  EXPECT_EQ(StatsCounter(svc, "full_rewrites"), 2u);
  EXPECT_EQ(StatsCounter(svc, "retiers"), 2u);
}

TEST(RewriteService, UploadProfileRetiersWithoutResendingTheImage) {
  const BinaryImage img = SynthImage(31);
  const std::vector<uint8_t> wire = img.Serialize();
  const RedFatOptions opts;

  const OfflineResult offline_untiered = OfflineRewrite(img, opts);
  Result<BinaryImage> hardened = BinaryImage::Deserialize(offline_untiered.image_bytes);
  ASSERT_TRUE(hardened.ok());
  const std::string profile_json = ProfileJsonFromRun(hardened.value());
  Result<TierProfile> profile = TierProfileFromSnapshotJson(profile_json);
  ASSERT_TRUE(profile.ok());
  RedFatOptions tiered_opts = opts;
  tiered_opts.tier_profile = &profile.value();
  const OfflineResult offline_tiered = OfflineRewrite(img, tiered_opts);

  RewriteService svc(RewriteService::Config{});
  ASSERT_TRUE(svc.Rewrite(wire, opts, "").ok());
  const uint64_t image_hash = Fnv1a64(wire);
  Result<RewriteService::Outcome> up = svc.UploadProfile(image_hash, opts, profile_json);
  ASSERT_TRUE(up.ok()) << up.error();
  EXPECT_TRUE(up.value().incremental_retier);
  EXPECT_EQ(up.value().artifact->image_bytes, offline_tiered.image_bytes);

  // Without warm analysis the upload has nothing to re-tier against.
  RewriteService cold(RewriteService::Config{});
  Result<RewriteService::Outcome> missing =
      cold.UploadProfile(image_hash, opts, profile_json);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("no warm analysis"), std::string::npos);
}

TEST(RewriteService, LruBudgetEvictsOldImages) {
  RewriteService::Config cfg;
  cfg.cache_bytes = 1;  // every insert evicts everything but itself
  RewriteService svc(cfg);
  const RedFatOptions opts;

  Result<RewriteService::Outcome> a = svc.Rewrite(SynthImage(41).Serialize(), opts, "");
  ASSERT_TRUE(a.ok()) << a.error();
  Result<RewriteService::Outcome> b = svc.Rewrite(SynthImage(42).Serialize(), opts, "");
  ASSERT_TRUE(b.ok()) << b.error();

  EXPECT_FALSE(svc.FetchArtifact(a.value().key).ok());
  ASSERT_TRUE(svc.FetchArtifact(b.value().key).ok());
  EXPECT_GE(svc.cache().stats().evictions, 1u);
  // An outcome still being written out keeps its evicted artifact whole.
  EXPECT_EQ(a.value().artifact->image_bytes,
            OfflineRewrite(SynthImage(41), opts).image_bytes);
}

TEST(RewriteService, StatsReportLatencyPercentiles) {
  RewriteService svc(RewriteService::Config{});
  const RedFatOptions opts;
  ASSERT_TRUE(svc.Rewrite(SynthImage(51).Serialize(), opts, "").ok());
  const std::string json = svc.StatsJson();
  EXPECT_NE(json.find("\"requests\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request_latency_cycles\":{\"count\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- daemon end-to-end over a real socket ------------------------------------

class DaemonFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = StrFormat("/tmp/redfatd_test_%d_%s.sock", getpid(),
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name());
    Daemon::Config config;
    config.socket_path = socket_path_;
    config.service.jobs = 2;
    daemon_ = std::make_unique<Daemon>(config);
    ASSERT_TRUE(daemon_->Listen().ok());
    serve_thread_ = std::thread([this] { serve_status_ = daemon_->Serve(); });
  }

  void TearDown() override {
    if (serve_thread_.joinable()) {
      DaemonClient client;
      if (client.Connect(socket_path_).ok()) {
        (void)client.Shutdown();
      } else {
        daemon_->Stop();
      }
      serve_thread_.join();
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.error();
    }
  }

  std::string socket_path_;
  std::unique_ptr<Daemon> daemon_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(DaemonFixture, ConcurrentClientsGetByteIdenticalImages) {
  const RedFatOptions opts;
  constexpr int kClients = 4;
  std::vector<BinaryImage> images;
  std::vector<OfflineResult> offline;
  for (int i = 0; i < kClients; ++i) {
    images.push_back(SynthImage(60 + i % 2));  // two distinct programs
    offline.push_back(OfflineRewrite(images.back(), opts));
  }

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      DaemonClient client;
      Status c = client.Connect(socket_path_);
      if (!c.ok()) {
        failures[i] = c.error();
        return;
      }
      // Each client sends its request twice: the second round is served
      // from the cache and must be identical.
      for (int round = 0; round < 2; ++round) {
        Result<DaemonClient::RewriteReply> r =
            client.Rewrite(images[i].Serialize(), opts, "");
        if (!r.ok()) {
          failures[i] = r.error();
          return;
        }
        if (r.value().image_bytes != offline[i].image_bytes ||
            r.value().sitemap != offline[i].sitemap) {
          failures[i] = "daemon bytes differ from offline rewrite";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(failures[i].empty()) << "client " << i << ": " << failures[i];
  }

  DaemonClient stats_client;
  ASSERT_TRUE(stats_client.Connect(socket_path_).ok());
  Result<std::string> stats = stats_client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_NE(stats.value().find("\"hits\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"queue_depth\""), std::string::npos);
}

TEST_F(DaemonFixture, UploadProfileRoundTripMatchesOfflineTieredBuild) {
  const BinaryImage img = SynthImage(70);
  const RedFatOptions opts;
  const OfflineResult offline_untiered = OfflineRewrite(img, opts);
  Result<BinaryImage> hardened = BinaryImage::Deserialize(offline_untiered.image_bytes);
  ASSERT_TRUE(hardened.ok());
  const std::string profile_json = ProfileJsonFromRun(hardened.value());
  Result<TierProfile> profile = TierProfileFromSnapshotJson(profile_json);
  ASSERT_TRUE(profile.ok());
  RedFatOptions tiered_opts = opts;
  tiered_opts.tier_profile = &profile.value();
  const OfflineResult offline_tiered = OfflineRewrite(img, tiered_opts);

  DaemonClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());
  Result<DaemonClient::RewriteReply> base =
      client.Rewrite(img.Serialize(), opts, "");
  ASSERT_TRUE(base.ok()) << base.error();
  EXPECT_EQ(base.value().image_bytes, offline_untiered.image_bytes);

  Result<DaemonClient::RewriteReply> up =
      client.UploadProfile(base.value().key.image_hash, opts, profile_json);
  ASSERT_TRUE(up.ok()) << up.error();
  EXPECT_TRUE(up.value().incremental_retier);
  EXPECT_EQ(up.value().image_bytes, offline_tiered.image_bytes);

  // The re-tiered artifact is fetchable by its key.
  Result<DaemonClient::RewriteReply> fetched = client.FetchArtifact(up.value().key);
  ASSERT_TRUE(fetched.ok()) << fetched.error();
  EXPECT_EQ(fetched.value().image_bytes, offline_tiered.image_bytes);

  // An unknown key is a clean kNotFound-class error, not a hang or close.
  CacheKey bogus;
  bogus.image_hash = 0xfeed;
  EXPECT_FALSE(client.FetchArtifact(bogus).ok());
}

TEST_F(DaemonFixture, MalformedFramesAreRejectedWithoutKillingTheDaemon) {
  // Raw garbage (bad magic): the daemon answers with a malformed-frame
  // error (when it can) and closes that connection only.
  {
    Result<int> fd = ConnectUnix(socket_path_);
    ASSERT_TRUE(fd.ok()) << fd.error();
    const uint8_t garbage[16] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_EQ(write(fd.value(), garbage, sizeof(garbage)),
              static_cast<ssize_t>(sizeof(garbage)));
    Result<Frame> reply = ReadFrame(fd.value());
    if (reply.ok()) {
      EXPECT_EQ(reply.value().type, MsgType::kError);
    }
    close(fd.value());
  }

  // Well-framed but truncated body: error reply, connection stays usable.
  {
    Result<int> fd = ConnectUnix(socket_path_);
    ASSERT_TRUE(fd.ok()) << fd.error();
    std::vector<uint8_t> short_body = {0x01};  // kRewrite body cut mid-field
    ASSERT_TRUE(WriteFrame(fd.value(), MsgType::kRewrite, short_body).ok());
    Result<Frame> reply = ReadFrame(fd.value());
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().type, MsgType::kError);
    // Same connection, now a valid request.
    ASSERT_TRUE(WriteFrame(fd.value(), MsgType::kStats, {}).ok());
    Result<Frame> stats = ReadFrame(fd.value());
    ASSERT_TRUE(stats.ok()) << stats.error();
    EXPECT_EQ(stats.value().type, MsgType::kOk);
    close(fd.value());
  }

  // The daemon survived both abuses.
  DaemonClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());
  Result<std::string> stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << (stats.ok() ? "" : stats.error());
}

// The joined encoding of a kOk rewrite reply, field by field.
std::vector<uint8_t> JoinedReplyBody(uint8_t flags, const CacheKey& key,
                                     const OfflineResult& artifact) {
  std::vector<uint8_t> body;
  PutU8(&body, flags);
  PutU64(&body, key.image_hash);
  PutU64(&body, key.options_fp);
  PutU64(&body, key.profile_fp);
  PutBlob(&body, artifact.image_bytes);
  PutBlob(&body, artifact.sitemap);
  return body;
}

// Every reply type the daemon writes from its parts equals the joined
// PutU8/PutU64/PutBlob encoding of its fields: a miss, a hit, a re-tier, a
// fetch, an error and the stats line.
TEST_F(DaemonFixture, RepliesEqualTheJoinedFieldEncoding) {
  const BinaryImage img = SynthImage(80);
  const std::vector<uint8_t> wire = img.Serialize();
  const RedFatOptions opts;
  const OfflineResult untiered = OfflineRewrite(img, opts);
  Result<BinaryImage> hardened = BinaryImage::Deserialize(untiered.image_bytes);
  ASSERT_TRUE(hardened.ok());
  const std::string profile_json = ProfileJsonFromRun(hardened.value());
  Result<TierProfile> profile = TierProfileFromSnapshotJson(profile_json);
  ASSERT_TRUE(profile.ok()) << profile.error();
  RedFatOptions tiered_opts = opts;
  tiered_opts.tier_profile = &profile.value();
  const OfflineResult tiered = OfflineRewrite(img, tiered_opts);

  CacheKey key;
  key.image_hash = Fnv1a64(wire);
  key.options_fp = CacheOptionsFingerprint(opts);
  CacheKey tiered_key = key;
  tiered_key.profile_fp = TierProfileFingerprint(profile.value());

  Result<int> fd = ConnectUnix(socket_path_);
  ASSERT_TRUE(fd.ok()) << fd.error();
  const auto exchange = [&](MsgType type, const std::vector<uint8_t>& request) {
    EXPECT_TRUE(WriteFrame(fd.value(), type, request).ok());
    Result<Frame> reply = ReadFrame(fd.value());
    EXPECT_TRUE(reply.ok()) << (reply.ok() ? "" : reply.error());
    return reply.ok() ? reply.value() : Frame{};
  };
  std::vector<uint8_t> rewrite;
  PutBlob(&rewrite, CanonicalOptionsBlob(opts));
  PutBlob(&rewrite, std::string());
  rewrite.insert(rewrite.end(), wire.begin(), wire.end());
  std::vector<uint8_t> upload;
  PutU64(&upload, key.image_hash);
  PutBlob(&upload, CanonicalOptionsBlob(opts));
  PutBlob(&upload, profile_json);
  std::vector<uint8_t> fetch;
  PutU64(&fetch, tiered_key.image_hash);
  PutU64(&fetch, tiered_key.options_fp);
  PutU64(&fetch, tiered_key.profile_fp);

  const Frame miss = exchange(MsgType::kRewrite, rewrite);
  EXPECT_EQ(miss.type, MsgType::kOk);
  EXPECT_EQ(miss.body, JoinedReplyBody(0, key, untiered));
  const Frame hit = exchange(MsgType::kRewrite, rewrite);
  EXPECT_EQ(hit.body, JoinedReplyBody(1, key, untiered));
  const Frame retier = exchange(MsgType::kUploadProfile, upload);
  EXPECT_EQ(retier.body, JoinedReplyBody(2, tiered_key, tiered));
  const Frame fetched = exchange(MsgType::kFetchArtifact, fetch);
  EXPECT_EQ(fetched.body, JoinedReplyBody(1, tiered_key, tiered));

  std::vector<uint8_t> unknown;
  PutU64(&unknown, 0xfeed);
  PutU64(&unknown, 0);
  PutU64(&unknown, 0);
  const Frame error = exchange(MsgType::kFetchArtifact, unknown);
  EXPECT_EQ(error.type, MsgType::kError);
  CacheKey unknown_key;
  unknown_key.image_hash = 0xfeed;
  std::vector<uint8_t> error_body;
  PutU32(&error_body, static_cast<uint32_t>(WireError::kNotFound));
  PutBlob(&error_body, "no cached artifact for key " + unknown_key.ToString());
  EXPECT_EQ(error.body, error_body);

  const Frame stats = exchange(MsgType::kStats, {});
  BodyReader r(stats.body);
  Result<std::string> json = r.Str();
  ASSERT_TRUE(json.ok()) << json.error();
  EXPECT_TRUE(r.Done());
  std::vector<uint8_t> stats_body;
  PutBlob(&stats_body, json.value());
  EXPECT_EQ(stats.body, stats_body);
  close(fd.value());
}

// A client that hangs up before reading its reply costs only its own
// connection: the daemon's reply write fails with EPIPE instead of raising
// SIGPIPE, which would end the whole process.
TEST_F(DaemonFixture, ClientThatHangsUpBeforeItsReplyLeavesTheDaemonUp) {
  std::vector<uint8_t> rewrite;
  PutBlob(&rewrite, CanonicalOptionsBlob(RedFatOptions{}));
  PutBlob(&rewrite, std::string());
  const std::vector<uint8_t> wire = SynthImage(85).Serialize();
  rewrite.insert(rewrite.end(), wire.begin(), wire.end());
  for (int round = 0; round < 2; ++round) {  // a miss, then a hit
    Result<int> fd = ConnectUnix(socket_path_);
    ASSERT_TRUE(fd.ok()) << fd.error();
    ASSERT_TRUE(WriteFrame(fd.value(), MsgType::kRewrite, rewrite).ok());
    close(fd.value());
  }
  DaemonClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());
  Result<DaemonClient::RewriteReply> reply = client.Rewrite(wire, RedFatOptions{}, "");
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value().image_bytes, OfflineRewrite(SynthImage(85), RedFatOptions{}).image_bytes);
}

// Mappings in this process: every live or unjoined thread holds a stack and
// its guard page.
size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    ++n;
  }
  return n;
}

TEST_F(DaemonFixture, FinishedConnectionsReleaseTheirThreads) {
  // One connection at a time, each closed before the next opens: the
  // accept loop must join the finished handlers instead of keeping one
  // stack per connection served (two mappings each) until shutdown.
  const auto serve_one = [this] {
    DaemonClient client;
    ASSERT_TRUE(client.Connect(socket_path_).ok());
    ASSERT_TRUE(client.Stats().ok());
  };
  for (int i = 0; i < 4; ++i) {
    serve_one();
  }
  const size_t before = MappingCount();
  for (int i = 0; i < 64; ++i) {
    serve_one();
  }
  const size_t after = MappingCount();
  EXPECT_LT(after, before + 32) << before << " -> " << after << " mappings";
}

// --- framing -------------------------------------------------------------

long MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// A 9-byte header that declares kMaxFramePayload and then hangs up: the
// read fails with a mid-frame EOF instead of first reserving 1 GiB.
TEST(FrameProtocol, HostileDeclaredLengthAllocatesOnlyWhatArrives) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> header;
  PutU32(&header, kFrameMagic);
  PutU32(&header, kMaxFramePayload);
  PutU8(&header, static_cast<uint8_t>(MsgType::kRewrite));
  ASSERT_EQ(write(fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  close(fds[1]);
  const long before_kb = MaxRssKb();
  Result<Frame> frame = ReadFrame(fds[0]);
  const long grown_kb = MaxRssKb() - before_kb;
  close(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.error().find("EOF mid-frame"), std::string::npos) << frame.error();
  EXPECT_LT(grown_kb, 64 * 1024) << "max RSS grew by " << grown_kb << " KiB";
}

// Bodies on both sides of every growth step arrive intact, each written as
// 1-4 parts and read back as the joined body. A blocking writev on a
// stream socket only returns early when a signal interrupts it, so a
// second thread keeps interrupting the writer with a no-op signal while a
// small send buffer keeps it blocked: WriteFrame's short-write and EINTR
// retries run.
TEST(FrameProtocol, BodiesOfEverySizeRoundTrip) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  struct sigaction nop {};
  nop.sa_handler = [](int) {};
  struct sigaction old_action {};
  ASSERT_EQ(sigaction(SIGUSR1, &nop, &old_action), 0);  // no SA_RESTART

  const std::vector<size_t> sizes = {0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1,
                                     (3 << 20) + 3};
  std::vector<std::vector<uint8_t>> bodies;
  for (size_t n : sizes) {
    for (size_t parts = 1; parts <= 4; ++parts) {
      std::vector<uint8_t> body(n);
      for (size_t i = 0; i < n; ++i) {
        body[i] = static_cast<uint8_t>(i * 131 + n + parts);
      }
      bodies.push_back(std::move(body));
    }
  }
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (size_t k = 0; k < bodies.size(); ++k) {
      // Uneven cuts; the three-part form has an empty part.
      const BodyPart whole(bodies[k]);
      const size_t a = whole.size() / 3;
      const size_t b = whole.size() / 2;
      const size_t c = whole.size() - whole.size() / 7;
      Status st;
      switch (k % 4) {
        case 0:
          st = WriteFrame(fds[1], MsgType::kOk, {whole});
          break;
        case 1:
          st = WriteFrame(fds[1], MsgType::kOk, {whole.first(a), whole.subspan(a)});
          break;
        case 2:
          st = WriteFrame(fds[1], MsgType::kOk,
                          {whole.first(a), whole.subspan(a, 0), whole.subspan(a)});
          break;
        default:
          st = WriteFrame(fds[1], MsgType::kOk,
                          {whole.first(a), whole.subspan(a, b - a), whole.subspan(b, c - b),
                           whole.subspan(c)});
          break;
      }
      EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error());
    }
    writing.store(false);
    close(fds[1]);
  });
  std::thread interrupter([&] {
    while (writing.load()) {
      pthread_kill(writer.native_handle(), SIGUSR1);
      usleep(50);
    }
  });
  bool ok = true;
  for (size_t k = 0; ok && k < bodies.size(); ++k) {
    Result<Frame> frame = ReadFrame(fds[0]);
    ok = frame.ok() && frame.value().type == MsgType::kOk && frame.value().body == bodies[k];
    EXPECT_TRUE(ok) << bodies[k].size() << "-byte frame in " << k % 4 + 1 << " parts: "
                    << (frame.ok() ? "wrong type or body" : frame.error());
  }
  if (ok) {
    EXPECT_FALSE(ReadFrame(fds[0]).ok());  // clean EOF after the last frame
  }
  uint8_t sink[4096];  // drain whatever is left so the writer always finishes
  while (read(fds[0], sink, sizeof(sink)) > 0) {
  }
  interrupter.join();  // before the writer's join, which frees its handle
  writer.join();
  close(fds[0]);
  sigaction(SIGUSR1, &old_action, nullptr);
}

// A one-connection stand-in for redfatd: accepts one client and, for each
// canned reply, reads one request frame and answers with the reply's raw
// bytes; then it closes the connection.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::vector<std::vector<uint8_t>> replies)
      : path_(StrFormat("/tmp/redfatd_test_%d_fake.sock", getpid())) {
    Result<int> fd = ListenUnix(path_);
    EXPECT_TRUE(fd.ok()) << (fd.ok() ? "" : fd.error());
    listen_fd_ = fd.ok() ? fd.value() : -1;
    thread_ = std::thread([this, replies = std::move(replies)] {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      for (const std::vector<uint8_t>& reply : replies) {
        Result<Frame> request = ReadFrame(conn);
        if (!request.ok()) {
          break;
        }
        requests_.push_back(request.value());
        if (write(conn, reply.data(), reply.size()) != static_cast<ssize_t>(reply.size())) {
          break;
        }
      }
      close(conn);
    });
  }
  ~FakeDaemon() {
    Join();
    close(listen_fd_);
    unlink(path_.c_str());
  }
  FakeDaemon(const FakeDaemon&) = delete;
  FakeDaemon& operator=(const FakeDaemon&) = delete;

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  const std::string& path() const { return path_; }
  // Valid after Join().
  const std::vector<Frame>& requests() const { return requests_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::vector<Frame> requests_;
  std::thread thread_;
};

// Raw frame bytes whose header declares `declared` payload bytes, whatever
// the body holds.
std::vector<uint8_t> RawFrame(MsgType type, const std::vector<uint8_t>& body,
                              uint32_t declared) {
  std::vector<uint8_t> out;
  PutU32(&out, kFrameMagic);
  PutU32(&out, declared);
  PutU8(&out, static_cast<uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<uint8_t> RawFrame(MsgType type, const std::vector<uint8_t>& body) {
  return RawFrame(type, body, static_cast<uint32_t>(body.size() + 1));
}

// The client writes each request as the joined field encoding and decodes
// a well-formed reply into every RewriteReply field.
TEST(DaemonClientWire, RequestsAreTheJoinedFieldEncoding) {
  const std::vector<uint8_t> wire = SynthImage(90).Serialize();
  const RedFatOptions opts;
  const std::string profile_json = "{\"counters\":{}}";
  CacheKey key;
  key.image_hash = 0x1111;
  key.options_fp = 0x2222;
  key.profile_fp = 0x3333;
  const OfflineResult artifact{{1, 2, 3, 4, 5}, "# redfat site map: id addr rw kind\n"};
  const std::vector<uint8_t> reply = RawFrame(MsgType::kOk, JoinedReplyBody(3, key, artifact));

  FakeDaemon fake({reply, reply, reply});
  DaemonClient client;
  ASSERT_TRUE(client.Connect(fake.path()).ok());
  Result<DaemonClient::RewriteReply> rewritten = client.Rewrite(wire, opts, profile_json);
  Result<DaemonClient::RewriteReply> uploaded =
      client.UploadProfile(key.image_hash, opts, profile_json);
  Result<DaemonClient::RewriteReply> fetched = client.FetchArtifact(key);
  fake.Join();
  for (const Result<DaemonClient::RewriteReply>* r : {&rewritten, &uploaded, &fetched}) {
    ASSERT_TRUE(r->ok()) << r->error();
    EXPECT_EQ(r->value().key, key);
    EXPECT_TRUE(r->value().cache_hit);
    EXPECT_TRUE(r->value().incremental_retier);
    EXPECT_EQ(r->value().image_bytes, artifact.image_bytes);
    EXPECT_EQ(r->value().sitemap, artifact.sitemap);
  }

  ASSERT_EQ(fake.requests().size(), 3u);
  std::vector<uint8_t> rewrite;
  PutBlob(&rewrite, CanonicalOptionsBlob(opts));
  PutBlob(&rewrite, profile_json);
  rewrite.insert(rewrite.end(), wire.begin(), wire.end());
  EXPECT_EQ(fake.requests()[0].type, MsgType::kRewrite);
  EXPECT_EQ(fake.requests()[0].body, rewrite);
  std::vector<uint8_t> upload;
  PutU64(&upload, key.image_hash);
  PutBlob(&upload, CanonicalOptionsBlob(opts));
  PutBlob(&upload, profile_json);
  EXPECT_EQ(fake.requests()[1].type, MsgType::kUploadProfile);
  EXPECT_EQ(fake.requests()[1].body, upload);
  std::vector<uint8_t> fetch;
  PutU64(&fetch, key.image_hash);
  PutU64(&fetch, key.options_fp);
  PutU64(&fetch, key.profile_fp);
  EXPECT_EQ(fake.requests()[2].type, MsgType::kFetchArtifact);
  EXPECT_EQ(fake.requests()[2].body, fetch);
}

// Malformed replies get the errors that decoding the whole frame first
// gave, and the client stays at a frame boundary: the next request on the
// same connection still gets its reply.
TEST(DaemonClientWire, MalformedRepliesGiveTypedErrors) {
  CacheKey key;
  key.image_hash = 7;
  const OfflineResult artifact{std::vector<uint8_t>(100, 0x5a), "map\n"};
  const std::vector<uint8_t> good = JoinedReplyBody(1, key, artifact);
  std::vector<uint8_t> long_blob;  // declares 1000 image bytes, carries 10
  PutU8(&long_blob, 1);
  PutU64(&long_blob, 7);
  PutU64(&long_blob, 0);
  PutU64(&long_blob, 0);
  PutU32(&long_blob, 1000);
  long_blob.insert(long_blob.end(), 10, 0x5a);
  std::vector<uint8_t> trailing = good;
  trailing.insert(trailing.end(), {0xde, 0xad, 0xbe});
  std::vector<uint8_t> wire_error;
  PutU32(&wire_error, static_cast<uint32_t>(WireError::kNotFound));
  PutBlob(&wire_error, std::string("no cached artifact"));
  struct Case {
    std::vector<uint8_t> reply;
    std::string error;
  };
  const std::vector<Case> cases = {
      {RawFrame(MsgType::kOk, long_blob), "frame body: truncated blob"},
      {RawFrame(MsgType::kOk, trailing), "reply: trailing bytes"},
      {RawFrame(MsgType::kOk, {1, 2}), "frame body: truncated u64"},
      {RawFrame(MsgType::kError, wire_error), "daemon error 3: no cached artifact"},
      {RawFrame(MsgType::kStats, good), "reply: unexpected frame type"},
  };
  for (const Case& c : cases) {
    FakeDaemon fake({c.reply, RawFrame(MsgType::kOk, good)});
    DaemonClient client;
    ASSERT_TRUE(client.Connect(fake.path()).ok());
    Result<DaemonClient::RewriteReply> bad = client.FetchArtifact(key);
    ASSERT_FALSE(bad.ok()) << c.error;
    EXPECT_EQ(bad.error(), c.error);
    Result<DaemonClient::RewriteReply> next = client.FetchArtifact(key);
    ASSERT_TRUE(next.ok()) << c.error << ", then: " << next.error();
    EXPECT_EQ(next.value().image_bytes, artifact.image_bytes);
  }
}

// A reply header that declares a 1 GiB image and then hangs up: the client
// fails with a mid-frame EOF instead of first reserving the image buffer.
TEST(DaemonClientWire, HostileDeclaredImageAllocatesOnlyWhatArrives) {
  std::vector<uint8_t> head;
  PutU8(&head, 1);
  PutU64(&head, 1);
  PutU64(&head, 2);
  PutU64(&head, 3);
  const uint32_t image_len = kMaxFramePayload - 1 - static_cast<uint32_t>(head.size()) - 8;
  PutU32(&head, image_len);
  FakeDaemon fake({RawFrame(MsgType::kOk, head, kMaxFramePayload)});
  DaemonClient client;
  ASSERT_TRUE(client.Connect(fake.path()).ok());
  const long before_kb = MaxRssKb();
  Result<DaemonClient::RewriteReply> reply = client.FetchArtifact(CacheKey{});
  const long grown_kb = MaxRssKb() - before_kb;
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.error().find("EOF mid-frame"), std::string::npos) << reply.error();
  EXPECT_LT(grown_kb, 64 * 1024) << "max RSS grew by " << grown_kb << " KiB";
}

TEST(DaemonClientFallback, ConnectFailsFastWhenNoDaemonListens) {
  DaemonClient client;
  Status s = client.Connect("/tmp/redfatd_test_no_such_daemon.sock");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(client.connected());
}

TEST(DaemonListen, SecondDaemonOnALiveSocketIsRejected) {
  const std::string path = StrFormat("/tmp/redfatd_test_%d_dup.sock", getpid());
  Daemon::Config config;
  config.socket_path = path;
  Daemon first(config);
  ASSERT_TRUE(first.Listen().ok());
  std::thread serve([&] { (void)first.Serve(); });

  Daemon second(config);
  Status s = second.Listen();
  EXPECT_FALSE(s.ok());

  DaemonClient client;
  ASSERT_TRUE(client.Connect(path).ok());
  ASSERT_TRUE(client.Shutdown().ok());
  serve.join();
}

}  // namespace
}  // namespace redfat
