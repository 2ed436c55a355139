// serve-mix: an in-process Daemon behind a closed loop of DaemonClient
// connections over a Unix socket. kClients clients plus a kPoolJobs-wide
// service pool stay within a 4-core machine. Each client owns its own
// images (so every pass of one seed sees the same hit/miss/re-tier
// sequence) and replays one seeded stream over them, with nothing keeping
// the two clients in step. Per image the stream holds, in an order its
// dependencies allow:
//   * 2 first-touch misses: the default options, then a second option set
//     (another hot threshold: a distinct cache key, the same full pipeline);
//   * kProfileVariants profile uploads (UploadProfile) that re-tier on the
//     default options' warm analysis;
//   * kHitsPerImage repeated rewrites (one in four with the second option
//     set) and one repeat of each upload, in seeded order, which hit.
// The images' requests are interleaved in seeded order, so misses, re-tiers
// and hits mix, and one client's hits can meet the other's pipeline runs.
// This mix (per image 2 misses, 3 re-tiers, 15 hits: 75% hits) is an
// assumption, not a measured request mix: a daemon's first moments over a
// fixed set of images, each of whose artifacts is fetched again a few times.
// The corpus is large images: Kraken kernels and synth programs heavy in
// filler functions. Profiles are made during setup, so the timed part runs
// no guest code: the pipeline and serve layers do all the work.
//
// Every pass starts a fresh daemon (an empty cache); the pass's timed
// window is from the clients' first request to the last reply. Every reply
// must equal the first reply of its key, and after the timed passes each
// first reply is compared with an offline RedFatTool::Instrument run with
// the same options and profile.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "src/core/sitemap.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/serve/service.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace redfat;

constexpr int kClients = 2;
constexpr unsigned kPoolJobs = 2;
constexpr int kKrakenPerClient = 2;
constexpr int kSynthPerClient = 1;
constexpr int kProfileVariants = 3;
constexpr int kHitsPerImage = 12;
constexpr uint64_t kProfileIters = 600;
// A read-heavy, a write-stream, a parser and an ALU-bound kernel (indices
// into KrakenSuite()).
constexpr size_t kKrakenPicks[kClients * kKrakenPerClient] = {0, 5, 8, 10};
constexpr double kAltHotThreshold = 0.85;

enum class Kind { kRewrite, kUpload };
enum class Expect { kMiss, kHit, kRetier };

struct Request {
  Kind kind = Kind::kRewrite;
  int image = 0;
  bool alt_opts = false;
  int variant = -1;  // profile variant; -1 = untiered
  Expect expect = Expect::kMiss;

  int Key() const { return image * 16 + (alt_opts ? 8 : 0) + variant + 1; }
};

struct Reply {
  std::vector<uint8_t> image_bytes;
  std::string sitemap;
};

// Per-client results of one pass.
struct ClientLog {
  Checker checker;
  std::vector<double> rtt_ms;
  std::vector<double> miss_ms;
  double check_ms = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t retiers = 0;
};

// Extracts the number after `"field":` inside the `"object":{...}` member of
// the daemon's StatsJson line; 0 when absent.
double StatsField(const std::string& json, const std::string& object,
                  const std::string& field) {
  const size_t obj = json.find("\"" + object + "\":{");
  if (obj == std::string::npos) {
    return 0;
  }
  const size_t at = json.find("\"" + field + "\":", obj);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtod(json.c_str() + at + field.size() + 3, nullptr);
}

class ServeMix : public Workload {
 public:
  explicit ServeMix(std::string socket_path)
      : socket_path_(std::move(socket_path)), first_(kClients) {
    alt_opts_.hot_threshold = kAltHotThreshold;
  }

  void Setup(uint64_t seed, VmTotals* vm) override {
    constexpr int kPerClient = kKrakenPerClient + kSynthPerClient;
    images_.assign(kClients * kPerClient, BinaryImage());
    wires_.assign(images_.size(), {});
    hashes_.assign(images_.size(), 0);
    const double t0 = NowMs();
    ParallelFor(images_.size(), [&](size_t i, unsigned /*worker*/) {
      const int c = static_cast<int>(i) / kPerClient;
      const int k = static_cast<int>(i) % kPerClient;
      if (k < kKrakenPerClient) {
        KrakenBenchmark b = KrakenSuite()[kKrakenPicks[c * kKrakenPerClient + k]];
        b.params.seed = MixSeed(b.params.seed, seed);
        images_[i] = BuildKrakenBenchmark(b);
      } else {
        // Check-heavy code in a Kraken-sized image, so every image's hits
        // move replies of about the same size.
        SynthParams p;
        p.seed = MixSeed(
            0xdc0 + static_cast<uint64_t>(c * kSynthPerClient + k - kKrakenPerClient), seed);
        p.mem_pct = 35;
        p.stream_pct = 6;
        p.max_accesses_per_ptr = 4;
        p.block_len = 120;
        p.filler_funcs = 500;
        p.filler_units_per_func = 10;
        images_[i] = GenerateSynthProgram(p);
      }
      wires_[i] = images_[i].Serialize();
      hashes_[i] = Fnv1a64(wires_[i]);
    });
    gen_ms_ = NowMs() - t0;

    // The profile runs, on the worker threads like the other workloads'
    // guest runs.
    profiles_.assign(images_.size(), {});
    overhead_.assign(images_.size(), 0.0);
    growth_.assign(images_.size(), 0.0);
    Checker checker;
    PassContext ctx;
    ctx.checker = &checker;
    ctx.vm = vm;
    RunOps(ctx, images_.size(), [this](size_t i, PassContext& c) { ProfileImage(i, c); });
    REDFAT_CHECK(checker.failed() == 0);

    BuildStreams(seed);

    // A daemon start and stop, as every pass does.
    Daemon daemon(DaemonConfig());
    REDFAT_CHECK(daemon.Listen().ok());
    std::thread server([&daemon] { (void)daemon.Serve(); });
    daemon.Stop();
    server.join();
  }

  double gen_ms() const override { return gen_ms_; }

  size_t Pass(PassContext& ctx) override {
    Daemon daemon(DaemonConfig());
    const Status listening = daemon.Listen();
    REDFAT_CHECK(listening.ok());
    std::thread server([&daemon] { (void)daemon.Serve(); });

    std::vector<ClientLog> logs(kClients);
    std::mutex mu;
    std::condition_variable cv;
    int ready = 0;
    bool go = false;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        DaemonClient client;
        const Status connected = client.Connect(socket_path_);
        {
          std::unique_lock<std::mutex> lock(mu);
          ++ready;
          cv.notify_all();
          cv.wait(lock, [&go] { return go; });
        }
        logs[c].checker.Expect(connected.ok(), "client connect");
        if (connected.ok()) {
          for (const Request& r : streams_[c]) {
            RunRequest(ctx, c, r, &client, &logs[c]);
          }
        }
      });
    }
    double t_start = 0;
    uint64_t c_start = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&ready] { return ready == kClients; });
      t_start = NowMs();
      c_start = HostCycleNow();
      go = true;
      cv.notify_all();
    }
    for (std::thread& t : clients) {
      t.join();
    }
    const double t_end = NowMs();
    const uint64_t c_end = HostCycleNow();
    ctx.wall_ms = t_end - t_start;

    std::string stats;
    {
      DaemonClient control;
      REDFAT_CHECK(control.Connect(socket_path_).ok());
      Result<std::string> s = control.Stats();
      ctx.checker->Expect(s.ok(), "daemon stats");
      if (s.ok()) {
        stats = s.value();
      }
      ctx.checker->Expect(control.Shutdown().ok(), "daemon shutdown");
    }
    server.join();
    // Hand the pass's freed cache memory back, so peak_rss_mb measures one
    // pass's working set rather than allocator history.
    malloc_trim(0);

    size_t requests = 0;
    ClientLog total;
    double rtt_sum = 0;
    for (ClientLog& log : logs) {
      ctx.checker->Merge(log.checker);
      requests += log.rtt_ms.size();
      for (double r : log.rtt_ms) {
        rtt_sum += r;
      }
      total.check_ms += log.check_ms;
      total.hits += log.hits;
      total.misses += log.misses;
      total.retiers += log.retiers;
      if (ctx.op_ms != nullptr) {
        ctx.op_ms->insert(ctx.op_ms->end(), log.rtt_ms.begin(), log.rtt_ms.end());
        ctx.rewrite_ms->insert(ctx.rewrite_ms->end(), log.miss_ms.begin(), log.miss_ms.end());
      }
    }
    if (ctx.tracer != nullptr && requests > 0) {
      // Daemon-side service time: the service's latency histogram (host
      // cycles), converted with the cycle rate seen over the window.
      const double cycles_per_ms =
          static_cast<double>(c_end - c_start) / std::max(ctx.wall_ms, 1e-9);
      const double service_ms = StatsField(stats, "request_latency_cycles", "mean") *
                                StatsField(stats, "request_latency_cycles", "count") /
                                cycles_per_ms;
      // Clients run in parallel: per-layer times are per-client averages, so
      // they add up to the pass's wall time.
      ctx.tracer->Attribute(Layer::kService, service_ms / kClients);
      ctx.tracer->Attribute(Layer::kTransport, (rtt_sum - service_ms) / kClients);
      ctx.tracer->Attribute(Layer::kCheck, total.check_ms / kClients);
      const double n = static_cast<double>(requests);
      MetricSink* m = ctx.layers;
      m->Add("serve.rtt_ms", rtt_sum / n);
      m->Add("serve.service_ms", service_ms / n);
      m->Add("serve.transport_ms", (rtt_sum - service_ms) / n);
      m->Add("serve.hits", static_cast<double>(total.hits));
      m->Add("serve.misses", static_cast<double>(total.misses));
      m->Add("serve.retiers", static_cast<double>(total.retiers));
      m->Add("serve.hit_ratio", static_cast<double>(total.hits) / n);
      m->Add("serve.queue_depth_p99", StatsField(stats, "queue_depth", "p99"));
      // The daemon keeps its PipelineStats to itself: replay this pass's
      // full-pipeline misses offline, outside the timed window, for the
      // pipeline.* counts.
      PassContext replay = ctx;
      replay.tracer = nullptr;
      for (const std::vector<Request>& stream : streams_) {
        for (const Request& r : stream) {
          if (r.expect == Expect::kMiss) {
            InstrumentResult ir;
            Instrument(replay, RedFatTool(r.alt_opts ? alt_opts_ : default_opts_),
                       images_[r.image], nullptr, &ir);
          }
        }
      }
    }
    return requests;
  }

  void Finish(Checker* checker, MetricSink* e2e) override {
    for (int c = 0; c < kClients; ++c) {
      for (const auto& [key, reply] : first_[c]) {
        const Request& r = key_requests_.at(key);
        RedFatOptions opts = r.alt_opts ? alt_opts_ : default_opts_;
        TierProfile profile;
        if (r.variant >= 0) {
          Result<TierProfile> p = TierProfileFromSnapshotJson(profiles_[r.image][r.variant]);
          REDFAT_CHECK(p.ok());
          profile = std::move(p).value();
          opts.tier_profile = &profile;
        }
        Result<InstrumentResult> offline = RedFatTool(opts).Instrument(images_[r.image]);
        checker->Expect(offline.ok() &&
                            offline.value().image.Serialize() == reply.image_bytes &&
                            SerializeSiteMap(offline.value().sites) == reply.sitemap,
                        StrFormat("reply for image %d differs from offline rewrite", r.image));
      }
    }
    e2e->Set("overhead_x", Geomean(overhead_));
    e2e->Set("image_growth_x", Geomean(growth_));
  }

 private:
  // A telemetry-on run of image i's default rewrite gives the profile its
  // client uploads; variants perturb one site's cycles so each upload has
  // its own profile fingerprint. Thread-safe for distinct i.
  void ProfileImage(size_t i, PassContext& ctx) {
    const BinaryImage& img = images_[i];
    Result<InstrumentResult> hard = RedFatTool(default_opts_).Instrument(img);
    REDFAT_CHECK(hard.ok());
    TelemetryRegistry reg;
    RunConfig cfg;
    cfg.policy = Policy::kLog;
    cfg.telemetry = &reg;
    cfg.inputs = {kProfileIters, 0x3f};
    const RunOutcome prof = Run(ctx, hard.value().image, RuntimeKind::kRedFat, cfg);
    RunConfig base_cfg;
    base_cfg.policy = Policy::kLog;
    base_cfg.inputs = cfg.inputs;
    const RunOutcome base = Run(ctx, img, RuntimeKind::kBaseline, base_cfg);
    REDFAT_CHECK(prof.result.reason == HaltReason::kExit &&
                 base.result.reason == HaltReason::kExit);
    overhead_[i] =
        static_cast<double>(prof.result.cycles) / static_cast<double>(base.result.cycles);
    growth_[i] = static_cast<double>(hard.value().image.TotalBytes()) /
                 static_cast<double>(img.TotalBytes());
    TelemetrySnapshot snap = reg.Snapshot();
    REDFAT_CHECK(!snap.sites.empty());
    for (int v = 0; v < kProfileVariants; ++v) {
      snap.sites[0].counts[static_cast<size_t>(SiteEvent::kTrampCycles)] += 1;
      profiles_[i].push_back(snap.ToJson());
    }
  }

  Daemon::Config DaemonConfig() const {
    Daemon::Config cfg;
    cfg.socket_path = socket_path_;
    cfg.service.jobs = kPoolJobs;
    cfg.service.cache_bytes = 0;  // one pass's working set always fits
    return cfg;
  }

  // Each client's stream (see the top of the file): per image a queue in
  // dependency order, then the queues merged, the next request taken from
  // a queue drawn in proportion to its remaining length.
  void BuildStreams(uint64_t seed) {
    streams_.assign(kClients, {});
    key_requests_.clear();
    const int per_client = kKrakenPerClient + kSynthPerClient;
    for (int c = 0; c < kClients; ++c) {
      Rng rng(MixSeed(0x5e2e + static_cast<uint64_t>(c), seed));
      std::vector<std::vector<Request>> queues;
      size_t left = 0;
      for (int i = c * per_client; i < (c + 1) * per_client; ++i) {
        std::vector<Request> queue = {Request{Kind::kRewrite, i, false, -1, Expect::kMiss},
                                      Request{Kind::kRewrite, i, true, -1, Expect::kMiss}};
        std::vector<Request> hits;
        for (int v = 0; v < kProfileVariants; ++v) {
          queue.push_back(Request{Kind::kUpload, i, false, v, Expect::kRetier});
          hits.push_back(Request{Kind::kUpload, i, false, v, Expect::kHit});
        }
        for (int h = 0; h < kHitsPerImage; ++h) {
          hits.push_back(Request{Kind::kRewrite, i, h % 4 == 0, -1, Expect::kHit});
        }
        for (size_t k = hits.size(); k > 1; --k) {
          std::swap(hits[k - 1], hits[rng.Below(k)]);
        }
        queue.insert(queue.end(), hits.begin(), hits.end());
        left += queue.size();
        queues.push_back(std::move(queue));
      }
      std::vector<size_t> taken(queues.size(), 0);
      for (; left > 0; --left) {
        uint64_t pick = rng.Below(left);
        size_t q = 0;
        while (pick >= queues[q].size() - taken[q]) {
          pick -= queues[q].size() - taken[q];
          ++q;
        }
        const Request& r = queues[q][taken[q]++];
        key_requests_.emplace(r.Key(), r);
        streams_[c].push_back(r);
      }
    }
  }

  void RunRequest(PassContext& ctx, int c, const Request& r, DaemonClient* client,
                  ClientLog* log) {
    const RedFatOptions& opts = r.alt_opts ? alt_opts_ : default_opts_;
    static const std::string kUntiered;
    const std::string& profile = r.variant >= 0 ? profiles_[r.image][r.variant] : kUntiered;
    const double t0 = NowMs();
    Result<DaemonClient::RewriteReply> reply =
        r.kind == Kind::kRewrite ? client->Rewrite(wires_[r.image], opts, profile)
                                 : client->UploadProfile(hashes_[r.image], opts, profile);
    const double rtt = NowMs() - t0;
    if (ctx.tracer != nullptr) {
      // Slices only: the serve layers' times come from the round-trip sums
      // and the daemon's histogram (see Pass).
      ctx.trace->Complete("serve.request", LayerName(Layer::kTransport), 3, 10 + c,
                          (t0 - ctx.tracer->origin_ms()) * 1000.0, rtt * 1000.0);
    }
    log->rtt_ms.push_back(rtt);
    log->checker.Expect(reply.ok(), reply.ok() ? "" : "daemon error: " + reply.error());
    if (!reply.ok()) {
      return;
    }
    const double t_check = NowMs();
    const DaemonClient::RewriteReply& rep = reply.value();
    const Expect got = rep.cache_hit ? Expect::kHit
                       : rep.incremental_retier ? Expect::kRetier
                                                : Expect::kMiss;
    log->hits += got == Expect::kHit;
    log->retiers += got == Expect::kRetier;
    log->misses += got == Expect::kMiss;
    if (got == Expect::kMiss) {
      log->miss_ms.push_back(rtt);
    }
    log->checker.Expect(got == r.expect, "unexpected cache outcome");
    auto [it, inserted] = first_[c].try_emplace(r.Key());
    if (inserted) {
      it->second = Reply{rep.image_bytes, rep.sitemap};
    } else {
      const Reply& first = it->second;
      log->checker.Expect(!ctx.corrupt_expected && rep.image_bytes == first.image_bytes &&
                              rep.sitemap == first.sitemap,
                          "reply differs from the first reply of its key");
    }
    log->check_ms += NowMs() - t_check;
  }

  std::string socket_path_;
  RedFatOptions default_opts_;
  RedFatOptions alt_opts_;
  std::vector<BinaryImage> images_;
  std::vector<std::vector<uint8_t>> wires_;
  std::vector<uint64_t> hashes_;  // of wires_, as UploadProfile names an image
  std::vector<std::vector<std::string>> profiles_;  // [image][variant] snapshot JSON
  std::vector<std::vector<Request>> streams_;  // per client
  std::map<int, Request> key_requests_;
  std::vector<std::map<int, Reply>> first_;  // per client: key -> first reply
  double gen_ms_ = 0;
  std::vector<double> overhead_;
  std::vector<double> growth_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix(const std::string& work_dir) {
  return std::make_unique<ServeMix>(
      StrFormat("%s/serve-%d.sock", work_dir.c_str(), static_cast<int>(getpid())));
}

}  // namespace perfbench
