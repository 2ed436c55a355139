// Tests for the unified telemetry subsystem (support/telemetry.h,
// support/trace.h) and its wiring through the VM and harness: shard merging,
// JSON round-trips, trace-event validity, per-site runtime attribution, and
// the guarantee that attaching telemetry never changes guest cycles.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/harness.h"
#include "src/core/pipeline.h"
#include "src/core/redfat.h"
#include "src/core/sitemap.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

// --- shards & registry -----------------------------------------------------

TEST(TelemetryTest, ShardCountsMergeIntoSnapshot) {
  TelemetryRegistry reg;
  TelemetryShard* shard = reg.shard();
  shard->AddSite(3, SiteEvent::kChecks);
  shard->AddSite(3, SiteEvent::kChecks);
  shard->AddSite(3, SiteEvent::kRedzoneHits);
  shard->AddSite(700, SiteEvent::kTrampCycles, 42);  // second block

  const TelemetrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.sites.size(), 2u);
  const SiteTelemetry* s3 = snap.FindSite(3);
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(s3->checks(), 2u);
  EXPECT_EQ(s3->redzone_hits(), 1u);
  const SiteTelemetry* s700 = snap.FindSite(700);
  ASSERT_NE(s700, nullptr);
  EXPECT_EQ(s700->tramp_cycles(), 42u);
  EXPECT_EQ(snap.FindSite(4), nullptr);
  EXPECT_EQ(snap.TotalSiteEvents(SiteEvent::kChecks), 2u);
}

TEST(TelemetryTest, ShardReturnsSameInstancePerThread) {
  TelemetryRegistry reg;
  EXPECT_EQ(reg.shard(), reg.shard());
  TelemetryRegistry other;
  EXPECT_NE(reg.shard(), other.shard());  // distinct registries, same thread
}

TEST(TelemetryTest, ThreadsAccumulateIntoPrivateShards) {
  TelemetryRegistry reg;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      TelemetryShard* shard = reg.shard();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shard->AddSite(7, SiteEvent::kChecks);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const TelemetrySnapshot snap = reg.Snapshot();
  const SiteTelemetry* s = snap.FindSite(7);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->checks(), kThreads * kPerThread);
}

// Shards and histogram cells are written with a plain relaxed store by
// their owner (no lock prefix), so a Snapshot() racing the owners must
// still see each counter whole: never torn, never going backwards, never
// past the final total. Run under TSan in CI, where cells that were not
// atomics would fail as a data race.
TEST(TelemetryTest, SnapshotWhileOwnersRecord) {
  TelemetryRegistry reg;
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kMinSnapshots = 64;
  constexpr uint32_t kSharedSite = 7;
  constexpr uint32_t kOwnSite = 300;  // kOwnSite + t: one site per thread
  std::atomic<uint32_t> started{0};
  std::atomic<uint32_t> running{kThreads};
  std::atomic<uint64_t> snapshots{0};
  uint64_t rounds[kThreads] = {};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TelemetryShard* shard = reg.shard();
      HistogramCell* cell = reg.histogram("test.owner_values");
      started.fetch_add(1);
      // Record in rounds of 64 values until the main thread has taken
      // enough snapshots to have raced every owner.
      do {
        for (uint64_t v = 0; v < 64; ++v) {
          shard->AddSite(kSharedSite, SiteEvent::kChecks);
          shard->AddSite(kOwnSite + t, SiteEvent::kTrampCycles, 3);
          cell->Record(v);
        }
        ++rounds[t];
      } while (snapshots.load() < kMinSnapshots);
      running.fetch_sub(1);
    });
  }
  while (started.load() < kThreads) {
    std::this_thread::yield();
  }

  // What one snapshot says about the owners' counters.
  struct Seen {
    uint64_t checks = 0;
    uint64_t cycles[kThreads] = {};
    HistogramData values;
  };
  const auto seen_in = [&](const TelemetrySnapshot& snap) {
    Seen seen;
    if (const SiteTelemetry* s = snap.FindSite(kSharedSite)) {
      seen.checks = s->checks();
    }
    for (uint32_t t = 0; t < kThreads; ++t) {
      if (const SiteTelemetry* s = snap.FindSite(kOwnSite + t)) {
        seen.cycles[t] = s->tramp_cycles();
      }
    }
    if (const HistogramData* h = snap.FindHistogram("test.owner_values")) {
      seen.values = *h;
    }
    return seen;
  };
  std::vector<Seen> history;
  for (bool done = false; !done;) {
    done = running.load() == 0;  // one more snapshot after the owners finish
    history.push_back(seen_in(reg.Snapshot()));
    snapshots.fetch_add(1);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  uint64_t total_rounds = 0;
  for (const uint64_t r : rounds) {
    total_rounds += r;
  }
  const uint64_t kValueSumPerRound = 63 * 64 / 2;
  for (size_t i = 0; i < history.size(); ++i) {
    const Seen& cur = history[i];
    ASSERT_LE(cur.checks, 64 * total_rounds) << i;
    for (uint32_t t = 0; t < kThreads; ++t) {
      ASSERT_LE(cur.cycles[t], 3 * 64 * rounds[t]) << i;
    }
    ASSERT_LE(cur.values.Count(), 64 * total_rounds) << i;
    ASSERT_LE(cur.values.sum, kValueSumPerRound * total_rounds) << i;
    if (i == 0) {
      continue;
    }
    const Seen& prev = history[i - 1];
    ASSERT_GE(cur.checks, prev.checks) << i;
    for (uint32_t t = 0; t < kThreads; ++t) {
      ASSERT_GE(cur.cycles[t], prev.cycles[t]) << i;
    }
    ASSERT_GE(cur.values.sum, prev.values.sum) << i;
    for (const auto& [index, count] : prev.values.buckets) {
      const auto now = cur.values.buckets.find(index);
      ASSERT_TRUE(now != cur.values.buckets.end() && now->second >= count) << i;
    }
  }
  EXPECT_GE(history.size(), kMinSnapshots);
  // The last snapshot was taken after every owner finished: exact.
  const Seen& last = history.back();
  EXPECT_EQ(last.checks, 64 * total_rounds);
  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(last.cycles[t], 3 * 64 * rounds[t]);
  }
  EXPECT_EQ(last.values.sum, kValueSumPerRound * total_rounds);
  ASSERT_EQ(last.values.buckets.size(), static_cast<size_t>(HistogramBucketIndex(63) + 1));
  for (const auto& [index, count] : last.values.buckets) {
    EXPECT_EQ(count, total_rounds * (HistogramBucketLowerBound(index + 1) -
                                     HistogramBucketLowerBound(index)))
        << index;
  }
}

TEST(TelemetryTest, OutOfRangeSitesCountAsDropped) {
  TelemetryRegistry reg;
  reg.shard()->AddSite(0x7fffffff, SiteEvent::kChecks);  // beyond kMaxBlocks
  const TelemetrySnapshot snap = reg.Snapshot();
  EXPECT_TRUE(snap.sites.empty());
  EXPECT_EQ(snap.counters.at("telemetry.site_events_dropped"), 1u);
}

TEST(TelemetryTest, CountersAccumulateAndGaugesOverwrite) {
  TelemetryRegistry reg;
  reg.AddCounter("runs", 1);
  reg.AddCounter("runs", 2);
  reg.SetGauge("live", 10.0);
  reg.SetGauge("live", 2.5);
  const TelemetrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("runs"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("live"), 2.5);
}

// --- snapshot JSON ----------------------------------------------------------

TEST(TelemetryTest, SnapshotToJsonGolden) {
  TelemetryRegistry reg;
  reg.AddCounter("vm.runs", 1);
  reg.SetGauge("lowfat.allocs", 4);
  TelemetryShard* shard = reg.shard();
  shard->AddSite(5, SiteEvent::kChecks, 9);
  shard->AddSite(5, SiteEvent::kRedzoneHits, 2);
  EXPECT_EQ(reg.Snapshot().ToJson(),
            "{\"counters\":{\"vm.runs\":1},\"gauges\":{\"lowfat.allocs\":4},"
            "\"gauge_seq\":{\"lowfat.allocs\":1},"
            "\"sites\":[{\"id\":5,\"checks\":9,\"redzone_hits\":2,"
            "\"lowfat_passes\":0,\"lowfat_fails\":0,\"tramp_cycles\":0,"
            "\"inline_check_cycles\":0}]}");
}

// Histograms and gauge sequence stamps are emitted only when present, so a
// snapshot without them serializes exactly as it did before they existed.
TEST(TelemetryTest, SnapshotToJsonOmitsEmptyOptionalSections) {
  TelemetryRegistry reg;
  reg.AddCounter("vm.runs", 1);
  EXPECT_EQ(reg.Snapshot().ToJson(), "{\"counters\":{\"vm.runs\":1},\"gauges\":{},\"sites\":[]}");
}

TEST(TelemetryTest, SnapshotJsonRoundTrip) {
  TelemetryRegistry reg;
  reg.AddCounter("vm.cycles", 123456789);
  reg.SetGauge("redzone.live_bytes", 512);
  TelemetryShard* shard = reg.shard();
  shard->AddSite(0, SiteEvent::kChecks, 3);
  shard->AddSite(9, SiteEvent::kLowFatPasses, 7);
  shard->AddSite(9, SiteEvent::kLowFatFails, 1);

  const TelemetrySnapshot snap = reg.Snapshot();
  Result<TelemetrySnapshot> parsed = TelemetrySnapshotFromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().counters, snap.counters);
  EXPECT_EQ(parsed.value().gauges, snap.gauges);
  ASSERT_EQ(parsed.value().sites.size(), 2u);
  const SiteTelemetry* s9 = parsed.value().FindSite(9);
  ASSERT_NE(s9, nullptr);
  EXPECT_EQ(s9->lowfat_passes(), 7u);
  EXPECT_EQ(s9->lowfat_fails(), 1u);
}

// Names are escaped on the way out and decoded on the way in, so a counter
// named a"b survives `redfat --merge-metrics` as the same counter.
TEST(TelemetryTest, SnapshotJsonRoundTripsNamesThatNeedEscaping) {
  TelemetrySnapshot snap;
  snap.counters["a\"b"] = 1;
  snap.counters["back\\slash\nline"] = 2;
  snap.gauges["g\"q"] = 0.5;
  snap.gauge_seq["g\"q"] = 1;
  snap.histograms["h\x01"].sum = 3;
  snap.histograms["h\x01"].buckets = {{2, 1}};
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"a\\\"b\":1"), std::string::npos) << json;
  Result<TelemetrySnapshot> parsed = TelemetrySnapshotFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().counters, snap.counters);
  EXPECT_EQ(parsed.value().gauges, snap.gauges);
  EXPECT_EQ(parsed.value().gauge_seq, snap.gauge_seq);
  EXPECT_EQ(parsed.value().histograms.at("h\x01").buckets, snap.histograms.at("h\x01").buckets);
  EXPECT_EQ(MergeTelemetrySnapshots({parsed.value()}).ToJson(), json);
}

TEST(TelemetryTest, SnapshotJsonRejectsMalformedInput) {
  EXPECT_FALSE(TelemetrySnapshotFromJson("").ok());
  EXPECT_FALSE(TelemetrySnapshotFromJson("{").ok());
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"unknown\":1}").ok());
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"sites\":[{\"checks\":1}]}").ok());  // no id
  EXPECT_FALSE(TelemetrySnapshotFromJson("{\"counters\":{}} trailing").ok());
}

// --- trace writer -----------------------------------------------------------

TEST(TraceTest, EmitsValidTraceEventJson) {
  TraceWriter trace;
  trace.SetProcessName(1, "guest");
  trace.SetThreadName(1, 1, "vm");
  trace.Complete("tramp", "check", 1, 1, 100.0, 25.0, {TraceArg{"site", 3}});
  trace.Instant("mem_error", "error", 1, 1, 125.0, {TraceArg{"site", 3}});
  trace.Counter("heap.live_objects", 1, 130.0, 17);
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace.dropped(), 0u);
  const std::string json = trace.ToJson();
  const Status st = ValidateTraceEventJson(json);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error()) << "\n" << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TraceTest, CapsEventsAndCountsDrops) {
  TraceWriter trace(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    trace.Instant("e", "c", 1, 1, i);
  }
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 3u);
  EXPECT_TRUE(ValidateTraceEventJson(trace.ToJson()).ok());
}

TEST(TraceTest, EscapesHostileStrings) {
  TraceWriter trace;
  trace.Complete("quote\"back\\slash\nnewline", "c", 1, 1, 0, 1);
  const Status st = ValidateTraceEventJson(trace.ToJson());
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error());
}

TEST(TraceTest, ValidatorRejectsMalformedOrNonTraceJson) {
  EXPECT_FALSE(ValidateTraceEventJson("").ok());
  EXPECT_FALSE(ValidateTraceEventJson("not json").ok());
  EXPECT_FALSE(ValidateTraceEventJson("{}").ok());  // no traceEvents
  EXPECT_FALSE(ValidateTraceEventJson("{\"traceEvents\":{}}").ok());
  EXPECT_FALSE(
      ValidateTraceEventJson("{\"traceEvents\":[{\"name\":\"x\"}]}").ok());  // no ph
  // A complete event without "dur" violates the contract.
  EXPECT_FALSE(ValidateTraceEventJson(
                   "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\",\"pid\":1,"
                   "\"tid\":1,\"ts\":0}]}")
                   .ok());
  EXPECT_TRUE(ValidateTraceEventJson("{\"traceEvents\":[]}").ok());
}

// --- end-to-end through instrumentation + VM --------------------------------

BinaryImage OobWriteProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 32);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.StoreI(MemAt(Reg::kR12, 0), 7);   // in bounds
  as.StoreI(MemAt(Reg::kR12, 40), 1);  // OOB: lands in the redzone
  pb.EmitExit(0);
  return pb.Finish();
}

TEST(TelemetryEndToEnd, RedzoneHitAttributedToFaultingSite) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();
  ASSERT_FALSE(ir.sites.empty());

  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
  ASSERT_FALSE(out.errors.empty());

  const TelemetrySnapshot snap = reg.Snapshot();
  const SiteTelemetry* faulting = snap.FindSite(out.errors[0].site);
  ASSERT_NE(faulting, nullptr);
  EXPECT_GE(faulting->redzone_hits(), 1u);
  EXPECT_GE(faulting->checks(), 1u);
  // Only the faulting site hit its redzone.
  EXPECT_EQ(snap.TotalSiteEvents(SiteEvent::kRedzoneHits), out.errors.size());
  // Per-site checks mirror the VM's Count counters exactly.
  for (const auto& [site, count] : out.counters) {
    const SiteTelemetry* st = snap.FindSite(site);
    ASSERT_NE(st, nullptr) << "site " << site;
    EXPECT_EQ(st->checks(), count) << "site " << site;
  }
  // Trampoline cycles were attributed and rolled up.
  EXPECT_GT(snap.TotalSiteEvents(SiteEvent::kTrampCycles), 0u);
  EXPECT_EQ(snap.counters.at("vm.trampoline_cycles"),
            snap.TotalSiteEvents(SiteEvent::kTrampCycles));
  // Run counters and heap gauges landed.
  EXPECT_EQ(snap.counters.at("vm.runs"), 1u);
  EXPECT_GT(snap.counters.at("vm.instructions"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("lowfat.allocs"), 1.0);
}

TEST(TelemetryEndToEnd, ProfilingRunRecordsLowFatOutcomes) {
  RedFatTool tool(RedFatOptions::Profile());
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();

  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);

  const TelemetrySnapshot snap = reg.Snapshot();
  uint64_t passes = 0;
  uint64_t fails = 0;
  for (const auto& [site, counts] : out.prof_counts) {
    passes += counts.passes;
    fails += counts.fails;
    const SiteTelemetry* st = snap.FindSite(site);
    ASSERT_NE(st, nullptr) << "site " << site;
    EXPECT_EQ(st->lowfat_passes(), counts.passes);
    EXPECT_EQ(st->lowfat_fails(), counts.fails);
  }
  EXPECT_EQ(snap.TotalSiteEvents(SiteEvent::kLowFatPasses), passes);
  EXPECT_EQ(snap.TotalSiteEvents(SiteEvent::kLowFatFails), fails);
  EXPECT_GT(passes + fails, 0u);
}

TEST(TelemetryEndToEnd, TraceCoversRunAllocatorAndTrampolines) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();

  TraceWriter trace;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.trace = &trace;
  (void)RunImage(ir.image, RuntimeKind::kRedFat, cfg);

  const std::string json = trace.ToJson();
  const Status st = ValidateTraceEventJson(json);
  ASSERT_TRUE(st.ok()) << (st.ok() ? "" : st.error());
  EXPECT_NE(json.find("\"malloc\""), std::string::npos);
  EXPECT_NE(json.find("\"tramp\""), std::string::npos);
  EXPECT_NE(json.find("\"mem_error\""), std::string::npos);
  EXPECT_NE(json.find("\"vm.run\""), std::string::npos);
}

TEST(TelemetryEndToEnd, TraceCarriesSiteAddrAnnotations) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();
  ASSERT_FALSE(ir.sites.empty());

  TraceWriter trace;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.trace = &trace;
  cfg.image_sites = {&ir.sites};  // enables site_addr trace args
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);
  ASSERT_FALSE(out.errors.empty());

  const std::string json = trace.ToJson();
  ASSERT_TRUE(ValidateTraceEventJson(json).ok());
  // Trampoline and mem_error slices link back to the disassembly: the
  // faulting site's original instruction address appears as a numeric arg.
  ASSERT_LT(out.errors[0].site, ir.sites.size());
  const SiteRecord& faulting = ir.sites[out.errors[0].site];
  EXPECT_NE(json.find(StrFormat(
                "\"site_addr\":%llu",
                static_cast<unsigned long long>(faulting.addr))),
            std::string::npos);
}

TEST(TelemetryEndToEnd, AttachingTelemetryDoesNotChangeGuestCycles) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();

  RunConfig plain;
  plain.policy = Policy::kLog;
  const RunOutcome without = RunImage(ir.image, RuntimeKind::kRedFat, plain);

  TelemetryRegistry reg;
  TraceWriter trace;
  RunConfig observed = plain;
  observed.telemetry = &reg;
  observed.trace = &trace;
  const RunOutcome with = RunImage(ir.image, RuntimeKind::kRedFat, observed);

  EXPECT_EQ(without.result.cycles, with.result.cycles);
  EXPECT_EQ(without.result.instructions, with.result.instructions);
  EXPECT_EQ(without.counters, with.counters);
  EXPECT_EQ(without.outputs, with.outputs);
}

TEST(TelemetryEndToEnd, SnapshotSiteChecksMatchCounters) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();

  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);

  const TelemetrySnapshot snap = reg.Snapshot();
  ASSERT_FALSE(out.counters.empty());
  for (const SiteRecord& site : ir.sites) {
    const auto it = out.counters.find(site.id);
    const SiteTelemetry* st = snap.FindSite(site.id);
    EXPECT_EQ(it == out.counters.end() ? 0 : it->second, st == nullptr ? 0 : st->checks())
        << "site " << site.id;
  }
}

// --- pipeline bridges & report ----------------------------------------------

TEST(TelemetryBridges, PipelineStatsLandAsCountersGaugesAndSlices) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();

  TelemetryRegistry reg;
  AddPipelineTelemetry(ir.pipeline_stats, &reg);
  const TelemetrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("pipeline.runs"), 1u);
  EXPECT_GT(snap.counters.at("pipeline.disasm.items"), 0u);
  EXPECT_GE(snap.gauges.at("pipeline.total_ms"), 0.0);

  TraceWriter trace;
  AppendPipelineTrace(ir.pipeline_stats, &trace);
  const std::string json = trace.ToJson();
  EXPECT_TRUE(ValidateTraceEventJson(json).ok());
  EXPECT_NE(json.find("\"rewriter\""), std::string::npos);
  EXPECT_NE(json.find("\"disasm\""), std::string::npos);

  // Null sinks are a no-op, not a crash.
  AddPipelineTelemetry(ir.pipeline_stats, nullptr);
  AppendPipelineTrace(ir.pipeline_stats, nullptr);
}

TEST(TelemetryBridges, ReportJoinsSitesTelemetryAndPipeline) {
  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(OobWriteProgram()).value();

  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  const RunOutcome out = RunImage(ir.image, RuntimeKind::kRedFat, cfg);

  const std::string report = FormatTelemetryReport(reg.Snapshot(), &ir.sites,
                                                   &ir.pipeline_stats,
                                                   out.result.cycles);
  EXPECT_NE(report.find("per-site runtime telemetry"), std::string::npos);
  EXPECT_NE(report.find("rz-hits"), std::string::npos);
  EXPECT_NE(report.find("vm.instructions"), std::string::npos);
  EXPECT_NE(report.find("rewrite pipeline"), std::string::npos);
  EXPECT_NE(report.find("disasm"), std::string::npos);

  // Degraded forms still render.
  const std::string bare =
      FormatTelemetryReport(TelemetrySnapshot{}, nullptr, nullptr, 0);
  EXPECT_NE(bare.find("no site events recorded"), std::string::npos);
}

// --- snapshot merging (--merge-metrics) -------------------------------------

TelemetrySnapshot SnapWith(uint32_t site, SiteEvent ev, uint64_t n) {
  TelemetrySnapshot s;
  SiteTelemetry st;
  st.site = site;
  st.counts[static_cast<size_t>(ev)] = n;
  s.sites.push_back(st);
  return s;
}

TEST(TelemetryMerge, SumsSiteCountsPerKeyedId) {
  TelemetrySnapshot a = SnapWith(3, SiteEvent::kTrampCycles, 100);
  a.sites[0].counts[static_cast<size_t>(SiteEvent::kChecks)] = 7;
  TelemetrySnapshot b = SnapWith(3, SiteEvent::kTrampCycles, 50);
  b.sites.push_back(SiteTelemetry{});
  b.sites[1].site = 9;
  b.sites[1].counts[static_cast<size_t>(SiteEvent::kInlineCycles)] = 4;

  const TelemetrySnapshot m = MergeTelemetrySnapshots({a, b});
  ASSERT_EQ(m.sites.size(), 2u);
  EXPECT_EQ(m.sites[0].site, 3u);
  EXPECT_EQ(m.sites[0].tramp_cycles(), 150u);
  EXPECT_EQ(m.sites[0].checks(), 7u);
  EXPECT_EQ(m.sites[1].site, 9u);
  EXPECT_EQ(m.sites[1].inline_cycles(), 4u);
}

TEST(TelemetryMerge, SumsCountersGaugesLastWriterWins) {
  TelemetrySnapshot a;
  a.counters["vm.runs"] = 1;
  a.gauges["lowfat.allocs"] = 10;
  TelemetrySnapshot b;
  b.counters["vm.runs"] = 2;
  b.counters["vm.cycles"] = 99;
  b.gauges["lowfat.allocs"] = 20;

  const TelemetrySnapshot m = MergeTelemetrySnapshots({a, b});
  EXPECT_EQ(m.counters.at("vm.runs"), 3u);
  EXPECT_EQ(m.counters.at("vm.cycles"), 99u);
  EXPECT_EQ(m.gauges.at("lowfat.allocs"), 20.0);
}

TEST(TelemetryMerge, EmptyInputsYieldEmptySnapshot) {
  const TelemetrySnapshot m = MergeTelemetrySnapshots({});
  EXPECT_TRUE(m.sites.empty());
  EXPECT_TRUE(m.counters.empty());

  // Merging one snapshot round-trips its contents.
  TelemetrySnapshot a = SnapWith(1, SiteEvent::kChecks, 5);
  const TelemetrySnapshot one = MergeTelemetrySnapshots({a});
  ASSERT_EQ(one.sites.size(), 1u);
  EXPECT_EQ(one.sites[0].checks(), 5u);
}

// Regression for the gauge last-writer-wins merge loss: a gauge sampled in
// an early epoch must not replace a later sample just because its snapshot
// file is merged last. The sequence stamp decides, not input order.
TEST(TelemetryMerge, GaugeSeqWinsOverInputOrder) {
  TelemetryRegistry reg;
  reg.SetGauge("heap.live", 10.0);
  const TelemetrySnapshot early = reg.Snapshot();
  reg.SetGauge("heap.live", 99.0);
  const TelemetrySnapshot late = reg.Snapshot();
  ASSERT_LT(early.gauge_seq.at("heap.live"), late.gauge_seq.at("heap.live"));

  // Out-of-order merge: the later sample still wins.
  const TelemetrySnapshot m = MergeTelemetrySnapshots({late, early});
  EXPECT_EQ(m.gauges.at("heap.live"), 99.0);
  EXPECT_EQ(m.gauge_seq.at("heap.live"), late.gauge_seq.at("heap.live"));

  // Unstamped legacy snapshots (seq reads 0) keep last-writer-wins among
  // themselves and always lose to a stamped sample.
  TelemetrySnapshot l1, l2;
  l1.gauges["heap.live"] = 1.0;
  l2.gauges["heap.live"] = 2.0;
  EXPECT_EQ(MergeTelemetrySnapshots({l1, l2}).gauges.at("heap.live"), 2.0);
  EXPECT_EQ(MergeTelemetrySnapshots({late, l2}).gauges.at("heap.live"), 99.0);
}

// --- histograms ------------------------------------------------------------

TEST(TelemetryHistogram, BucketMathInvariants) {
  // Values 0..3 get exact buckets.
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(HistogramBucketIndex(v), v);
    EXPECT_EQ(HistogramBucketLowerBound(static_cast<uint32_t>(v)), v);
  }
  // Every bucket's lower bound maps back to that bucket, lower bounds are
  // strictly increasing, and any value lands in a bucket whose lower bound
  // does not exceed it (percentiles never overstate).
  for (uint32_t i = 1; i < kNumHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLowerBound(i)), i);
    EXPECT_GT(HistogramBucketLowerBound(i), HistogramBucketLowerBound(i - 1));
  }
  for (uint64_t v : {5ull, 63ull, 64ull, 65ull, 1000ull, 123456789ull,
                     (1ull << 40) + 7, ~0ull}) {
    const uint32_t idx = HistogramBucketIndex(v);
    ASSERT_LT(idx, kNumHistogramBuckets);
    EXPECT_LE(HistogramBucketLowerBound(idx), v);
    if (idx + 1 < kNumHistogramBuckets) {
      EXPECT_LT(v, HistogramBucketLowerBound(idx + 1));
    }
  }
  // The max bucket index is exactly the frozen layout's 251.
  EXPECT_EQ(HistogramBucketIndex(~0ull), kNumHistogramBuckets - 1);
}

TEST(TelemetryHistogram, CellRecordsIntoSnapshot) {
  TelemetryRegistry reg;
  HistogramCell* cell = reg.histogram("vm.tramp_visit_cycles");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(reg.histogram("vm.tramp_visit_cycles"), cell);  // cached per thread
  for (uint64_t v : {1ull, 2ull, 2ull, 100ull, 100ull, 100ull, 10000ull}) {
    cell->Record(v);
  }
  const TelemetrySnapshot snap = reg.Snapshot();
  const HistogramData* h = snap.FindHistogram("vm.tramp_visit_cycles");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Count(), 7u);
  EXPECT_EQ(h->sum, 10305u);
  EXPECT_DOUBLE_EQ(h->Mean(), 10305.0 / 7.0);
  // Percentiles report the lower bound of the rank's bucket.
  EXPECT_EQ(h->Percentile(50), HistogramBucketLowerBound(HistogramBucketIndex(100)));
  EXPECT_EQ(h->Percentile(0), 1u);
  EXPECT_EQ(h->Percentile(100),
            HistogramBucketLowerBound(HistogramBucketIndex(10000)));
  EXPECT_EQ(snap.FindHistogram("no.such"), nullptr);
}

TEST(TelemetryHistogram, JsonRoundTripIsBitExact) {
  TelemetryRegistry reg;
  HistogramCell* c = reg.histogram("heap.malloc_bytes");
  c->Record(0);
  c->Record(64);
  c->Record(64);
  c->Record(1ull << 33);
  reg.AddCounter("vm.runs", 1);
  const TelemetrySnapshot snap = reg.Snapshot();
  const std::string json = snap.ToJson();
  Result<TelemetrySnapshot> parsed = TelemetrySnapshotFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().histograms.size(), 1u);
  const HistogramData& h = parsed.value().histograms.at("heap.malloc_bytes");
  EXPECT_EQ(h.sum, snap.histograms.at("heap.malloc_bytes").sum);
  EXPECT_EQ(h.buckets, snap.histograms.at("heap.malloc_bytes").buckets);
  EXPECT_EQ(parsed.value().ToJson(), json);  // byte-exact re-serialization
}

TEST(TelemetryHistogram, MergeAddsAndDeltaSubtracts) {
  TelemetrySnapshot a, b;
  a.histograms["h"].sum = 100;
  a.histograms["h"].buckets = {{4, 2}, {10, 1}};
  b.histograms["h"].sum = 50;
  b.histograms["h"].buckets = {{4, 1}, {20, 3}};
  b.histograms["other"].sum = 7;
  b.histograms["other"].buckets = {{0, 1}};

  const TelemetrySnapshot m = MergeTelemetrySnapshots({a, b});
  EXPECT_EQ(m.histograms.at("h").sum, 150u);
  EXPECT_EQ(m.histograms.at("h").buckets,
            (std::map<uint32_t, uint64_t>{{4, 3}, {10, 1}, {20, 3}}));
  EXPECT_EQ(m.histograms.at("other").sum, 7u);

  const TelemetrySnapshot d = DeltaTelemetrySnapshot(m, a);
  EXPECT_EQ(d.histograms.at("h").sum, 50u);
  EXPECT_EQ(d.histograms.at("h").buckets,
            (std::map<uint32_t, uint64_t>{{4, 1}, {20, 3}}));
  // A histogram that deltas to all-zero is dropped entirely.
  const TelemetrySnapshot z = DeltaTelemetrySnapshot(m, m);
  EXPECT_TRUE(z.histograms.empty());
}

// The --metrics-epoch contract, histogram edition: per-epoch delta files
// merged back together must reproduce the one-shot snapshot bit for bit.
TEST(TelemetryHistogram, EpochDeltasTelescopeBitForBit) {
  TelemetryRegistry reg;
  HistogramCell* h = reg.histogram("vm.superblock_len");
  std::vector<TelemetrySnapshot> deltas;
  TelemetrySnapshot prev;  // empty
  uint64_t v = 1;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 20; ++i) {
      h->Record(v);
      v = v * 2862933555777941757ULL + 3037000493ULL;  // wide value spread
    }
    reg.AddCounter("vm.instructions", 20);
    reg.SetGauge("heap.live", static_cast<double>(epoch));
    const TelemetrySnapshot cur = reg.Snapshot();
    deltas.push_back(DeltaTelemetrySnapshot(cur, prev));
    prev = cur;
  }
  const TelemetrySnapshot merged = MergeTelemetrySnapshots(deltas);
  EXPECT_EQ(merged.ToJson(), reg.Snapshot().ToJson());
}

}  // namespace
}  // namespace redfat
