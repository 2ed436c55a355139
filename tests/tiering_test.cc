// Tests for profile-guided check tiering (core/plan.h AssignSiteTiers, the
// `tier` pass, and the tiered codegen paths) plus the merge-range regression
// that tiering's wider batches made load-bearing: merged check ranges must
// be computed in 64 bits, or negative displacements (rsp-relative checks
// surviving --no-elim) wrap through unsigned arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/asm/assembler.h"
#include "src/core/harness.h"
#include "src/core/plan.h"
#include "src/core/redfat.h"
#include "src/core/sitemap.h"
#include "src/support/telemetry.h"
#include "src/workloads/builder.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

// --- merge-range regression (--no-elim) -------------------------------------

PlannedCheck CheckAt(MemOperand mem, uint32_t len, uint32_t site) {
  PlannedCheck c;
  c.mem = mem;
  c.access_len = len;
  c.kind = CheckKind::kFull;
  c.member_sites = {site};
  return c;
}

TEST(MergeRegression, NegativeDisplacementsMergeWithoutWrapping) {
  // Pre-fix, `disp + access_len` promoted int32 + uint32 to uint32, so a
  // single rsp-32 check computed hi = 4294967272 and the spread CHECK fired.
  PlannedTrampoline t;
  t.checks.push_back(CheckAt(MemAt(Reg::kRsp, -32), 8, 0));
  t.checks.push_back(CheckAt(MemAt(Reg::kRsp, -16), 8, 1));
  MergeTrampolineChecks(&t);
  ASSERT_EQ(t.checks.size(), 1u);
  EXPECT_EQ(t.checks[0].mem.disp, -32);
  EXPECT_EQ(t.checks[0].access_len, 24u);  // [-32, -8)
  EXPECT_EQ(t.checks[0].member_sites, (std::vector<uint32_t>{0, 1}));
}

TEST(MergeRegression, SingleNegativeDispCheckSurvives) {
  PlannedTrampoline t;
  t.checks.push_back(CheckAt(MemAt(Reg::kRsp, -32), 8, 0));
  MergeTrampolineChecks(&t);
  ASSERT_EQ(t.checks.size(), 1u);
  EXPECT_EQ(t.checks[0].mem.disp, -32);
  EXPECT_EQ(t.checks[0].access_len, 8u);
}

TEST(MergeRegression, OverwideGroupsSplitIntoEncodableChecks) {
  // A span wider than INT32_MAX cannot be one merged check (codegen narrows
  // access_len through int32); it must split, not abort.
  PlannedTrampoline t;
  t.checks.push_back(CheckAt(MemAt(Reg::kRbx, INT32_MIN), 8, 0));
  t.checks.push_back(CheckAt(MemAt(Reg::kRbx, INT32_MAX - 8), 8, 1));
  MergeTrampolineChecks(&t);
  ASSERT_EQ(t.checks.size(), 2u);
  EXPECT_EQ(t.checks[0].mem.disp, INT32_MIN);
  EXPECT_EQ(t.checks[1].mem.disp, INT32_MAX - 8);
}

// Two stores below rsp in one block: --no-elim keeps them, batching groups
// them, merging spans their negative displacements. Pre-fix this aborted
// inside the planner.
TEST(MergeRegression, NoElimInstrumentsNegativeStackDisplacements) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 7);
  as.Store(Reg::kRax, MemAt(Reg::kRsp, -32));
  as.Store(Reg::kRax, MemAt(Reg::kRsp, -16));
  as.Load(Reg::kRbx, MemAt(Reg::kRsp, -32));
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();

  RedFatOptions opts;
  opts.elim = false;
  RedFatTool tool(opts);
  Result<InstrumentResult> ir = tool.Instrument(img);
  ASSERT_TRUE(ir.ok()) << ir.error();

  RunConfig cfg;
  const RunOutcome out = RunImage(ir.value().image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  EXPECT_TRUE(out.errors.empty());
}

// --- AssignSiteTiers --------------------------------------------------------

std::vector<SiteRecord> FourSites() {
  std::vector<SiteRecord> sites(4);
  for (uint32_t i = 0; i < 4; ++i) {
    sites[i].id = i;
    sites[i].addr = 0x400000 + 16 * i;
    sites[i].is_write = i % 2 == 0;
    sites[i].kind = CheckKind::kFull;
  }
  return sites;
}

TEST(AssignSiteTiers, MinimalPrefixOfCyclesBecomesHot) {
  std::vector<SiteRecord> sites = FourSites();
  TierProfile profile;
  profile.cycles_by_site = {{0, 100}, {1, 50}, {2, 10}, {3, 0}};
  const TierStats ts = AssignSiteTiers(profile, 0.9, &sites);
  // cum(100) = 0.625, cum(150) = 0.9375 >= 0.9 — two hot sites.
  EXPECT_EQ(ts.hot, 2u);
  EXPECT_EQ(sites[0].tier, Tier::kHot);
  EXPECT_EQ(sites[1].tier, Tier::kHot);
  EXPECT_EQ(sites[2].tier, Tier::kWarm);  // profiled outside the hot set
  EXPECT_EQ(sites[3].tier, Tier::kWarm);  // profiled at zero: never hot
}

TEST(AssignSiteTiers, ThresholdOneHotsEveryNonZeroSite) {
  std::vector<SiteRecord> sites = FourSites();
  TierProfile profile;
  profile.cycles_by_site = {{0, 5}, {1, 5}, {2, 5}, {3, 0}};
  const TierStats ts = AssignSiteTiers(profile, 1.0, &sites);
  EXPECT_EQ(ts.hot, 3u);
  EXPECT_EQ(sites[3].tier, Tier::kWarm);
}

TEST(AssignSiteTiers, UnknownSiteIdsAreCountedAndIgnored) {
  std::vector<SiteRecord> sites = FourSites();
  TierProfile profile;
  profile.cycles_by_site = {{0, 10}, {99, 1000000}};
  const TierStats ts = AssignSiteTiers(profile, 0.9, &sites);
  EXPECT_EQ(ts.unknown, 1u);
  EXPECT_EQ(ts.hot, 1u);
  EXPECT_EQ(sites[0].tier, Tier::kHot);
  for (size_t i = 1; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].tier, Tier::kWarm);
  }
}

TEST(AssignSiteTiers, EmptyProfileLeavesEverySiteWarm) {
  std::vector<SiteRecord> sites = FourSites();
  const TierStats ts = AssignSiteTiers(TierProfile{}, 0.9, &sites);
  EXPECT_EQ(ts.hot, 0u);
  for (const SiteRecord& s : sites) {
    EXPECT_EQ(s.tier, Tier::kWarm);
  }
}

TEST(AssignSiteTiers, AllZeroCyclesPromotesNothing) {
  std::vector<SiteRecord> sites = FourSites();
  TierProfile profile;
  profile.cycles_by_site = {{0, 0}, {1, 0}};
  const TierStats ts = AssignSiteTiers(profile, 0.9, &sites);
  EXPECT_EQ(ts.hot, 0u);
  for (const SiteRecord& s : sites) {
    EXPECT_EQ(s.tier, Tier::kWarm);  // profiled-but-unexecuted sites stay warm
  }
}

TEST(AssignSiteTiers, SitemapJoinsByAddressAndShape) {
  std::vector<SiteRecord> sites = FourSites();
  // The profiled build numbered its sites differently: profile id 7 is the
  // site at the address of current site 2.
  std::vector<SiteRecord> prof_sites(1);
  prof_sites[0].id = 7;
  prof_sites[0].addr = sites[2].addr;
  prof_sites[0].is_write = sites[2].is_write;
  prof_sites[0].kind = sites[2].kind;
  TierProfile profile;
  profile.sitemap = &prof_sites;
  profile.cycles_by_site = {{7, 500}};
  const TierStats ts = AssignSiteTiers(profile, 0.9, &sites);
  EXPECT_EQ(ts.hot, 1u);
  EXPECT_EQ(sites[2].tier, Tier::kHot);
  EXPECT_EQ(sites[0].tier, Tier::kWarm);
}

TEST(AssignSiteTiers, MismatchedSitemapNeverMisTiers) {
  std::vector<SiteRecord> sites = FourSites();
  std::vector<SiteRecord> prof_sites(2);
  prof_sites[0].id = 0;
  prof_sites[0].addr = 0xdead000;  // address not in the current plan
  prof_sites[1].id = 1;
  prof_sites[1].addr = sites[1].addr;  // address matches, shape does not
  prof_sites[1].is_write = !sites[1].is_write;
  prof_sites[1].kind = sites[1].kind;
  TierProfile profile;
  profile.sitemap = &prof_sites;
  profile.cycles_by_site = {{0, 100}, {1, 100}, {5, 1}};
  const TierStats ts = AssignSiteTiers(profile, 0.9, &sites);
  EXPECT_EQ(ts.mismatched, 2u);
  EXPECT_EQ(ts.unknown, 1u);  // id 5 absent from the profiled sitemap
  EXPECT_EQ(ts.hot, 0u);
  for (const SiteRecord& s : sites) {
    EXPECT_EQ(s.tier, Tier::kWarm);
  }
}

// --- end-to-end tiering -----------------------------------------------------

// Same shape as bench_check_tiering: a hot loop striding a buffer through
// pointer bumps, cold one-shot accesses, and an OOB read under kLog.
BinaryImage HotLoopProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 256);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.MovRI(Reg::kRsi, 1);
  as.MovRI(Reg::kRdx, 256);
  as.HostCall(HostFn::kMemset);
  as.MovRI(Reg::kR14, 21);
  as.Store(Reg::kR14, MemAt(Reg::kR12, 64));  // cold, one-shot
  as.MovRI(Reg::kRsi, 0);
  as.MovRI(Reg::kRcx, 0);
  const Assembler::Label loop = as.NewLabel();
  as.Bind(loop);
  as.MovRR(Reg::kRbx, Reg::kR12);
  for (int i = 0; i < 3; ++i) {
    as.Load(Reg::kR14, MemAt(Reg::kRbx, 0));
    as.Add(Reg::kRsi, Reg::kR14);
    as.AddI(Reg::kRbx, 8);
  }
  as.AddI(Reg::kRcx, 1);
  as.CmpI(Reg::kRcx, 100);
  as.Jcc(Cond::kUlt, loop);
  as.Load(Reg::kR14, MemAt(Reg::kR12, 256));  // OOB: one past the allocation
  as.Add(Reg::kRsi, Reg::kR14);
  as.MovRR(Reg::kRdi, Reg::kRsi);
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  return pb.Finish();
}

struct TieredRun {
  RunOutcome out;
  uint64_t check_cycles = 0;
};

TieredRun RunWithTelemetry(const BinaryImage& image) {
  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.telemetry = &reg;
  TieredRun r;
  r.out = RunImage(image, RuntimeKind::kRedFat, cfg);
  const TelemetrySnapshot snap = reg.Snapshot();
  r.check_cycles = snap.TotalSiteEvents(SiteEvent::kTrampCycles) +
                   snap.TotalSiteEvents(SiteEvent::kInlineCycles);
  return r;
}

TierProfile ProfileFromRun(const BinaryImage& untiered_image,
                           std::vector<uint64_t> inputs = {}) {
  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.inputs = std::move(inputs);
  cfg.telemetry = &reg;
  const RunOutcome out = RunImage(untiered_image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  TierProfile profile;
  for (const SiteTelemetry& st : reg.Snapshot().sites) {
    profile.cycles_by_site[st.site] = st.tramp_cycles() + st.inline_cycles();
  }
  return profile;
}

TEST(TieringEndToEnd, CutsCheckCyclesAndKeepsDetections) {
  const BinaryImage img = HotLoopProgram();
  RedFatTool untiered_tool(RedFatOptions{});
  const InstrumentResult untiered = untiered_tool.Instrument(img).value();
  const TierProfile profile = ProfileFromRun(untiered.image);

  RedFatOptions opts;
  opts.tier_profile = &profile;
  RedFatTool tiered_tool(opts);
  const InstrumentResult tiered = tiered_tool.Instrument(img).value();

  bool any_hot = false;
  for (const SiteRecord& s : tiered.sites) {
    any_hot = any_hot || s.tier == Tier::kHot;
  }
  EXPECT_TRUE(any_hot);

  const TieredRun a = RunWithTelemetry(untiered.image);
  const TieredRun b = RunWithTelemetry(tiered.image);
  EXPECT_EQ(b.out.outputs, a.out.outputs);
  ASSERT_EQ(b.out.errors.size(), a.out.errors.size());
  ASSERT_FALSE(a.out.errors.empty());
  for (size_t i = 0; i < a.out.errors.size(); ++i) {
    EXPECT_EQ(b.out.errors[i].site, a.out.errors[i].site);
    EXPECT_EQ(b.out.errors[i].kind, a.out.errors[i].kind);
  }
  EXPECT_LT(b.check_cycles, a.check_cycles);
}

TEST(TieringEndToEnd, FullyMismatchedProfileIsByteIdenticalToUntiered) {
  const BinaryImage img = HotLoopProgram();
  RedFatTool plain(RedFatOptions{});
  const InstrumentResult untiered = plain.Instrument(img).value();

  // Profile "from another binary": every address misses the current plan,
  // so the tier pass resolves nothing and the output must not change.
  std::vector<SiteRecord> alien(2);
  alien[0].id = 0;
  alien[0].addr = 0x9999990;
  alien[1].id = 1;
  alien[1].addr = 0x9999998;
  TierProfile profile;
  profile.sitemap = &alien;
  profile.cycles_by_site = {{0, 12345}, {1, 777}};
  RedFatOptions opts;
  opts.tier_profile = &profile;
  RedFatTool tiered_tool(opts);
  const InstrumentResult tiered = tiered_tool.Instrument(img).value();

  EXPECT_EQ(tiered.image.Serialize(), untiered.image.Serialize());
  for (const SiteRecord& s : tiered.sites) {
    EXPECT_EQ(s.tier, Tier::kWarm);
  }
}

TEST(TieringEndToEnd, EmptyProfileIsByteIdenticalToUntiered) {
  const BinaryImage img = HotLoopProgram();
  RedFatTool plain(RedFatOptions{});
  const InstrumentResult untiered = plain.Instrument(img).value();

  TierProfile profile;  // no sites at all
  RedFatOptions opts;
  opts.tier_profile = &profile;
  RedFatTool tiered_tool(opts);
  const InstrumentResult tiered = tiered_tool.Instrument(img).value();
  EXPECT_EQ(tiered.image.Serialize(), untiered.image.Serialize());
}

// The README's tiering recipe on every Table 1 program, in process: a
// profiled run of the hardened binary on the train input, a re-rewrite
// against that profile joined through the profiled sitemap (`redfat
// --profile= --profile-sitemap`), and both binaries run on ref. Tiering
// must never cost guest cycles, nor change what the program computes.
TEST(TieringEndToEnd, SpecSuiteTieredNeverCostsMoreCycles) {
  for (const SpecBenchmark& bench : SpecSuite()) {
    const BinaryImage img = BuildSpecBenchmark(bench);
    RedFatTool plain(RedFatOptions{});
    const InstrumentResult untiered = plain.Instrument(img).value();
    TierProfile profile = ProfileFromRun(untiered.image, TrainInputs(40));
    profile.sitemap = &untiered.sites;
    RedFatOptions opts;
    opts.tier_profile = &profile;
    RedFatTool tiered_tool(opts);
    const InstrumentResult tiered = tiered_tool.Instrument(img).value();

    RunConfig ref;
    ref.policy = Policy::kLog;
    ref.inputs = RefInputs(100);
    const RunOutcome a = RunImage(untiered.image, RuntimeKind::kRedFat, ref);
    const RunOutcome b = RunImage(tiered.image, RuntimeKind::kRedFat, ref);
    EXPECT_EQ(b.outputs, a.outputs) << bench.name;
    EXPECT_LE(b.result.cycles, a.result.cycles)
        << bench.name << ": tiered "
        << 100.0 * (static_cast<double>(b.result.cycles) / static_cast<double>(a.result.cycles) -
                    1.0)
        << " % over untiered";
  }
}

// --- tier column in the site map --------------------------------------------

TEST(TieringSiteMap, TierColumnRoundTripsAndStaysOptional) {
  std::vector<SiteRecord> sites = FourSites();
  // All-warm: serialization must match the pre-tiering format exactly.
  const std::string untiered_text = SerializeSiteMap(sites);
  EXPECT_EQ(untiered_text.find("tier"), std::string::npos);

  sites[1].tier = Tier::kHot;
  const std::string tiered_text = SerializeSiteMap(sites);
  EXPECT_NE(tiered_text.find(" hot"), std::string::npos);

  std::vector<std::string> lines;
  std::string cur;
  for (char ch : tiered_text) {
    if (ch == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  Result<std::vector<SiteRecord>> parsed = ParseSiteMap(lines);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().size(), sites.size());
  EXPECT_EQ(parsed.value()[0].tier, Tier::kWarm);
  EXPECT_EQ(parsed.value()[1].tier, Tier::kHot);
  EXPECT_EQ(parsed.value()[2].tier, Tier::kWarm);
}

// Builds before the cold tier was removed wrote `cold` in the tier column;
// such a map is rejected with the typed unknown-tier error, not misread.
TEST(TieringSiteMap, ColdColumnFromAnOlderBuildIsRejected) {
  const std::vector<std::string> lines = {"# redfat site map: id addr rw kind tier",
                                          "0 0x400000 w full hot",
                                          "1 0x400010 r full cold"};
  Result<std::vector<SiteRecord>> parsed = ParseSiteMap(lines);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("unknown tier 'cold'"), std::string::npos) << parsed.error();
}

}  // namespace
}  // namespace redfat
