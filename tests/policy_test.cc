// Unit tests for the hardening-policy layer: tier -> knob resolution,
// override precedence, conflict diagnostics, ablation presets, byte-identity
// of the extensive tier with the pre-policy defaults, sitemap
// policy-header round-tripping, and the debug tier's end-to-end "catches
// what fast misses" property.
#include <gtest/gtest.h>

#include "src/core/harness.h"
#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/core/sitemap.h"
#include "src/dbi/shadow_check.h"
#include "src/workloads/builder.h"
#include "src/workloads/spec.h"

namespace redfat {
namespace {

ResolvedPolicy ResolveTier(HardenTier tier) {
  HardeningPolicy p;
  p.tier = tier;
  return p.Resolve().value();
}

void ExpectSameOptions(const RedFatOptions& a, const RedFatOptions& b) {
  EXPECT_EQ(a.check_reads, b.check_reads);
  EXPECT_EQ(a.check_writes, b.check_writes);
  EXPECT_EQ(a.redzone_impl, b.redzone_impl);
  EXPECT_EQ(a.lowfat, b.lowfat);
  EXPECT_EQ(a.size_hardening, b.size_hardening);
  EXPECT_EQ(a.redzone_only_sites, b.redzone_only_sites);
  EXPECT_EQ(a.merged_ub, b.merged_ub);
  EXPECT_EQ(a.elim, b.elim);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.merge, b.merge);
  EXPECT_EQ(a.clobber_analysis, b.clobber_analysis);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.trampoline_base, b.trampoline_base);
  EXPECT_DOUBLE_EQ(a.hot_threshold, b.hot_threshold);
}

// --- tier -> knob resolution ------------------------------------------------

TEST(Resolve, NoneDisablesEveryCheckFamily) {
  const ResolvedPolicy r = ResolveTier(HardenTier::kNone);
  EXPECT_FALSE(r.rewrite.check_reads);
  EXPECT_FALSE(r.rewrite.check_writes);
  EXPECT_EQ(r.runtime, RuntimeKind::kBaseline);
  EXPECT_FALSE(r.dbi_shadow_check);
  EXPECT_TRUE(r.explicit_tier);
}

TEST(Resolve, FastIsLowfatOnlyWithAggressiveDemotion) {
  const ResolvedPolicy r = ResolveTier(HardenTier::kFast);
  EXPECT_TRUE(r.rewrite.lowfat);
  EXPECT_FALSE(r.rewrite.redzone_only_sites);
  EXPECT_DOUBLE_EQ(r.rewrite.hot_threshold, 0.8);
  EXPECT_EQ(r.runtime, RuntimeKind::kRedFat);
  EXPECT_FALSE(r.dbi_shadow_check);
}

TEST(Resolve, ExtensiveMatchesDefaultOptionsExactly) {
  // The invariant the whole refactor hangs on: --harden=extensive resolves
  // to the pre-policy RedFatOptions{} defaults, field for field.
  const ResolvedPolicy r = ResolveTier(HardenTier::kExtensive);
  ExpectSameOptions(r.rewrite, RedFatOptions{});
  EXPECT_EQ(r.runtime, RuntimeKind::kRedFat);
  EXPECT_FALSE(r.dbi_shadow_check);
}

TEST(Resolve, DebugAddsDbiShadowCheckingAndNeverDemotes) {
  const ResolvedPolicy r = ResolveTier(HardenTier::kDebug);
  EXPECT_TRUE(r.rewrite.lowfat);
  EXPECT_TRUE(r.rewrite.redzone_only_sites);
  EXPECT_DOUBLE_EQ(r.rewrite.hot_threshold, 1.0);
  EXPECT_EQ(r.runtime, RuntimeKind::kRedFatDebug);
  EXPECT_TRUE(r.dbi_shadow_check);
}

TEST(Resolve, RuntimeForTierMatchesResolution) {
  for (HardenTier t : {HardenTier::kNone, HardenTier::kFast, HardenTier::kExtensive,
                       HardenTier::kDebug}) {
    EXPECT_EQ(ResolveTier(t).runtime, RuntimeForTier(t)) << HardenTierName(t);
  }
}

TEST(Resolve, BudgetsOrderByCheckingStrength) {
  EXPECT_LT(TierOverheadBudgetPct(HardenTier::kNone),
            TierOverheadBudgetPct(HardenTier::kFast));
  EXPECT_LT(TierOverheadBudgetPct(HardenTier::kFast),
            TierOverheadBudgetPct(HardenTier::kExtensive));
  EXPECT_LT(TierOverheadBudgetPct(HardenTier::kExtensive),
            TierOverheadBudgetPct(HardenTier::kDebug));
}

// --- override precedence ----------------------------------------------------

TEST(Resolve, OverridesApplyOnTopOfTierDefaults) {
  HardeningPolicy p;
  p.check_reads = false;
  p.elim = false;
  p.hot_threshold = 0.5;
  const ResolvedPolicy r = p.Resolve().value();
  EXPECT_FALSE(r.rewrite.check_reads);
  EXPECT_TRUE(r.rewrite.check_writes);
  EXPECT_FALSE(r.rewrite.elim);
  EXPECT_DOUBLE_EQ(r.rewrite.hot_threshold, 0.5);
}

TEST(Resolve, HotThresholdOverrideBeatsTierDefault) {
  HardeningPolicy p;
  p.tier = HardenTier::kFast;
  p.hot_threshold = 0.95;
  EXPECT_DOUBLE_EQ(p.Resolve().value().rewrite.hot_threshold, 0.95);
}

TEST(Resolve, ShadowOverrideSelectsShadowImplAndRuntime) {
  HardeningPolicy p;
  p.shadow_impl = true;
  const ResolvedPolicy r = p.Resolve().value();
  EXPECT_EQ(r.rewrite.redzone_impl, RedzoneImpl::kShadow);
  EXPECT_EQ(r.runtime, RuntimeKind::kRedFatShadow);
}

// --- conflict diagnostics ---------------------------------------------------

struct ConflictCase {
  const char* name;
  HardenTier tier;
  void (*apply)(HardeningPolicy*);
  const char* must_mention;
};

class ConflictPolicy : public ::testing::TestWithParam<ConflictCase> {};

TEST_P(ConflictPolicy, RejectsWithBothSidesNamed) {
  const ConflictCase& c = GetParam();
  HardeningPolicy p;
  p.tier = c.tier;
  c.apply(&p);
  const Result<ResolvedPolicy> r = p.Resolve();
  ASSERT_FALSE(r.ok()) << c.name;
  EXPECT_NE(r.error().find(HardenTierName(c.tier)), std::string::npos) << r.error();
  EXPECT_NE(r.error().find(c.must_mention), std::string::npos) << r.error();
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ConflictPolicy,
    ::testing::Values(
        ConflictCase{"none_shadow", HardenTier::kNone,
                     [](HardeningPolicy* p) { p->shadow_impl = true; }, "--shadow"},
        ConflictCase{"fast_no_lowfat", HardenTier::kFast,
                     [](HardeningPolicy* p) { p->lowfat = false; }, "--no-lowfat"},
        ConflictCase{"fast_shadow", HardenTier::kFast,
                     [](HardeningPolicy* p) { p->shadow_impl = true; }, "--shadow"},
        ConflictCase{"fast_redzone_sites", HardenTier::kFast,
                     [](HardeningPolicy* p) { p->redzone_only_sites = true; },
                     "extensive"},
        ConflictCase{"debug_no_lowfat", HardenTier::kDebug,
                     [](HardeningPolicy* p) { p->lowfat = false; }, "--no-lowfat"},
        ConflictCase{"debug_shadow", HardenTier::kDebug,
                     [](HardeningPolicy* p) { p->shadow_impl = true; }, "--shadow"}),
    [](const ::testing::TestParamInfo<ConflictCase>& info) { return info.param.name; });

TEST(Parse, TierNamesRoundTrip) {
  for (HardenTier t : {HardenTier::kNone, HardenTier::kFast, HardenTier::kExtensive,
                       HardenTier::kDebug}) {
    EXPECT_EQ(ParseHardenTier(HardenTierName(t)).value(), t);
  }
  const Result<HardenTier> bad = ParseHardenTier("paranoid");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("paranoid"), std::string::npos);
}

// --- rheap feature lists (--rheap=LIST) -------------------------------------

TEST(Rheap, ListNameRoundTripsThroughParse) {
  std::vector<RheapOptions> cases;
  cases.emplace_back();  // defaults: features off, quarantine=64
  RheapOptions none;
  none.quarantine_slots = 0;
  cases.push_back(none);
  RheapOptions prot;
  prot.prot_freelist = true;
  prot.quarantine_slots = 0;
  cases.push_back(prot);
  RheapOptions all;
  all.prot_freelist = all.guard_memcpy = all.random = true;
  all.quarantine_slots = 7;
  cases.push_back(all);
  for (const RheapOptions& o : cases) {
    const std::string name = RheapListName(o);
    const Result<RheapOptions> back = ParseRheapList(name);
    ASSERT_TRUE(back.ok()) << name << ": " << back.error();
    EXPECT_EQ(back.value(), o) << name;
  }
  EXPECT_EQ(RheapListName(none), "none");
}

TEST(Rheap, ExplicitListIsAbsolute) {
  const RheapOptions o = ParseRheapList("prot-freelist").value();
  EXPECT_TRUE(o.prot_freelist);
  EXPECT_FALSE(o.guard_memcpy);
  EXPECT_FALSE(o.random);
  EXPECT_EQ(o.quarantine_slots, 0u) << "an explicit list starts from all-off";
}

TEST(Rheap, MalformedListsAreErrors) {
  for (const char* bad : {"", "bogus", "none,random", "quarantine=",
                          "quarantine=xyz", "prot-freelist,,random"}) {
    EXPECT_FALSE(ParseRheapList(bad).ok()) << bad;
  }
  const Result<RheapOptions> unknown = ParseRheapList("bogus");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("bogus"), std::string::npos);
}

TEST(Rheap, TierDefaultsMatchTheDocumentedLadder) {
  // fast = perf-only, extensive = +prot-freelist, debug = everything.
  EXPECT_EQ(RheapForTier(HardenTier::kNone), RheapOptions{});
  EXPECT_EQ(RheapForTier(HardenTier::kFast), RheapOptions{});
  const RheapOptions ext = RheapForTier(HardenTier::kExtensive);
  EXPECT_TRUE(ext.prot_freelist);
  EXPECT_FALSE(ext.guard_memcpy);
  EXPECT_FALSE(ext.random);
  const RheapOptions dbg = RheapForTier(HardenTier::kDebug);
  EXPECT_TRUE(dbg.prot_freelist);
  EXPECT_TRUE(dbg.guard_memcpy);
  EXPECT_TRUE(dbg.random);
}

TEST(Rheap, ExplicitListReplacesTierDefaultOnResolve) {
  HardeningPolicy p;
  p.tier = HardenTier::kExtensive;
  p.rheap = ParseRheapList("random,quarantine=8").value();
  const ResolvedPolicy r = p.Resolve().value();
  EXPECT_TRUE(r.explicit_rheap);
  EXPECT_EQ(r.rheap, *p.rheap);
  const ResolvedPolicy d = ResolveTier(HardenTier::kExtensive);
  EXPECT_FALSE(d.explicit_rheap);
  EXPECT_EQ(d.rheap, RheapForTier(HardenTier::kExtensive));
}

TEST(Rheap, NoneTierRejectsRheapList) {
  HardeningPolicy p;
  p.tier = HardenTier::kNone;
  p.rheap = ParseRheapList("prot-freelist").value();
  const Result<ResolvedPolicy> r = p.Resolve();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("--rheap"), std::string::npos) << r.error();
}

TEST(SiteMapHeader, RheapHeaderRoundTrips) {
  std::vector<SiteRecord> sites(1);
  sites[0].addr = 0x400020;
  sites[0].is_write = true;
  sites[0].kind = CheckKind::kFull;
  const HardenTier tier = HardenTier::kExtensive;
  const RheapOptions opts = ParseRheapList("prot-freelist,quarantine=32").value();
  const std::string text = SerializeSiteMap(sites, &tier, &opts);
  EXPECT_NE(text.find("# rheap: prot-freelist,quarantine=32\n"), std::string::npos)
      << text;

  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  std::optional<HardenTier> harden;
  std::optional<RheapOptions> rheap;
  const auto back = ParseSiteMap(lines, &harden, &rheap);
  ASSERT_TRUE(back.ok()) << back.error();
  ASSERT_TRUE(harden.has_value());
  EXPECT_EQ(*harden, HardenTier::kExtensive);
  ASSERT_TRUE(rheap.has_value());
  EXPECT_EQ(*rheap, opts);

  // Absent header: byte-identical legacy map, out-param reset.
  const std::string legacy = SerializeSiteMap(sites, &tier, nullptr);
  EXPECT_EQ(legacy.find("# rheap:"), std::string::npos);
  std::optional<RheapOptions> stale = RheapOptions{};
  ASSERT_TRUE(
      ParseSiteMap({"# redfat site map: id addr rw kind"}, &harden, &stale).ok());
  EXPECT_FALSE(stale.has_value());
}

// --- ablation presets (Table 1) ---------------------------------------------

TEST(Ablation, PresetsEncodeTheTableOneColumns) {
  RedFatOptions unopt;
  unopt.elim = unopt.batch = unopt.merge = false;
  ExpectSameOptions(RedFatOptions::Unoptimized(), unopt);

  RedFatOptions elim;
  elim.batch = elim.merge = false;
  ExpectSameOptions(RedFatOptions::Elim(), elim);

  RedFatOptions batch;
  batch.merge = false;
  ExpectSameOptions(RedFatOptions::Batch(), batch);

  ExpectSameOptions(RedFatOptions::Merge(), RedFatOptions{});

  RedFatOptions nosize;
  nosize.size_hardening = false;
  ExpectSameOptions(RedFatOptions::NoSize(), nosize);

  RedFatOptions noreads;
  noreads.size_hardening = false;
  noreads.check_reads = false;
  ExpectSameOptions(RedFatOptions::NoReads(), noreads);
}

// --- FromOptions classification (pre-policy call sites) ---------------------

TEST(FromOptions, ClassifiesOntoTheNearestTier) {
  EXPECT_EQ(ResolvedPolicy::FromOptions(RedFatOptions{}).tier, HardenTier::kExtensive);
  EXPECT_FALSE(ResolvedPolicy::FromOptions(RedFatOptions{}).explicit_tier);

  RedFatOptions off;
  off.check_reads = off.check_writes = false;
  EXPECT_EQ(ResolvedPolicy::FromOptions(off).tier, HardenTier::kNone);
  EXPECT_EQ(ResolvedPolicy::FromOptions(off).runtime, RuntimeKind::kBaseline);

  RedFatOptions fast;
  fast.redzone_only_sites = false;
  EXPECT_EQ(ResolvedPolicy::FromOptions(fast).tier, HardenTier::kFast);

  RedFatOptions shadow;
  shadow.redzone_impl = RedzoneImpl::kShadow;
  EXPECT_EQ(ResolvedPolicy::FromOptions(shadow).runtime, RuntimeKind::kRedFatShadow);
}

// --- sitemap policy header --------------------------------------------------

TEST(SiteMapHeader, RoundTripsThroughSerializeAndParse) {
  std::vector<SiteRecord> sites(1);
  sites[0].id = 0;
  sites[0].addr = 0x400010;
  sites[0].is_write = true;
  sites[0].kind = CheckKind::kFull;

  const HardenTier tier = HardenTier::kFast;
  const std::string text = SerializeSiteMap(sites, &tier);
  EXPECT_EQ(text.rfind("# harden: fast\n", 0), 0u);

  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  std::optional<HardenTier> parsed;
  const std::vector<SiteRecord> back = ParseSiteMap(lines, &parsed).value();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, HardenTier::kFast);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].addr, 0x400010u);
}

TEST(SiteMapHeader, AbsentHeaderLeavesTierUnknownAndBytesUnchanged) {
  std::vector<SiteRecord> sites(1);
  sites[0].kind = CheckKind::kRedzoneOnly;
  // No policy: the serialized map must be byte-identical to the legacy
  // format (no header line), and parsing must reset the out-param.
  const std::string text = SerializeSiteMap(sites);
  EXPECT_EQ(text.rfind("# redfat site map:", 0), 0u);
  std::optional<HardenTier> parsed = HardenTier::kDebug;  // stale value
  ASSERT_TRUE(ParseSiteMap({"# redfat site map: id addr rw kind"}, &parsed).ok());
  EXPECT_FALSE(parsed.has_value());
}

TEST(SiteMapHeader, MalformedTierIsAnError) {
  std::optional<HardenTier> parsed;
  const auto r = ParseSiteMap({"# harden: turbo"}, &parsed);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("turbo"), std::string::npos);
}

// --- byte-identity & determinism over golden configs ------------------------

BinaryImage SpecImage(const std::string& name) {
  for (const SpecBenchmark& b : SpecSuite()) {
    if (b.name == name) {
      return BuildSpecBenchmark(b);
    }
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return BinaryImage{};
}

TEST(ByteIdentity, ExtensiveTierMatchesLegacyDefaultRewrite) {
  for (const char* name : {"mcf", "xalancbmk", "perlbench"}) {
    const BinaryImage input = SpecImage(name);
    RedFatTool legacy{RedFatOptions{}};
    RedFatTool tiered(ResolveTier(HardenTier::kExtensive));
    const InstrumentResult a = legacy.Instrument(input).value();
    const InstrumentResult b = tiered.Instrument(input).value();
    EXPECT_EQ(a.image.Serialize(), b.image.Serialize()) << name;
    EXPECT_EQ(a.sites.size(), b.sites.size()) << name;
    // Same bytes, different provenance: only the policy rewrite records an
    // explicit tier (and hence emits a sitemap policy header).
    EXPECT_FALSE(a.harden_explicit);
    EXPECT_TRUE(b.harden_explicit);
    EXPECT_EQ(a.harden, HardenTier::kExtensive);
    EXPECT_EQ(b.harden, HardenTier::kExtensive);
  }
}

// --- fast-tier site selection & the debug tier's extra coverage -------------

// A victim program with ONE heap access through an ambiguous operand
// (index-only addressing: no unambiguous pointer base), landing `offset`
// bytes past a 64-byte allocation's base.
BinaryImage AmbiguousAccessProgram(int64_t offset) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kRcx, Reg::kRax);
  as.AddI(Reg::kRcx, offset);
  as.Store(Reg::kRdx, MemBIS(Reg::kNone, Reg::kRcx, 0, 0));  // ambiguous
  pb.EmitExit(0);
  return pb.Finish();
}

TEST(FastTier, DropsRedzoneOnlySitesAndCountsThem) {
  const BinaryImage input = AmbiguousAccessProgram(0);
  const InstrumentResult ext =
      RedFatTool(ResolveTier(HardenTier::kExtensive)).Instrument(input).value();
  const InstrumentResult fast =
      RedFatTool(ResolveTier(HardenTier::kFast)).Instrument(input).value();
  ASSERT_EQ(ext.sites.size(), 1u);
  EXPECT_EQ(ext.sites[0].kind, CheckKind::kRedzoneOnly);
  EXPECT_EQ(fast.sites.size(), 0u);
  EXPECT_EQ(fast.plan_stats.redzone_dropped, 1u);
  EXPECT_EQ(ext.plan_stats.redzone_dropped, 0u);
}

TEST(DebugTier, CatchesTheOverflowFastMisses) {
  // The write lands in the trailing redzone (offset 64 of a 64-byte
  // object): extensive's (Redzone)-only check catches it inline; fast has
  // no check there and runs to completion; debug catches it anyway via the
  // DBI shadow-check observer over the redfat-debug runtime.
  const BinaryImage input = AmbiguousAccessProgram(64);
  const InstrumentResult ext =
      RedFatTool(ResolveTier(HardenTier::kExtensive)).Instrument(input).value();
  const InstrumentResult fast =
      RedFatTool(ResolveTier(HardenTier::kFast)).Instrument(input).value();

  RunConfig cfg;
  EXPECT_EQ(RunImage(ext.image, RuntimeKind::kRedFat, cfg).result.reason,
            HaltReason::kMemErrorAbort);
  EXPECT_EQ(RunImage(fast.image, RuntimeKind::kRedFat, cfg).result.reason,
            HaltReason::kExit);  // the miss

  ShadowCheckObserver observer;
  RunConfig debug_cfg;
  debug_cfg.observer = &observer;
  const RunOutcome out = RunImage(fast.image, RuntimeKind::kRedFatDebug, debug_cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kBounds);
  EXPECT_GE(observer.errors(), 1u);
}

TEST(DebugTier, BenignRunIsCleanUnderTheObserver) {
  const BinaryImage input = AmbiguousAccessProgram(0);  // in bounds
  const InstrumentResult fast =
      RedFatTool(ResolveTier(HardenTier::kFast)).Instrument(input).value();
  ShadowCheckObserver observer;
  RunConfig cfg;
  cfg.observer = &observer;
  const RunOutcome out = RunImage(fast.image, RuntimeKind::kRedFatDebug, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  EXPECT_TRUE(out.errors.empty());
  EXPECT_EQ(observer.errors(), 0u);
  EXPECT_GT(observer.checks(), 0u);  // it did look at the access
}

TEST(DebugTier, UseAfterFreeIsClassified) {
  // Free the object, then store through the stale pointer: the debug
  // allocator marks the payload kFreed, so the observer reports a UAF.
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kRcx, Reg::kRax);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kFree);
  as.Store(Reg::kRdx, MemBIS(Reg::kNone, Reg::kRcx, 0, 0));  // stale, ambiguous
  pb.EmitExit(0);
  const InstrumentResult fast =
      RedFatTool(ResolveTier(HardenTier::kFast)).Instrument(pb.Finish()).value();
  ASSERT_EQ(fast.sites.size(), 0u);
  ShadowCheckObserver observer;
  RunConfig cfg;
  cfg.observer = &observer;
  const RunOutcome out = RunImage(fast.image, RuntimeKind::kRedFatDebug, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kUaf);
}

}  // namespace
}  // namespace redfat
