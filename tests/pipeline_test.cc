// Tests for the pass pipeline (core/pipeline.h): registration/ordering,
// ablation-by-disabling, and the --stats JSON format.
#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/core/redfat.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

const std::vector<std::string> kAllPasses = {
    "disasm", "cfg",   "classify", "eliminate", "group",    "tier",
    "batch",  "merge", "liveness", "codegen",   "patch",
};

BinaryImage SmallHeapProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);
  as.MovRI(Reg::kRcx, 0);
  auto loop = as.NewLabel();
  as.Bind(loop);
  as.Store(Reg::kRcx, MemBIS(Reg::kR12, Reg::kRcx, 3, 0));
  as.Load(Reg::kRax, MemBIS(Reg::kR12, Reg::kRcx, 3, 0));
  as.AddI(Reg::kRcx, 1);
  as.CmpI(Reg::kRcx, 8);
  as.Jcc(Cond::kUlt, loop);
  as.MovRR(Reg::kRdi, Reg::kR12);
  as.HostCall(HostFn::kFree);
  pb.EmitExit(0);
  return pb.Finish();
}

BinaryImage RunHardening(const BinaryImage& img, const RedFatOptions& opts,
                         PipelineStats* stats = nullptr) {
  Pipeline p = Pipeline::Hardening(opts);
  PipelineContext ctx(img, opts, nullptr);
  const Status st = p.Run(ctx);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error());
  if (stats != nullptr) {
    *stats = p.stats();
  }
  return std::move(ctx.output);
}

// --- registration & ordering ----------------------------------------------

TEST(PipelineTest, HardeningRegistersAllPassesInOrder) {
  Pipeline p = Pipeline::Hardening(RedFatOptions{});
  EXPECT_EQ(p.PassNames(), kAllPasses);
  for (const std::string& name : kAllPasses) {
    // tier only runs when a profile is supplied (--profile=FILE).
    if (name == "tier") {
      EXPECT_FALSE(p.IsEnabled(name)) << name;
      continue;
    }
    EXPECT_TRUE(p.IsEnabled(name)) << name;
  }

  RedFatOptions with_profile;
  static const TierProfile kEmptyProfile;
  with_profile.tier_profile = &kEmptyProfile;
  Pipeline tiered = Pipeline::Hardening(with_profile);
  EXPECT_TRUE(tiered.IsEnabled("tier"));
}

TEST(PipelineTest, OptionFlagsDisableOptimizationPasses) {
  Pipeline unopt = Pipeline::Hardening(RedFatOptions::Unoptimized());
  EXPECT_EQ(unopt.PassNames(), kAllPasses);  // registered, just disabled
  EXPECT_FALSE(unopt.IsEnabled("eliminate"));
  EXPECT_FALSE(unopt.IsEnabled("batch"));
  EXPECT_FALSE(unopt.IsEnabled("merge"));
  EXPECT_TRUE(unopt.IsEnabled("codegen"));

  Pipeline batch = Pipeline::Hardening(RedFatOptions::Batch());
  EXPECT_TRUE(batch.IsEnabled("eliminate"));
  EXPECT_TRUE(batch.IsEnabled("batch"));
  EXPECT_FALSE(batch.IsEnabled("merge"));

  // Profiling always disables merge (per-site attribution).
  Pipeline prof = Pipeline::Hardening(RedFatOptions::Profile());
  EXPECT_FALSE(prof.IsEnabled("merge"));
  EXPECT_TRUE(prof.IsEnabled("batch"));
}

TEST(PipelineTest, SetEnabledRejectsUnknownNames) {
  Pipeline p = Pipeline::Hardening(RedFatOptions{});
  EXPECT_FALSE(p.SetEnabled("no-such-pass", false));
  EXPECT_FALSE(p.IsEnabled("no-such-pass"));
  EXPECT_TRUE(p.SetEnabled("merge", false));
  EXPECT_FALSE(p.IsEnabled("merge"));
}

class CountingPass : public Pass {
 public:
  explicit CountingPass(int* counter) : counter_(counter) {}
  const char* name() const override { return "counting"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    (void)ctx;
    ++*counter_;
    return PassOutcome{.items = 1};
  }

 private:
  int* counter_;
};

TEST(PipelineTest, CustomPassRegistrationAndStats) {
  int runs = 0;
  Pipeline p;
  p.Add(std::make_unique<CountingPass>(&runs));
  const RedFatOptions opts;
  const BinaryImage img = SmallHeapProgram();
  PipelineContext ctx(img, opts, nullptr);
  ASSERT_TRUE(p.Run(ctx).ok());
  EXPECT_EQ(runs, 1);
  ASSERT_EQ(p.stats().passes.size(), 1u);
  EXPECT_EQ(p.stats().passes[0].name, "counting");
  EXPECT_EQ(p.stats().passes[0].items, 1u);

  // Disabled passes do not run and do not appear in the stats.
  p.SetEnabled("counting", false);
  PipelineContext ctx2(img, opts, nullptr);
  ASSERT_TRUE(p.Run(ctx2).ok());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(p.stats().passes.empty());
}

// --- pipeline vs. driver equivalence ---------------------------------------

TEST(PipelineTest, DisablingMergePassMatchesMergeFlagOff) {
  const BinaryImage img = SmallHeapProgram();
  RedFatOptions no_merge;
  no_merge.merge = false;
  const BinaryImage via_flag = RunHardening(img, no_merge);

  // Same column, expressed as a pipeline ablation instead of an option.
  Pipeline p = Pipeline::Hardening(RedFatOptions{});
  ASSERT_TRUE(p.SetEnabled("merge", false));
  RedFatOptions opts;
  PipelineContext ctx(img, opts, nullptr);
  ASSERT_TRUE(p.Run(ctx).ok());

  EXPECT_EQ(ctx.output.Serialize(), via_flag.Serialize());
}

TEST(PipelineTest, ToolDriverMatchesPipeline) {
  const BinaryImage img = SmallHeapProgram();
  const RedFatOptions opts;
  RedFatTool tool(opts);
  Result<InstrumentResult> ir = tool.Instrument(img);
  ASSERT_TRUE(ir.ok()) << ir.error();
  EXPECT_EQ(ir.value().image.Serialize(), RunHardening(img, opts).Serialize());
  EXPECT_FALSE(ir.value().pipeline_stats.passes.empty());
}

// --- stats JSON -------------------------------------------------------------

TEST(PipelineStatsTest, ToJsonGolden) {
  PipelineStats stats;
  stats.jobs = 2;
  stats.total_ms = 12.5;
  stats.passes.push_back(PassStats{"disasm", 100, 0, 1.25, 0, 0.0});
  stats.passes.push_back(PassStats{"merge", 40, 7, 0.5, 210, 1.25});
  EXPECT_EQ(stats.ToJson(),
            "{\"jobs\":2,\"total_ms\":12.500,\"passes\":["
            "{\"name\":\"disasm\",\"items\":100,\"changed\":0,\"wall_ms\":1.250,"
            "\"cycles_saved\":0,\"start_ms\":0.000},"
            "{\"name\":\"merge\",\"items\":40,\"changed\":7,\"wall_ms\":0.500,"
            "\"cycles_saved\":210,\"start_ms\":1.250}]}");
}

TEST(PipelineStatsTest, ParsesPreStartMsFormat) {
  // `--stats` output from before start_ms existed must keep parsing, with
  // the missing field defaulting to zero.
  Result<PipelineStats> parsed = PipelineStatsFromJson(
      "{\"jobs\":2,\"total_ms\":12.500,\"passes\":["
      "{\"name\":\"disasm\",\"items\":100,\"changed\":0,\"wall_ms\":1.250,"
      "\"cycles_saved\":0}]}");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().passes.size(), 1u);
  EXPECT_EQ(parsed.value().passes[0].items, 100u);
  EXPECT_DOUBLE_EQ(parsed.value().passes[0].start_ms, 0.0);
}

TEST(PipelineStatsTest, JsonRoundTrip) {
  PipelineStats stats;
  stats.jobs = 8;
  stats.total_ms = 3.75;
  stats.passes.push_back(PassStats{"classify", 1234, 567, 0.125, 0, 0.5});
  stats.passes.push_back(PassStats{"eliminate", 567, 89, 0.25, 3382, 0.625});

  Result<PipelineStats> parsed = PipelineStatsFromJson(stats.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().jobs, 8u);
  EXPECT_DOUBLE_EQ(parsed.value().total_ms, 3.75);
  ASSERT_EQ(parsed.value().passes.size(), 2u);
  EXPECT_EQ(parsed.value().passes[0].name, "classify");
  EXPECT_EQ(parsed.value().passes[0].items, 1234u);
  EXPECT_EQ(parsed.value().passes[1].changed, 89u);
  EXPECT_EQ(parsed.value().passes[1].cycles_saved, 3382u);
  EXPECT_DOUBLE_EQ(parsed.value().passes[0].start_ms, 0.5);
  EXPECT_DOUBLE_EQ(parsed.value().passes[1].start_ms, 0.625);

  const PassStats* found = parsed.value().Find("eliminate");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->items, 567u);
  EXPECT_EQ(parsed.value().Find("nope"), nullptr);
}

TEST(PipelineStatsTest, JsonRoundTripsPassNamesThatNeedEscaping) {
  PipelineStats stats;
  stats.passes.push_back(PassStats{"we\"ird\\name", 1, 0, 0.5, 0, 0});
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"name\":\"we\\\"ird\\\\name\""), std::string::npos) << json;
  Result<PipelineStats> parsed = PipelineStatsFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().passes.size(), 1u);
  EXPECT_EQ(parsed.value().passes[0].name, stats.passes[0].name);
  EXPECT_EQ(parsed.value().ToJson(), json);
}

TEST(PipelineStatsTest, JsonParserRejectsMalformedInput) {
  EXPECT_FALSE(PipelineStatsFromJson("").ok());
  EXPECT_FALSE(PipelineStatsFromJson("{").ok());
  EXPECT_FALSE(PipelineStatsFromJson("{\"jobs\":}").ok());
  EXPECT_FALSE(PipelineStatsFromJson("{\"unknown\":1}").ok());
  EXPECT_FALSE(PipelineStatsFromJson("{\"jobs\":1} trailing").ok());
}

TEST(PipelineStatsTest, RealRunProducesParseableStats) {
  PipelineStats stats;
  RunHardening(SmallHeapProgram(), RedFatOptions{}, &stats);
  Result<PipelineStats> parsed = PipelineStatsFromJson(stats.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().jobs, 1u);  // a rewrite runs on one thread
  // Disabled passes contribute no stats; tier is off without --profile.
  std::vector<std::string> expected;
  for (const std::string& name : kAllPasses) {
    if (name != "tier") {
      expected.push_back(name);
    }
  }
  ASSERT_EQ(parsed.value().passes.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(parsed.value().passes[i].name, expected[i]);
  }
  const PassStats* disasm = parsed.value().Find("disasm");
  ASSERT_NE(disasm, nullptr);
  EXPECT_GT(disasm->items, 0u);
}

}  // namespace
}  // namespace redfat
