// Determinism stress test for the parallel rewrite path (ISSUE 3 contract):
// for a corpus of golden configurations, the instrumented image produced at
// --jobs ∈ {1, 2, 3, 8} must be byte-identical, and the per-pass
// items/changed stats must match exactly — the schedule may change timings,
// never results.
//
// The corpus deliberately crosses the sharded passes' seams:
//   * every optimization tier of Table 1 (unopt / +elim / +batch / +merge),
//     plus -size, -reads, profile mode and the shadow-redzone ablation;
//   * a Kraken image (large text: parallel disasm chunks, CFG ranges);
//   * a synthetic image > 64 KiB of text, so linear-sweep decode spans
//     several fixed 16 KiB chunks with instructions straddling boundaries;
//   * jobs = 3, which splits the spans unevenly across the emission chunks
//     that are rebased into the trampoline blob;
//   * a tiered rewrite, whose hot spans go to the second (inline-check)
//     blob at trampoline_base + kInlineCheckOffset;
//   * rip-relative accesses (which the generators never emit), whose
//     relocated displacements and check-body LB leas must follow their
//     chunk when it is rebased.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/redfat.h"
#include "src/workloads/builder.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

struct GoldenConfig {
  const char* name;
  RedFatOptions opts;
};

std::vector<GoldenConfig> GoldenConfigs() {
  RedFatOptions shadow;
  shadow.redzone_impl = RedzoneImpl::kShadow;
  return {
      {"unoptimized", RedFatOptions::Unoptimized()},
      {"elim", RedFatOptions::Elim()},
      {"batch", RedFatOptions::Batch()},
      {"merge", RedFatOptions::Merge()},
      {"no-size", RedFatOptions::NoSize()},
      {"no-reads", RedFatOptions::NoReads()},
      {"profile", RedFatOptions::Profile()},
      {"shadow", shadow},
  };
}

// Instruments `img` under `opts` at the given job count; returns the
// serialized image plus a stats fingerprint (items/changed per pass).
struct RewriteResult {
  std::vector<uint8_t> bytes;
  std::vector<std::string> stats;
  size_t sites = 0;
};

RewriteResult Rewrite(const BinaryImage& img, RedFatOptions opts, unsigned jobs) {
  opts.jobs = jobs;
  RedFatTool tool(opts);
  Result<InstrumentResult> r = tool.Instrument(img);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
  RewriteResult out;
  if (!r.ok()) {
    return out;
  }
  out.bytes = r.value().image.Serialize();
  out.sites = r.value().sites.size();
  for (const PassStats& p : r.value().pipeline_stats.passes) {
    out.stats.push_back(p.name + ":" + std::to_string(p.items) + "/" +
                        std::to_string(p.changed));
  }
  return out;
}

void ExpectConfigJobsInvariant(const BinaryImage& img, const char* image_name,
                               const GoldenConfig& cfg) {
  const RewriteResult serial = Rewrite(img, cfg.opts, 1);
  ASSERT_FALSE(serial.bytes.empty()) << image_name << "/" << cfg.name;
  for (unsigned jobs : {2u, 3u, 8u}) {
    const RewriteResult parallel = Rewrite(img, cfg.opts, jobs);
    EXPECT_EQ(parallel.bytes, serial.bytes)
        << image_name << "/" << cfg.name << " jobs=" << jobs
        << ": output image differs from --jobs=1";
    EXPECT_EQ(parallel.stats, serial.stats)
        << image_name << "/" << cfg.name << " jobs=" << jobs
        << ": per-pass items/changed differ from --jobs=1";
    EXPECT_EQ(parallel.sites, serial.sites)
        << image_name << "/" << cfg.name << " jobs=" << jobs;
  }
}

void ExpectJobsInvariant(const BinaryImage& img, const char* image_name) {
  for (const GoldenConfig& cfg : GoldenConfigs()) {
    ExpectConfigJobsInvariant(img, image_name, cfg);
  }
}

// A deterministic stand-in for a measured profile: every other site gets a
// pseudo-random cycle count, so the tier pass makes hot sites, profiled
// warm sites and unprofiled ones alike.
TierProfile SyntheticProfile(const std::vector<SiteRecord>& sites) {
  TierProfile profile;
  for (const SiteRecord& s : sites) {
    if (s.id % 2 == 0) {
      profile.cycles_by_site[s.id] = (s.id * 2654435761u) % 1000;
    }
  }
  return profile;
}

TEST(DeterminismStressTest, MidWeightSynthImage) {
  SynthParams p;
  p.seed = 0xd57e55;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.churn_pct = 4;
  p.max_accesses_per_ptr = 4;
  ExpectJobsInvariant(GenerateSynthProgram(p), "synth-mid");
}

TEST(DeterminismStressTest, LargeTextCrossesDisasmChunks) {
  // > 64 KiB of text: the parallel linear sweep runs several 16 KiB chunks
  // and must stitch straddling instructions exactly like the serial sweep.
  SynthParams p;
  p.seed = 0xb16;
  p.mem_pct = 40;
  p.block_len = 60;
  p.filler_funcs = 600;
  p.filler_units_per_func = 8;
  const BinaryImage img = GenerateSynthProgram(p);
  uint64_t text_bytes = 0;
  for (const Section& s : img.sections) {
    if (s.kind == Section::Kind::kText) {
      text_bytes += s.bytes.size();
    }
  }
  ASSERT_GT(text_bytes, 64u * 1024u) << "workload too small to cross chunks";
  ExpectJobsInvariant(img, "synth-large");
}

TEST(DeterminismStressTest, TieredRewriteEmitsBothBlobsIdentically) {
  const KrakenBenchmark& bench = KrakenSuite().front();
  const BinaryImage img = BuildKrakenBenchmark(bench);
  Result<InstrumentResult> untiered = RedFatTool(RedFatOptions{}).Instrument(img);
  ASSERT_TRUE(untiered.ok()) << untiered.error();
  const TierProfile profile = SyntheticProfile(untiered.value().sites);

  GoldenConfig tiered{"tiered", RedFatOptions{}};
  tiered.opts.tier_profile = &profile;
  Result<InstrumentResult> serial = RedFatTool(tiered.opts).Instrument(img);
  ASSERT_TRUE(serial.ok()) << serial.error();
  ASSERT_NE(serial.value().image.FindSection(Section::Kind::kInlineCheck), nullptr)
      << "profile promoted no site: the inline-check blob is not exercised";
  ASSERT_NE(serial.value().image.FindSection(Section::Kind::kTrampoline), nullptr);
  ExpectConfigJobsInvariant(img, bench.name.c_str(), tiered);
}

TEST(DeterminismStressTest, RipRelativeAccessesFollowRebasedChunks) {
  ProgramBuilder pb;
  const uint64_t data = pb.AddZeroData(4096);
  Assembler& as = pb.text();
  as.MovRI(Reg::kRcx, 0);
  const MemOperand rip = MemAt(Reg::kRip, 0);
  const MemOperand rip_indexed = MemBIS(Reg::kRip, Reg::kRcx, 3, 0);
  for (uint64_t k = 0; k < 256; ++k) {
    const uint64_t slot = data + 8 * k;
    as.EmitRipRelative({.op = Op::kLoad, .r0 = Reg::kRax, .mem = rip}, slot);
    as.AddI(Reg::kRax, 1);
    as.EmitRipRelative({.op = Op::kStoreR, .r0 = Reg::kRax, .mem = rip}, slot);
    as.EmitRipRelative({.op = Op::kStoreI, .mem = rip, .imm = 7}, slot + 8);
    as.EmitRipRelative({.op = Op::kLea, .r0 = Reg::kRdx, .mem = rip}, slot);
    as.EmitRipRelative({.op = Op::kLoad, .r0 = Reg::kRbx, .mem = rip_indexed}, slot);
    as.MovRR(Reg::kRsi, Reg::kRbx);
  }
  pb.EmitExit(0);
  ExpectJobsInvariant(pb.Finish(), "rip-relative");
}

TEST(DeterminismStressTest, KrakenImage) {
  // One representative Kraken benchmark (big filler-heavy binary, the
  // paper's Chrome-scale shape). The full suite would be minutes; one image
  // exercises the same code paths.
  const KrakenBenchmark& bench = KrakenSuite().front();
  ExpectJobsInvariant(BuildKrakenBenchmark(bench), bench.name.c_str());
}

}  // namespace
}  // namespace redfat
