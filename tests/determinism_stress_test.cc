// Determinism stress test for batch rewriting: the corpus rewritten several
// images at once, at 2, 3 and 8 workers, must equal the same rewrites done
// one at a time, byte for byte and in every pass's items/changed. Each
// rewrite is serial, so this checks that concurrent rewrites share nothing.
//
// The corpus covers:
//   * every optimization tier of Table 1 (unopt / +elim / +batch / +merge),
//     plus -size, -reads, profile mode and the shadow-redzone ablation;
//   * a Kraken image and a synthetic image with > 64 KiB of text;
//   * a tiered rewrite, whose hot spans go to the second (inline-check)
//     blob at trampoline_base + kInlineCheckOffset;
//   * rip-relative accesses (which the generators never emit), whose
//     relocated displacements and check-body LB leas are recorded fields;
//   * the same input image under several configurations at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/redfat.h"
#include "src/support/parallel.h"
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

BinaryImage RipRelativeImage() {
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
  return pb.Finish();
}

// One rewrite of the corpus: an image under one configuration.
struct Job {
  std::string name;
  const BinaryImage* image = nullptr;
  RedFatOptions opts;
};

// The serialized image plus a stats fingerprint (items/changed per pass).
struct RewriteResult {
  std::vector<uint8_t> bytes;
  std::vector<std::string> stats;
  size_t sites = 0;

  bool operator==(const RewriteResult&) const = default;
};

RewriteResult Rewrite(const Job& job) {
  RewriteResult out;
  Result<InstrumentResult> r = RedFatTool(job.opts).Instrument(*job.image);
  if (!r.ok()) {
    return out;  // empty bytes: the comparison below names the job
  }
  out.bytes = r.value().image.Serialize();
  out.sites = r.value().sites.size();
  for (const PassStats& p : r.value().pipeline_stats.passes) {
    out.stats.push_back(p.name + ":" + std::to_string(p.items) + "/" +
                        std::to_string(p.changed));
  }
  return out;
}

// Rewrites every job of the corpus, `jobs` images at once.
std::vector<RewriteResult> RewriteAll(const std::vector<Job>& corpus, unsigned jobs) {
  std::vector<RewriteResult> out(corpus.size());
  ParallelFor(corpus.size(), jobs, [&](size_t i) { out[i] = Rewrite(corpus[i]); });
  return out;
}

TEST(DeterminismStressTest, BatchOfTheCorpusEqualsOneAtATime) {
  SynthParams mid;
  mid.seed = 0xd57e55;
  mid.mem_pct = 35;
  mid.stream_pct = 6;
  mid.churn_pct = 4;
  mid.max_accesses_per_ptr = 4;
  SynthParams large;  // > 64 KiB of text
  large.seed = 0xb16;
  large.mem_pct = 40;
  large.block_len = 60;
  large.filler_funcs = 600;
  large.filler_units_per_func = 8;
  const KrakenBenchmark& bench = KrakenSuite().front();
  const std::pair<std::string, BinaryImage> images[] = {
      {"synth-mid", GenerateSynthProgram(mid)},
      {"synth-large", GenerateSynthProgram(large)},
      {"rip-relative", RipRelativeImage()},
      {bench.name, BuildKrakenBenchmark(bench)},
  };
  std::vector<Job> corpus;
  for (const auto& [name, image] : images) {
    for (const GoldenConfig& cfg : GoldenConfigs()) {
      corpus.push_back(Job{name + "/" + cfg.name, &image, cfg.opts});
    }
  }
  // A tiered rewrite fills both blobs: trampolines and inline checks.
  const BinaryImage& kraken = images[3].second;
  Result<InstrumentResult> untiered = RedFatTool(RedFatOptions{}).Instrument(kraken);
  ASSERT_TRUE(untiered.ok()) << untiered.error();
  const TierProfile profile = SyntheticProfile(untiered.value().sites);
  RedFatOptions tiered;
  tiered.tier_profile = &profile;
  corpus.push_back(Job{bench.name + "/tiered", &kraken, tiered});

  const std::vector<RewriteResult> serial = RewriteAll(corpus, 1);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_FALSE(serial[i].bytes.empty()) << corpus[i].name << " failed to rewrite";
  }
  const Section* inline_check =
      BinaryImage::Deserialize(serial.back().bytes).value().FindSection(
          Section::Kind::kInlineCheck);
  ASSERT_NE(inline_check, nullptr) << "profile promoted no site: no inline-check blob";

  for (const unsigned jobs : {2u, 3u, 8u}) {
    const std::vector<RewriteResult> batch = RewriteAll(corpus, jobs);
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_TRUE(batch[i] == serial[i])
          << corpus[i].name << ": differs when " << jobs << " images are rewritten at once";
    }
  }
}

}  // namespace
}  // namespace redfat
