// Profile-guided check-tiering benchmark: does `--profile=metrics.json`
// actually cut guest check cycles on a hot-loop workload?
//
// Builds a workload whose hot loop strides a heap buffer through an
// induction pointer (load; add ptr, 8; load; ...) — the shape plain
// batching cannot batch, because every pointer bump modifies the operand
// register and closes the batch. The workload also executes a handful of
// one-shot accesses plus one deliberate out-of-bounds read under
// Policy::kLog.
//
// Protocol (the README's profile → re-rewrite → compare recipe, in-process):
//   1. instrument untiered, run with telemetry, snapshot the metrics;
//   2. feed the snapshot back as a TierProfile and re-instrument;
//   3. run the tiered binary on the same input and compare.
//
// Asserts (REDFAT_CHECK — the CI gate rides on these):
//   * both runs produce identical guest outputs and identical detected
//     memory errors (tiering must never change what is caught);
//   * tiered tramp+inline check cycles are at most 75% of untiered.
//
// Writes BENCH_check_tiering.json.
//
//   bench_check_tiering [--quick] [--out FILE]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/harness.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

constexpr uint64_t kBufBytes = 256;

// The hot loop re-walks the first 4 qwords of the buffer each iteration,
// bumping the pointer between loads so consecutive checks see a modified
// base register. A few one-shot stores before the loop and one out-of-bounds
// read after it stay warm and feed the detection check.
BinaryImage BuildHotLoopProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();

  as.MovRI(Reg::kRdi, kBufBytes);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);  // buffer base
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.MovRI(Reg::kRsi, 3);
  as.MovRI(Reg::kRdx, kBufBytes);
  as.HostCall(HostFn::kMemset);

  // One-shot sites: executed exactly once, so never hot.
  as.MovRI(Reg::kR14, 11);
  as.Store(Reg::kR14, MemAt(Reg::kR12, 0));
  as.MovRI(Reg::kR14, 13);
  as.Store(Reg::kR14, MemAt(Reg::kR12, 128));

  as.HostCall(HostFn::kInputU64);   // iteration count
  as.MovRR(Reg::kR13, Reg::kRax);
  as.MovRI(Reg::kRsi, 0);           // accumulator
  as.MovRI(Reg::kRcx, 0);           // iteration counter

  const Assembler::Label loop = as.NewLabel();
  as.Bind(loop);
  as.MovRR(Reg::kRbx, Reg::kR12);   // restart the walk pointer
  for (int i = 0; i < 4; ++i) {
    as.Load(Reg::kR14, MemAt(Reg::kRbx, 0));
    as.Add(Reg::kRsi, Reg::kR14);
    as.AddI(Reg::kRbx, 8);          // closes an untiered batch; folds tiered
  }
  as.AddI(Reg::kRcx, 1);
  as.Cmp(Reg::kRcx, Reg::kR13);
  as.Jcc(Cond::kUlt, loop);

  // One-shot, deliberate OOB: 8-byte read one element past the allocation,
  // caught by the redzone check. Policy::kLog records it and continues.
  as.Load(Reg::kR14, MemAt(Reg::kR12, static_cast<int32_t>(kBufBytes)));
  as.Add(Reg::kRsi, Reg::kR14);

  as.MovRR(Reg::kRdi, Reg::kRsi);
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  return pb.Finish();
}

struct RunMeasure {
  RunOutcome out;
  uint64_t tramp_cycles = 0;
  uint64_t inline_cycles = 0;
  TelemetrySnapshot snapshot;

  uint64_t check_cycles() const { return tramp_cycles + inline_cycles; }
};

RunMeasure MeasureRun(const BinaryImage& image, uint64_t iterations) {
  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.policy = Policy::kLog;
  cfg.inputs = {iterations};
  cfg.telemetry = &reg;
  RunMeasure m;
  m.out = RunImage(image, RuntimeKind::kRedFat, cfg);
  REDFAT_CHECK(m.out.result.reason == HaltReason::kExit);
  m.snapshot = reg.Snapshot();
  m.tramp_cycles = m.snapshot.TotalSiteEvents(SiteEvent::kTrampCycles);
  m.inline_cycles = m.snapshot.TotalSiteEvents(SiteEvent::kInlineCycles);
  return m;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_check_tiering.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_check_tiering [--quick] [--out FILE]\n");
      return 2;
    }
  }
  const uint64_t iterations = quick ? 300 : 2000;

  const BinaryImage img = BuildHotLoopProgram();

  // Step 1: untiered rewrite, profiled run.
  const InstrumentResult untiered = MustInstrument(img, RedFatOptions{});
  const RunMeasure a = MeasureRun(untiered.image, iterations);

  // Step 2: the captured snapshot becomes the tier profile (exactly what
  // `redfat --profile=metrics.json` does with the file form).
  TierProfile profile;
  for (const SiteTelemetry& st : a.snapshot.sites) {
    if (ImageOfSiteKey(st.site) == 0) {
      profile.cycles_by_site[st.site] = st.tramp_cycles() + st.inline_cycles();
    }
  }
  RedFatOptions tiered_opts;
  tiered_opts.tier_profile = &profile;
  const InstrumentResult tiered = MustInstrument(img, tiered_opts);

  size_t hot_sites = 0;
  for (const SiteRecord& s : tiered.sites) {
    hot_sites += s.tier == Tier::kHot ? 1 : 0;
  }

  // Step 3: same input, tiered binary.
  const RunMeasure b = MeasureRun(tiered.image, iterations);

  // Tiering must be invisible to the guest: same outputs, same detections.
  REDFAT_CHECK(b.out.outputs == a.out.outputs);
  REDFAT_CHECK(b.out.errors.size() == a.out.errors.size());
  for (size_t i = 0; i < a.out.errors.size(); ++i) {
    REDFAT_CHECK(b.out.errors[i].site == a.out.errors[i].site);
    REDFAT_CHECK(b.out.errors[i].kind == a.out.errors[i].kind);
  }
  REDFAT_CHECK(!a.out.errors.empty());  // the OOB read must be caught at all

  // The acceptance bar: >= 25% fewer guest check cycles.
  const double reduction_pct =
      a.check_cycles() == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(b.check_cycles()) /
                               static_cast<double>(a.check_cycles()));
  std::printf("check-tiering bench: %llu hot-loop iterations\n\n",
              static_cast<unsigned long long>(iterations));
  std::printf("%10s %14s %14s %14s %10s\n", "", "tramp-cyc", "inline-cyc", "total",
              "errors");
  std::printf("%10s %14llu %14llu %14llu %10zu\n", "untiered",
              static_cast<unsigned long long>(a.tramp_cycles),
              static_cast<unsigned long long>(a.inline_cycles),
              static_cast<unsigned long long>(a.check_cycles()), a.out.errors.size());
  std::printf("%10s %14llu %14llu %14llu %10zu\n", "tiered",
              static_cast<unsigned long long>(b.tramp_cycles),
              static_cast<unsigned long long>(b.inline_cycles),
              static_cast<unsigned long long>(b.check_cycles()), b.out.errors.size());
  std::printf("\n%zu hot of %zu sites; check-cycle reduction %.1f%%\n", hot_sites,
              tiered.sites.size(), reduction_pct);
  REDFAT_CHECK(b.check_cycles() * 4 <= a.check_cycles() * 3);  // >= 25% drop

  std::string json = "{\"bench\":\"check_tiering\",";
  json += StrFormat("\"iterations\":%llu,\"quick\":%s,",
                    static_cast<unsigned long long>(iterations),
                    quick ? "true" : "false");
  json += StrFormat("\"sites\":%zu,\"hot_sites\":%zu,", tiered.sites.size(), hot_sites);
  json += StrFormat(
      "\"untiered\":{\"tramp_cycles\":%llu,\"inline_cycles\":%llu,"
      "\"check_cycles\":%llu,\"guest_cycles\":%llu,\"detected_errors\":%zu},",
      static_cast<unsigned long long>(a.tramp_cycles),
      static_cast<unsigned long long>(a.inline_cycles),
      static_cast<unsigned long long>(a.check_cycles()),
      static_cast<unsigned long long>(a.out.result.cycles), a.out.errors.size());
  json += StrFormat(
      "\"tiered\":{\"tramp_cycles\":%llu,\"inline_cycles\":%llu,"
      "\"check_cycles\":%llu,\"guest_cycles\":%llu,\"detected_errors\":%zu},",
      static_cast<unsigned long long>(b.tramp_cycles),
      static_cast<unsigned long long>(b.inline_cycles),
      static_cast<unsigned long long>(b.check_cycles()),
      static_cast<unsigned long long>(b.out.result.cycles), b.out.errors.size());
  json += StrFormat("\"reduction_pct\":%.2f}\n", reduction_pct);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_check_tiering: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
