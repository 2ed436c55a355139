// Rewrite-throughput benchmark: how fast does the instrumentation pipeline
// chew through a large binary, and how does it scale with --jobs?
//
// Synthesizes a deterministic large image (ProgramBuilder via the synth
// workload generator; filler functions scale the text section the way the
// paper's Chrome experiment scales real binaries), instruments it at
// jobs ∈ {1, 2, 4, 8, auto}, and writes BENCH_rewrite_throughput.json:
// image size, hardware threads, and per-run total wall time, instructions
// per second, speedup vs jobs=1, the codegen pass's wall time relative to
// jobs=1 (the layer a parallel-emission change should move), and the
// per-pass wall-ms breakdown.
//
// Every parallel run's output is also compared byte-for-byte against the
// jobs=1 image — the determinism contract the test suite asserts, re-checked
// here on the bench workload.
//
//   bench_rewrite_throughput [--quick] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/support/json.h"
#include "src/support/parallel.h"
#include "src/support/str.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

struct RunRecord {
  unsigned jobs_requested = 0;  // 0 = auto
  unsigned jobs = 0;            // resolved worker count
  double total_ms = 0.0;        // best-of-reps end-to-end Instrument() wall
  double insns_per_sec = 0.0;
  double speedup_vs_jobs1 = 0.0;
  double codegen_ms = 0.0;
  double codegen_vs_jobs1 = 0.0;  // codegen wall ms at this width / at jobs=1
  bool identical_to_jobs1 = false;
  PipelineStats stats;  // of the best rep
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_rewrite_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_rewrite_throughput [--quick] [--out FILE]\n");
      return 2;
    }
  }

  // A big, branchy, check-heavy image. Filler functions are never executed
  // but are fully instrumented: they scale rewrite work without making the
  // generator run longer.
  SynthParams p;
  p.seed = 0x7f0a7;
  p.mem_pct = 35;
  p.stream_pct = 6;
  p.global_pct = 8;
  p.call_pct = 6;
  p.max_accesses_per_ptr = 4;
  p.block_len = 60;
  p.filler_funcs = quick ? 250 : 5000;
  p.filler_units_per_func = 8;
  const BinaryImage img = GenerateSynthProgram(p);

  const unsigned sweep[] = {1, 2, 4, 8, 0};  // 0 = auto (hardware threads)
  const int reps = quick ? 1 : 3;
  const unsigned hw = HardwareJobs();

  std::printf("rewrite-throughput bench: image %llu bytes, %u hardware thread%s, "
              "best of %d rep%s\n\n",
              static_cast<unsigned long long>(img.TotalBytes()), hw, hw == 1 ? "" : "s",
              reps, reps == 1 ? "" : "s");
  std::printf("%8s %6s %12s %14s %10s %12s %10s\n", "jobs", "(res)", "wall(ms)", "insns/sec",
              "speedup", "codegen/j1", "identical");

  std::vector<RunRecord> runs;
  std::vector<uint8_t> jobs1_bytes;
  uint64_t image_insns = 0;
  for (const unsigned jobs : sweep) {
    RedFatOptions opts;
    opts.jobs = jobs;
    RunRecord rec;
    rec.jobs_requested = jobs;
    InstrumentResult best;
    for (int rep = 0; rep < reps; ++rep) {
      const double t0 = NowMs();
      InstrumentResult ir = MustInstrument(img, opts);
      const double wall = NowMs() - t0;
      if (rep == 0 || wall < rec.total_ms) {
        rec.total_ms = wall;
        best = std::move(ir);
      }
    }
    rec.stats = best.pipeline_stats;
    rec.jobs = best.pipeline_stats.jobs;
    const PassStats* disasm = best.pipeline_stats.Find("disasm");
    REDFAT_CHECK(disasm != nullptr);
    image_insns = disasm->items;
    rec.insns_per_sec =
        rec.total_ms > 0.0 ? static_cast<double>(image_insns) / (rec.total_ms / 1000.0)
                           : 0.0;
    const std::vector<uint8_t> bytes = best.image.Serialize();
    if (jobs == 1) {
      jobs1_bytes = bytes;
      rec.identical_to_jobs1 = true;
    } else {
      rec.identical_to_jobs1 = bytes == jobs1_bytes;
      REDFAT_CHECK(rec.identical_to_jobs1);  // the determinism contract
    }
    rec.speedup_vs_jobs1 =
        runs.empty() ? 1.0 : (rec.total_ms > 0.0 ? runs[0].total_ms / rec.total_ms : 0.0);
    const PassStats* codegen = best.pipeline_stats.Find("codegen");
    REDFAT_CHECK(codegen != nullptr);
    rec.codegen_ms = codegen->wall_ms;
    rec.codegen_vs_jobs1 =
        runs.empty() ? 1.0
                     : (runs[0].codegen_ms > 0.0 ? rec.codegen_ms / runs[0].codegen_ms : 0.0);
    std::printf("%8s %6u %12.2f %14.0f %9.2fx %12.2f %10s\n",
                jobs == 0 ? "auto" : StrFormat("%u", jobs).c_str(), rec.jobs, rec.total_ms,
                rec.insns_per_sec, rec.speedup_vs_jobs1, rec.codegen_vs_jobs1,
                rec.identical_to_jobs1 ? "yes" : "NO");
    runs.push_back(std::move(rec));
  }

  // Machine-readable output. Honest numbers only: speedup on a 1-thread
  // container is ~1.0x by construction; consumers must read hw_threads.
  std::string json = "{\"bench\":\"rewrite_throughput\",";
  json += StrFormat("\"hw_threads\":%u,", hw);
  json += StrFormat("\"image_bytes\":%llu,",
                    static_cast<unsigned long long>(img.TotalBytes()));
  json += StrFormat("\"image_insns\":%llu,", static_cast<unsigned long long>(image_insns));
  json += StrFormat("\"reps\":%d,\"quick\":%s,\"runs\":[", reps, quick ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    if (i != 0) {
      json += ",";
    }
    json += StrFormat(
        "{\"jobs_requested\":%u,\"jobs\":%u,\"total_ms\":%.3f,"
        "\"insns_per_sec\":%.0f,\"speedup_vs_jobs1\":%.3f,"
        "\"codegen_ms_vs_jobs1\":%.3f,"
        "\"identical_to_jobs1\":%s,\"passes\":{",
        r.jobs_requested, r.jobs, r.total_ms, r.insns_per_sec, r.speedup_vs_jobs1,
        r.codegen_vs_jobs1, r.identical_to_jobs1 ? "true" : "false");
    for (size_t pi = 0; pi < r.stats.passes.size(); ++pi) {
      const PassStats& pass = r.stats.passes[pi];
      if (pi != 0) {
        json += ",";
      }
      json += StrFormat("\"%s\":%.3f", JsonEscape(pass.name).c_str(),
                        pass.wall_ms);
    }
    json += "}}";
  }
  json += "]}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_rewrite_throughput: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s (%llu instructions, %u hw threads)\n", out_path.c_str(),
              static_cast<unsigned long long>(image_insns), hw);
  return 0;
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
