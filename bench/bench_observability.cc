// Observability pricing benchmark: what the forensics/telemetry/sampling
// sinks cost the HOST, and proof they cost the GUEST nothing.
//
// Runs one Kraken kernel — baseline, extensive-tier and fast-tier images —
// and the debug-tier `rfgen server` image (the heap-debug configuration:
// the redfat-debug runtime with its shadow-check observer attached in every
// cell) with each observability sink attached in turn (none, histogram
// telemetry, sampling profiler, forensic ring, everything), the five
// interleaved within each rep and each timed by its best rep. Guest cycles,
// instruction counts and outputs are asserted bit-identical across all
// sinks on every image (the zero-guest-cost contract); the host wall-clock
// overhead of each sink is measured against a generous per-sink budget
// ceiling and written to BENCH_observability.json, alongside a
// microbenchmark pricing a single HistogramCell::Record. Sink budget misses are reported in the JSON
// (within_budget=false), not asserted: CI runners are noisy, and the byte
// identity of guest results is the contract worth failing a build over.
// After writing the JSON the bench exits 1 if a record costs 1000 ns or
// more, or if any of the 20 cells is missing.
//
//   bench_observability [--quick] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/policy.h"
#include "src/dbi/shadow_check.h"
#include "src/heap/forensics.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/vm/profiler.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Generous host-overhead ceilings (ratio vs the sink-off run of the same
// image). Telemetry histograms and the forensic ring touch only host-call
// paths; the sampler adds loop-boundary work proportional to 1/period.
constexpr double kBudgetTelemetry = 2.0;
constexpr double kBudgetSampler = 2.0;
constexpr double kBudgetForensics = 2.0;
constexpr double kBudgetAll = 2.5;

constexpr uint64_t kSamplePeriod = 64;

struct Cell {
  const char* image;
  const char* sink;
  uint64_t instructions = 0;
  uint64_t samples = 0;
  double wall_ms = 0.0;  // best of reps, each rep running every sink once
  double overhead = 1.0;  // wall / sink-off wall of the same image
  double budget = 0.0;    // 0 = this IS the reference cell
  bool within_budget = true;
};

ResolvedPolicy Tier(HardenTier tier) {
  HardeningPolicy p;
  p.tier = tier;
  return p.Resolve().value();
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_observability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_observability [--quick] [--out FILE]\n");
      return 2;
    }
  }

  const KrakenBenchmark& bench = KrakenSuite().front();
  const BinaryImage baseline = BuildKrakenBenchmark(bench);
  const InstrumentResult extensive =
      MustInstrument(baseline, Tier(HardenTier::kExtensive).rewrite);
  const InstrumentResult fast = MustInstrument(baseline, Tier(HardenTier::kFast).rewrite);
  const ResolvedPolicy debug_tier = Tier(HardenTier::kDebug);
  const InstrumentResult debug =
      MustInstrument(GenerateServerProgram(ServerParams{}), debug_tier.rewrite);
  const uint64_t iters = quick ? 300 : 2000;
  const int reps = quick ? 2 : 3;

  std::printf("observability bench: kraken/%s, %llu iters (server: requests), best of "
              "%d rep%s, sample period %llu\n\n",
              bench.name.c_str(), static_cast<unsigned long long>(iters), reps,
              reps == 1 ? "" : "s", static_cast<unsigned long long>(kSamplePeriod));
  std::printf("%12s %10s %14s %10s %12s %10s %8s\n", "image", "sink", "instructions",
              "samples", "wall(ms)", "overhead", "budget");

  struct ImageCase {
    const char* name;
    const BinaryImage* img;
    RuntimeKind runtime;
    bool debug;  // the debug tier's rheap features and shadow-check observer
  };
  const ImageCase images[] = {
      {"baseline", &baseline, RuntimeKind::kBaseline, false},
      {"extensive", &extensive.image, RuntimeKind::kRedFat, false},
      {"fast", &fast.image, RuntimeKind::kRedFat, false},
      {"debug-srv", &debug.image, debug_tier.runtime, true},
  };
  struct SinkCase {
    const char* name;
    bool telemetry;
    bool sampler;
    bool forensics;
    double budget;  // 0 = reference
  };
  const SinkCase sinks[] = {
      {"off", false, false, false, 0.0},
      {"telemetry", true, false, false, kBudgetTelemetry},
      {"sampler", false, true, false, kBudgetSampler},
      {"forensics", false, false, true, kBudgetForensics},
      {"all", true, true, true, kBudgetAll},
  };

  // An image's sink cells run round-robin within each rep, and each keeps
  // its best rep: a host phase change then slows every sink of the rep
  // alike instead of reading as one cell's cost.
  constexpr size_t kNumSinks = std::size(sinks);
  std::vector<Cell> cells;
  bool all_within_budget = true;
  for (const ImageCase& ic : images) {
    Cell image_cells[kNumSinks];
    std::string ref_fingerprint;
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t s = 0; s < kNumSinks; ++s) {
        const SinkCase& sc = sinks[s];
        Cell& cell = image_cells[s];
        TelemetryRegistry telemetry;
        SampleProfiler sampler(kSamplePeriod);
        ForensicRing forensics;
        ShadowCheckObserver observer;
        RunConfig cfg;
        cfg.inputs = ic.debug ? std::vector<uint64_t>{iters} : RefInputs(iters);
        if (ic.debug) {
          cfg.rheap = debug_tier.rheap;
          cfg.observer = &observer;
        }
        if (sc.telemetry) {
          cfg.telemetry = &telemetry;
        }
        if (sc.sampler) {
          cfg.sampler = &sampler;
        }
        if (sc.forensics) {
          cfg.forensics = &forensics;
        }
        const double t0 = NowMs();
        const RunOutcome out = RunImage(*ic.img, ic.runtime, cfg);
        const double wall = NowMs() - t0;
        REDFAT_CHECK(out.result.reason == HaltReason::kExit);
        REDFAT_CHECK(out.errors.empty());
        cell.instructions = out.result.instructions;
        cell.samples = sampler.samples();
        // Guest-visible fingerprint: must not depend on the attached sinks.
        const std::string fingerprint = StrFormat(
            "%llu/%llu/%llu", static_cast<unsigned long long>(out.result.cycles),
            static_cast<unsigned long long>(out.result.instructions),
            static_cast<unsigned long long>(out.outputs.empty() ? 0 : out.outputs[0]));
        if (ref_fingerprint.empty()) {
          ref_fingerprint = fingerprint;
        } else {
          REDFAT_CHECK(fingerprint == ref_fingerprint);  // zero-guest-cost contract
        }
        if (rep == 0 || wall < cell.wall_ms) {
          cell.wall_ms = wall;
        }
      }
    }
    const double off_wall = image_cells[0].wall_ms;  // sinks[0] is the reference
    for (size_t s = 0; s < kNumSinks; ++s) {
      const SinkCase& sc = sinks[s];
      Cell& cell = image_cells[s];
      cell.image = ic.name;
      cell.sink = sc.name;
      cell.budget = sc.budget;
      cell.overhead = off_wall > 0.0 ? cell.wall_ms / off_wall : 1.0;
      cell.within_budget = sc.budget == 0.0 || cell.overhead <= sc.budget;
      all_within_budget = all_within_budget && cell.within_budget;
      std::printf("%12s %10s %14llu %10llu %12.2f %9.2fx %8s\n", cell.image,
                  cell.sink, static_cast<unsigned long long>(cell.instructions),
                  static_cast<unsigned long long>(cell.samples), cell.wall_ms,
                  cell.overhead,
                  sc.budget == 0.0
                      ? "-"
                      : (cell.within_budget ? "ok" : "OVER"));
      cells.push_back(cell);
    }
  }

  // Price one histogram record: the unit cost every instrumented visit pays.
  TelemetryRegistry price_reg;
  HistogramCell* price_cell = price_reg.histogram("bench.price");
  const uint64_t kRecords = quick ? 2'000'000 : 20'000'000;
  const double r0 = NowMs();
  for (uint64_t i = 0; i < kRecords; ++i) {
    price_cell->Record(i & 0xffff);
  }
  const double record_ns = (NowMs() - r0) * 1e6 / static_cast<double>(kRecords);
  std::printf("\nHistogramCell::Record: %.1f ns/record (%llu records)\n", record_ns,
              static_cast<unsigned long long>(kRecords));
  if (!all_within_budget) {
    std::printf("WARNING: some sinks exceeded their host-overhead budget\n");
  }

  std::string json = "{\"bench\":\"observability\",";
  json += StrFormat("\"kernel\":\"%s\",", bench.name.c_str());
  json += StrFormat("\"iters\":%llu,", static_cast<unsigned long long>(iters));
  json += StrFormat("\"reps\":%d,\"quick\":%s,", reps, quick ? "true" : "false");
  json += StrFormat("\"sample_period\":%llu,",
                    static_cast<unsigned long long>(kSamplePeriod));
  json += StrFormat("\"histogram_record_ns\":%.2f,", record_ns);
  json += StrFormat("\"all_within_budget\":%s,\"runs\":[",
                    all_within_budget ? "true" : "false");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (i != 0) {
      json += ",";
    }
    json += StrFormat(
        "{\"image\":\"%s\",\"sink\":\"%s\",\"instructions\":%llu,\"samples\":%llu,"
        "\"wall_ms\":%.3f,\"overhead\":%.3f,\"budget\":%.2f,\"within_budget\":%s}",
        c.image, c.sink, static_cast<unsigned long long>(c.instructions),
        static_cast<unsigned long long>(c.samples), c.wall_ms, c.overhead, c.budget,
        c.within_budget ? "true" : "false");
  }
  json += "]}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_observability: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  WallClockGates gates("bench_observability");
  gates.Check(record_ns < 1000.0,
              StrFormat("HistogramCell::Record %.1f ns >= 1000 ns", record_ns));
  gates.Check(cells.size() == 20, StrFormat("%zu cells, want 20", cells.size()));
  return gates.ExitStatus();
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
