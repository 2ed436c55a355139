// VM dispatch-engine benchmark: host wall-clock throughput (guest MIPS) of
// the superblock engine's dispatch modes vs the reference stepper.
//
// Runs one Kraken kernel — baseline and RedFat-instrumented — under four
// dispatch modes, with and without telemetry attached, best-of-reps, and
// writes BENCH_vm_dispatch.json:
//
//   step    — reference per-instruction interpreter
//   block   — superblock engine, chaining and specialization off
//   spec    — superblock engine + specialized opcode handlers, no chaining
//   chained — direct superblock chaining + specialization + traces (the
//             production default)
//
// Guest-visible results are asserted identical across every mode on every
// cell (the bit-identity contract the differential test proves exhaustively,
// re-checked on the bench workload); only the host time may differ. Each
// cell also records its deterministic dispatch counters. After writing the
// JSON the bench exits 1 if a gate misses: speedup_instrumented ≥ 3x
// (chained vs step, telemetry off), ≥ 2x with telemetry on, chained ≥ 0.9x
// spec ≥ 0.9x block, and on the instrumented chained cells no code-cache
// evictions and a chain ratio block_chains / (block_chains + chain_exits)
// of at least 0.9.
//
//   bench_vm_dispatch [--quick] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/support/parallel.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/kraken.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Mode {
  const char* name;
  VmEngine engine;
  bool chain;
  bool specialize;
};

constexpr Mode kModes[] = {
    {"step", VmEngine::kStep, false, false},
    {"block", VmEngine::kBlock, false, false},
    {"spec", VmEngine::kBlock, false, true},
    {"chained", VmEngine::kBlock, true, true},
};

struct Cell {
  const char* image;      // "baseline" | "instrumented"
  const char* mode;       // see kModes
  bool telemetry = false;
  uint64_t instructions = 0;
  double wall_ms = 0.0;  // best of reps
  double mips = 0.0;     // guest instructions / host second, in millions
  Vm::DispatchStats dispatch;  // deterministic; identical across reps
};

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_vm_dispatch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_vm_dispatch [--quick] [--out FILE]\n");
      return 2;
    }
  }

  const KrakenBenchmark& bench = KrakenSuite().front();
  const BinaryImage baseline = BuildKrakenBenchmark(bench);
  const InstrumentResult instrumented = MustInstrument(baseline, RedFatOptions{});
  const uint64_t iters = quick ? 300 : 2000;
  const int reps = quick ? 2 : 3;

  std::printf("vm-dispatch bench: kraken/%s, %llu iters, best of %d rep%s\n\n",
              bench.name.c_str(), static_cast<unsigned long long>(iters), reps,
              reps == 1 ? "" : "s");
  std::printf("%14s %8s %10s %14s %12s %10s\n", "image", "mode", "telemetry",
              "instructions", "wall(ms)", "MIPS");

  struct ImageCase {
    const char* name;
    const BinaryImage* img;
    RuntimeKind runtime;
  };
  const ImageCase images[] = {
      {"baseline", &baseline, RuntimeKind::kBaseline},
      {"instrumented", &instrumented.image, RuntimeKind::kRedFat},
  };

  std::vector<Cell> cells;
  for (const ImageCase& ic : images) {
    for (const bool with_telemetry : {false, true}) {
      // The step run doubles as the reference fingerprint for every other
      // mode's cell.
      std::string ref_fingerprint;
      for (const Mode& mode : kModes) {
        Cell cell;
        cell.image = ic.name;
        cell.mode = mode.name;
        cell.telemetry = with_telemetry;
        std::string fingerprint;
        for (int rep = 0; rep < reps; ++rep) {
          TelemetryRegistry telemetry;
          RunConfig cfg;
          cfg.inputs = RefInputs(iters);
          cfg.engine = mode.engine;
          cfg.chain = mode.chain;
          cfg.specialize = mode.specialize;
          if (with_telemetry) {
            cfg.telemetry = &telemetry;
          }
          const double t0 = NowMs();
          const RunOutcome out = RunImage(*ic.img, ic.runtime, cfg);
          const double wall = NowMs() - t0;
          REDFAT_CHECK(out.result.reason == HaltReason::kExit);
          cell.instructions = out.result.instructions;
          cell.dispatch = out.dispatch;
          fingerprint = StrFormat(
              "%llu/%llu/%llu", static_cast<unsigned long long>(out.result.cycles),
              static_cast<unsigned long long>(out.result.instructions),
              static_cast<unsigned long long>(out.outputs.empty() ? 0 : out.outputs[0]));
          if (with_telemetry) {
            fingerprint += "|" + telemetry.Snapshot().ToJson();
          }
          if (rep == 0 || wall < cell.wall_ms) {
            cell.wall_ms = wall;
          }
        }
        if (ref_fingerprint.empty()) {
          ref_fingerprint = fingerprint;
        } else {
          REDFAT_CHECK(fingerprint == ref_fingerprint);  // bit-identity contract
        }
        cell.mips = cell.wall_ms > 0.0
                        ? static_cast<double>(cell.instructions) / (cell.wall_ms * 1000.0)
                        : 0.0;
        std::printf("%14s %8s %10s %14llu %12.2f %10.1f\n", cell.image, cell.mode,
                    cell.telemetry ? "on" : "off",
                    static_cast<unsigned long long>(cell.instructions), cell.wall_ms,
                    cell.mips);
        cells.push_back(cell);
      }
    }
  }

  auto find_mips = [&](const char* image, const char* mode, bool telemetry) {
    for (const Cell& c : cells) {
      if (std::strcmp(c.image, image) == 0 && std::strcmp(c.mode, mode) == 0 &&
          c.telemetry == telemetry) {
        return c.mips;
      }
    }
    return 0.0;
  };
  auto speedup = [&](const char* image, const char* mode, bool telemetry) {
    const double ref = find_mips(image, "step", telemetry);
    return ref > 0.0 ? find_mips(image, mode, telemetry) / ref : 0.0;
  };
  // The CI-gated headline: production dispatch (chained) vs the stepper on
  // the instrumented image, telemetry off.
  const double speedup_baseline = speedup("baseline", "chained", false);
  const double speedup_instrumented = speedup("instrumented", "chained", false);
  const double speedup_instrumented_block = speedup("instrumented", "block", false);
  const double speedup_instrumented_spec = speedup("instrumented", "spec", false);
  const double speedup_instrumented_telemetry = speedup("instrumented", "chained", true);
  std::printf("\ninstrumented speedup vs step: block %.2fx, spec %.2fx, chained %.2fx "
              "(telemetry on: %.2fx); baseline chained %.2fx\n",
              speedup_instrumented_block, speedup_instrumented_spec,
              speedup_instrumented, speedup_instrumented_telemetry, speedup_baseline);

  std::string json = "{\"bench\":\"vm_dispatch\",";
  json += StrFormat("\"hw_threads\":%u,", HardwareJobs());
  json += StrFormat("\"kernel\":\"%s\",", bench.name.c_str());
  json += StrFormat("\"iters\":%llu,", static_cast<unsigned long long>(iters));
  json += StrFormat("\"reps\":%d,\"quick\":%s,", reps, quick ? "true" : "false");
  json += StrFormat("\"speedup_baseline\":%.3f,", speedup_baseline);
  json += StrFormat("\"speedup_instrumented\":%.3f,", speedup_instrumented);
  json += StrFormat("\"speedup_instrumented_block\":%.3f,", speedup_instrumented_block);
  json += StrFormat("\"speedup_instrumented_spec\":%.3f,", speedup_instrumented_spec);
  json += StrFormat("\"speedup_instrumented_telemetry\":%.3f,\"runs\":[",
                    speedup_instrumented_telemetry);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (i != 0) {
      json += ",";
    }
    json += StrFormat(
        "{\"image\":\"%s\",\"mode\":\"%s\",\"telemetry\":%s,"
        "\"instructions\":%llu,\"wall_ms\":%.3f,\"mips\":%.3f,"
        "\"blocks_built\":%llu,\"code_cache_evictions\":%llu,\"block_chains\":%llu,"
        "\"chain_exits\":%llu,\"traces_formed\":%llu}",
        c.image, c.mode, c.telemetry ? "true" : "false",
        static_cast<unsigned long long>(c.instructions), c.wall_ms, c.mips,
        static_cast<unsigned long long>(c.dispatch.blocks_built),
        static_cast<unsigned long long>(c.dispatch.code_cache_evictions),
        static_cast<unsigned long long>(c.dispatch.block_chains),
        static_cast<unsigned long long>(c.dispatch.chain_exits),
        static_cast<unsigned long long>(c.dispatch.traces_formed));
  }
  json += "]}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_vm_dispatch: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  WallClockGates gates("bench_vm_dispatch");
  gates.Check(speedup_instrumented >= 3.0,
              StrFormat("chained/step %.2fx < 3.0x", speedup_instrumented));
  gates.Check(speedup_instrumented_telemetry >= 2.0,
              StrFormat("chained/step with telemetry %.2fx < 2.0x",
                        speedup_instrumented_telemetry));
  gates.Check(speedup_instrumented >= 0.9 * speedup_instrumented_spec,
              StrFormat("chained %.2fx < 0.9 x spec %.2fx", speedup_instrumented,
                        speedup_instrumented_spec));
  gates.Check(speedup_instrumented_spec >= 0.9 * speedup_instrumented_block,
              StrFormat("spec %.2fx < 0.9 x block %.2fx", speedup_instrumented_spec,
                        speedup_instrumented_block));
  for (const Cell& c : cells) {
    if (std::strcmp(c.image, "instrumented") != 0 || std::strcmp(c.mode, "chained") != 0) {
      continue;
    }
    const uint64_t chains = c.dispatch.block_chains;
    const double chain_ratio =
        static_cast<double>(chains) / static_cast<double>(chains + c.dispatch.chain_exits);
    const char* telemetry = c.telemetry ? "on" : "off";
    gates.Check(c.dispatch.code_cache_evictions == 0,
                StrFormat("instrumented chained, telemetry %s: %llu code-cache evictions",
                          telemetry,
                          static_cast<unsigned long long>(c.dispatch.code_cache_evictions)));
    gates.Check(chain_ratio >= 0.9,
                StrFormat("instrumented chained, telemetry %s: chain ratio %.3f < 0.9",
                          telemetry, chain_ratio));
  }
  return gates.ExitStatus();
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
