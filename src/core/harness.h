// Execution harness: runs a binary under a chosen runtime binding and
// collects the measurements the experiments need.
//
// Runtime bindings (the LD_PRELOAD axis):
//   * kBaseline — glibc-like allocator, no tables. For original binaries.
//   * kRedFat   — libredfat allocator + low-fat tables written into guest
//                 memory. Required for any RedFat-instrumented binary.
#ifndef REDFAT_SRC_CORE_HARNESS_H_
#define REDFAT_SRC_CORE_HARNESS_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/bin/image.h"
#include "src/core/forensics_report.h"
#include "src/core/plan.h"
#include "src/heap/rheap.h"
#include "src/vm/vm.h"

namespace redfat {

class RedFatAllocator;
class SampleProfiler;

// kRedFatShadow binds the ASAN-style shadow runtime; only meaningful for
// binaries instrumented with RedzoneImpl::kShadow (and vice versa).
// kRedFatDebug is the debug hardening tier's binding (core/policy.h): the
// libredfat allocator semantics (in-redzone metadata, so lowfat-metadata
// binaries run unchanged) PLUS marking of the guest shadow map
// (src/shadow/shadow.h), so a DBI shadow-check observer
// (src/dbi/shadow_check.h) can classify every uninstrumented access. The
// Memcheck baseline marks the same map and runs the same observer, but
// with its own allocator, through RunMemcheck (src/dbi/memcheck.h) and the
// same run body (RunBound).
enum class RuntimeKind { kBaseline, kRedFat, kRedFatShadow, kRedFatDebug };

struct RunConfig {
  Policy policy = Policy::kHarden;
  std::vector<uint64_t> inputs;
  uint64_t rng_seed = 1;
  uint64_t instruction_limit = 200'000'000'000ULL;
  CycleModel model;
  // Allocator hardening features for the redfat/debug runtime bindings
  // (resolved from --rheap / the policy tier; core/policy.h). The default
  // keeps every feature off — byte-identical to the historical allocator.
  // When `random` is on, the placement seed is derived from rng_seed so
  // randomized layouts stay reproducible per run.
  RheapOptions rheap;
  // Dispatch engine. kBlock (superblock code cache) is the production
  // default; kStep remains for differential testing. Guest-visible results
  // are bit-identical either way.
  VmEngine engine = VmEngine::kBlock;
  // Block-engine dispatch knobs (ignored under kStep). Direct superblock
  // chaining and specialized opcode handlers are the production defaults;
  // turning either off (rfrun --no-chain) bisects a suspected dispatch bug
  // against plain block mode without rebuilding. Guest-visible results are
  // bit-identical regardless.
  bool chain = true;
  bool specialize = true;
  // Code-cache capacity in superblock entries; 0 keeps the engine default
  // (4096). Must be a power of two otherwise (callers validate; the VM
  // hard-checks).
  size_t code_cache_size = 0;
  // When nonzero, `on_epoch` fires every `metrics_epoch` guest instructions
  // (exactly — never mid-instruction, and at the same points under either
  // engine). Used by rfrun --metrics-epoch to write delta snapshots.
  uint64_t metrics_epoch = 0;
  std::function<void()> on_epoch;
  // Optional observability sinks (not owned). When set, the harness wires
  // them into the VM, records run-level counters (vm.instructions, vm.cycles,
  // ...), samples heap gauges after the run, and emits guest trace slices.
  // Null (the default) leaves the run's cycle accounting byte-for-byte
  // identical to an unobserved run.
  TelemetryRegistry* telemetry = nullptr;
  TraceWriter* trace = nullptr;
  // Interval-sampling guest profiler (not owned): one sample every
  // sampler->period() executed instructions. Like the sinks above, attaching
  // one never changes guest-visible results or modeled cycles.
  SampleProfiler* sampler = nullptr;
  // Allocation-provenance ring (not owned). When set, the harness wires it
  // into the VM's malloc/free host calls and — while guest memory is still
  // mapped — joins every detected memory error against it into
  // RunOutcome::forensic_reports.
  ForensicRing* forensics = nullptr;
  // Tier label stamped into forensic reports ("" = unknown).
  std::string forensic_tier;
  // Optional DBI observer (not owned), e.g. the debug tier's shadow-check
  // observer. Wired into the VM before the run. The fast engine runs its
  // decode-time plans with specialization, chaining and traces left on;
  // null (the default) skips the observer hook entirely.
  ExecObserver* observer = nullptr;
  // Optional site tables parallel to the `images` argument of RunImages
  // (missing/null entries are fine). When set alongside `trace`, the harness
  // builds a keyed-site-id -> instruction-address map so trampoline and
  // mem_error trace slices carry a `site_addr` arg linking back to the
  // disassembly (keys follow telemetry.h ImageSiteKey: image ordinal is the
  // position in `images`).
  std::vector<const std::vector<SiteRecord>*> image_sites;
};

struct RunOutcome {
  RunResult result;
  std::vector<uint64_t> outputs;
  std::vector<MemErrorReport> errors;
  std::unordered_map<uint32_t, uint64_t> counters;
  std::unordered_map<uint32_t, Vm::ProfCounts> prof_counts;
  uint64_t touched_pages = 0;  // guest memory footprint proxy
  // One per entry of `errors`, built against RunConfig::forensics while the
  // run's memory was mapped. Empty when no ring was attached.
  std::vector<ForensicReport> forensic_reports;
  // Host-side dispatch-engine statistics (chaining, trace formation, code
  // cache, memory TLB). Deliberately not part of the bit-identity contract —
  // the stepper has no chains to count — and never fed into
  // RunConfig::telemetry; rfrun --report overlays them as vm.* entries.
  Vm::DispatchStats dispatch;
};

RunOutcome RunImage(const BinaryImage& image, RuntimeKind runtime, const RunConfig& config);

// Multi-image execution (§7.4: executable + separately-instrumented shared
// objects). Images are mapped in order; control starts at the *last*
// image's entry point. Protection is per-image: only instrumented images
// carry checks at runtime.
RunOutcome RunImages(const std::vector<const BinaryImage*>& images, RuntimeKind runtime,
                     const RunConfig& config);

// The run body behind RunImages and RunMemcheck (src/dbi/memcheck.h): `vm`
// is fresh, built with config.model, its allocator bound and that
// allocator's tables written. Runs `images` with the rest of `config` and
// returns the outcome, writing the run-level telemetry, the vm.run trace
// slice and the forensic reports. `gauged`, when set, is the allocator whose
// low-fat heap stats feed the telemetry gauges.
RunOutcome RunBound(Vm& vm, const std::vector<const BinaryImage*>& images,
                    const RunConfig& config, const RedFatAllocator* gauged = nullptr);

// Dynamic coverage (Table 1 "coverage" column): fraction of executed,
// instrumented memory operations protected by the full (Redzone)+(LowFat)
// check vs. (Redzone)-only.
struct CoverageStats {
  uint64_t full = 0;
  uint64_t redzone_only = 0;

  double FullFraction() const {
    const uint64_t total = full + redzone_only;
    return total == 0 ? 0.0 : static_cast<double>(full) / static_cast<double>(total);
  }
};

CoverageStats ComputeCoverage(const std::unordered_map<uint32_t, uint64_t>& counters,
                              const std::vector<SiteRecord>& sites);

// Same, but from a telemetry snapshot's per-site check counts (so external
// consumers of a `--metrics` file can recompute coverage offline).
struct TelemetrySnapshot;
CoverageStats ComputeCoverage(const TelemetrySnapshot& snapshot,
                              const std::vector<SiteRecord>& sites);

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_HARNESS_H_
