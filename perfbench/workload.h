// The workload interface rfbench's main loop (main.cc) runs, and the calls
// into the library layers that every workload shares.
//
// A run sets a workload up, prepares its reference results once, runs one
// unmeasured warm-up pass, then repeats timed passes until the time budget
// is spent, setting the workload up again before each of them (setup_s is
// the median setup; Setup rebuilds the same inputs for the same seed, and
// spreading the setups over the run samples the machine's noise as the
// passes do). A pass is one complete replay of the workload's operations on
// the inputs Setup made; every pass of one seed does the same guest and
// pipeline work, so per-pass counts are exact.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "src/core/redfat.h"
#include "src/support/trace.h"

namespace perfbench {

// Guest work done through RunImage (for guest_mips).
struct VmTotals {
  double instructions = 0;
  double host_ms = 0;
};

struct PassContext {
  Checker* checker = nullptr;
  // Non-null in traced passes: layer calls are wrapped in spans and guests
  // run through TracedRunImage. Per-layer counts go to `layers`; spans of
  // extra threads go to `trace` under their own tids.
  Tracer* tracer = nullptr;
  MetricSink* layers = nullptr;
  redfat::TraceWriter* trace = nullptr;
  // Non-null when run fingerprints are collected (the warm-up pass and the
  // traced passes of a --trace run), in run order.
  std::vector<uint64_t>* fingerprints = nullptr;
  // Operation latencies and full-pipeline rewrite latencies, in ms (timed
  // passes only).
  std::vector<double>* op_ms = nullptr;
  std::vector<double>* rewrite_ms = nullptr;
  VmTotals* vm = nullptr;
  // A workload whose timed window excludes per-pass bookkeeping (serve-mix
  // restarts its daemon) stores the window here; otherwise the main loop
  // times the whole Pass call.
  double wall_ms = 0;
  // Self-test hook: corrupt every expected output before comparing.
  bool corrupt_expected = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Makes the inputs from `seed`, replacing those of an earlier call (which
  // for the same seed are the same). This is the timed set-up a user of the
  // system would also pay: generation, and serve-mix's profile runs and
  // daemon start. Guest runs made here count into `vm`.
  virtual void Setup(uint64_t seed, VmTotals* vm) = 0;
  // Once, after the first Setup, untimed: the benchmark's own reference
  // work for the seed (exec-spec's iteration calibration, heap-debug's
  // baseline runs), kept across later Setup calls.
  virtual void Prepare() {}
  // Milliseconds of the last Setup spent in the workload generators.
  virtual double gen_ms() const = 0;
  // One pass; returns the number of operations it completed.
  virtual size_t Pass(PassContext& ctx) = 0;
  // After the timed passes: checks that need the whole run (serve-mix
  // replies against offline rewrites) and the deterministic end-to-end
  // metrics (overhead_x, image_growth_x), written into `e2e`.
  virtual void Finish(Checker* checker, MetricSink* e2e) = 0;
  // Traced runs only: in-VM sink cost per pass, measured by difference
  // outside the traced passes (0 where no sink is attached).
  virtual double SinkMsPerPass() { return 0.0; }
};

std::unique_ptr<Workload> MakeExecSpec();
std::unique_ptr<Workload> MakeHeapDebug();
// serve-mix places its daemon socket in `work_dir`.
std::unique_ptr<Workload> MakeServeMix(const std::string& work_dir);

// Worker threads that run a pass's operations (at most 4, one per core).
// The machine is shared, and contention from its other tenants comes and
// goes per core for seconds at a time; spreading a pass over several cores
// averages it out where a single thread would take one core's luck.
unsigned Workers();

// Runs fn(i, worker) for i in 0..n-1 across Workers() threads; `fn` must be
// safe to run concurrently for distinct i.
void ParallelFor(size_t n, const std::function<void(size_t, unsigned)>& fn);

// Runs op(0..n-1) across Workers() threads, each with its own copy of
// `ctx`. Op i's latencies and fingerprints land at position i of ctx's
// vectors; checks and per-layer counts are merged, with per-layer times
// (names ending in "ms") divided by the worker count; in traced passes each
// layer's per-worker average self time is added to ctx.tracer. So every
// time of a pass is on the per-worker timeline and the layers add up to the
// pass's wall time. `op` must be safe to run concurrently for distinct i.
void RunOps(PassContext& ctx, size_t n, const std::function<void(size_t, PassContext&)>& op);

// RedFatTool::Instrument inside a pipeline span; traced passes add the
// PipelineStats to the pipeline.* counts. A failed rewrite counts as a
// failed operation and returns false.
bool Instrument(PassContext& ctx, const redfat::RedFatTool& tool,
                const redfat::BinaryImage& image, const redfat::AllowList* allow,
                redfat::InstrumentResult* out);

// RunImage, or TracedRunImage in traced passes (which also add the vm.*,
// heap.*, dbi.* and forensics.* counts). Counts into ctx.vm and, when
// collecting, appends the run's fingerprint.
redfat::RunOutcome Run(PassContext& ctx, const redfat::BinaryImage& image,
                       redfat::RuntimeKind runtime, const redfat::RunConfig& config);

// `outputs` as the check expects them (corrupted under the self-test hook).
std::vector<uint64_t> Expected(const PassContext& ctx, std::vector<uint64_t> outputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
