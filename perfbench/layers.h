// Shared machinery of the rfbench harness: clocks, the output checker,
// per-layer span accounting for the traced run, and the traced replica of
// RunImage whose timing decorators split VM time into heap, DBI and sink
// time.
//
// Untraced passes call the library entry points directly (RunImage,
// RedFatTool::Instrument, ...). Traced passes wrap the same calls in spans
// (Tracer::Scope) and swap RunImage for TracedRunImage, which rebuilds the
// harness from public APIs so the allocator, the per-instruction observer
// and the heap observer can be timed. A layer's self time is its span time
// minus the time of the spans nested inside it; the traced run reports
// every layer's self time plus an `unattributed` remainder, which together
// add up to the traced wall time.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/harness.h"
#include "src/support/trace.h"

namespace perfbench {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The workload seed is XOR-mixed into every generator seed, so one seed
// names one input set and seed 0 reproduces the library defaults.
inline uint64_t MixSeed(uint64_t base, uint64_t seed) {
  return base ^ (seed * 0x9e3779b97f4a7c15ULL);
}

// Nearest-rank percentile (no interpolation: a fixed mix of heterogeneous
// operations then lands inside one cluster instead of between two).
double Percentile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);
// Geometric mean of the positive entries (a failed operation leaves 0).
double Geomean(const std::vector<double>& xs);

// Counts checked operations and failures (fail_ratio = failed / attempted).
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  void Merge(const Checker& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Layers of the per-layer breakdown, in report order.
enum class Layer {
  kPipeline,   // RedFatTool::Instrument
  kProfile,    // BuildAllowList
  kVm,         // RunImage minus the layers below
  kHeap,       // GuestAllocator calls
  kDbi,        // ExecObserver::OnInstruction (sampled)
  kForensics,  // HeapObserver (ForensicRing) calls
  kTelemetry,  // snapshot/JSON export plus the in-VM sink cost
  kService,    // daemon-side request service time
  kTransport,  // client round trip minus service time
  kCheck,      // the benchmark's own output checks
  kCount,
};
const char* LayerName(Layer layer);

// Per-thread span stack with self-time accounting. Trace events go to an
// optional TraceWriter (coarse spans only: per-call heap/observer spans
// account time without emitting events).
class Tracer {
 public:
  explicit Tracer(redfat::TraceWriter* writer = nullptr, double origin_ms = NowMs(),
                  int tid = 1)
      : writer_(writer), origin_ms_(origin_ms), tid_(tid) {}

  // `name` non-null emits a trace slice for the span.
  void Push(Layer layer, const char* name = nullptr);
  void Pop();
  // Moves `ms` of the innermost open span's time to `layer` (for time
  // measured by sampling or by difference rather than by a nested span);
  // with no span open, adds `ms` to the layer directly.
  void Attribute(Layer layer, double ms);

  class Scope {
   public:
    Scope(Tracer* t, Layer layer, const char* name = nullptr) : t_(t) {
      if (t_ != nullptr) {
        t_->Push(layer, name);
      }
    }
    ~Scope() {
      if (t_ != nullptr) {
        t_->Pop();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  double origin_ms() const { return origin_ms_; }
  const std::array<double, static_cast<size_t>(Layer::kCount)>& self_ms() const {
    return self_ms_;
  }

 private:
  struct Frame {
    Layer layer;
    const char* name;
    double start_ms;
    double child_ms;
  };
  redfat::TraceWriter* writer_;
  double origin_ms_;
  int tid_;
  std::vector<Frame> stack_;
  std::array<double, static_cast<size_t>(Layer::kCount)> self_ms_{};
};

// Host-side counters of one traced RunImage call.
struct VmLayerStats {
  uint64_t malloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t guard_calls = 0;
  uint64_t observer_calls = 0;
  uint64_t forensic_events = 0;
  uint64_t freelist_pops = 0;
  uint64_t arena_carves = 0;
};

// One in kObserverSample OnInstruction calls is timed; timing every call
// costs more than the observer itself.
inline constexpr uint64_t kObserverSample = 64;

// RunImage rebuilt from public APIs (Vm, the allocators, WriteLowFatTables)
// with timing decorators around the allocator, config.observer and
// config.forensics. Guest-visible results, telemetry and forensic reports
// are those of redfat::RunImage for a single image. Time inside the
// decorators is pushed onto `tracer` as heap/dbi/forensics spans.
redfat::RunOutcome TracedRunImage(const redfat::BinaryImage& image,
                                  redfat::RuntimeKind runtime,
                                  const redfat::RunConfig& config, Tracer* tracer,
                                  VmLayerStats* stats);

// Fingerprint of a run: instructions, cycles, halt, outputs, errors and —
// when a registry was attached — its snapshot JSON.
uint64_t RunFingerprint(const redfat::RunOutcome& out,
                        const redfat::TelemetryRegistry* telemetry);

// Named metric values of one run, accumulated across passes.
class MetricSink {
 public:
  void Add(const std::string& name, double v) { values_[name] += v; }
  void Set(const std::string& name, double v) { values_[name] = v; }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

// Adds the dispatch statistics and guest counts of one run to `m` under
// the vm.* per-layer names.
void AddVmCounters(const redfat::RunOutcome& out, MetricSink* m);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
