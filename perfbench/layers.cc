#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/core/forensics_report.h"
#include "src/heap/debug_allocator.h"
#include "src/heap/forensics.h"
#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/serve/fingerprint.h"
#include "src/support/check.h"
#include "src/support/telemetry.h"

namespace perfbench {

using namespace redfat;

double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(xs.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50.0); }

double Geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  size_t n = 0;
  for (double x : xs) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

void Checker::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 10) {
      std::fprintf(stderr, "rfbench: FAILED: %s\n", what.c_str());
    }
  }
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPipeline:
      return "pipeline";
    case Layer::kProfile:
      return "profile";
    case Layer::kVm:
      return "vm";
    case Layer::kHeap:
      return "heap";
    case Layer::kDbi:
      return "dbi";
    case Layer::kForensics:
      return "forensics";
    case Layer::kTelemetry:
      return "telemetry";
    case Layer::kService:
      return "serve.service";
    case Layer::kTransport:
      return "serve.transport";
    case Layer::kCheck:
      return "check";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::Push(Layer layer, const char* name) {
  stack_.push_back(Frame{layer, name, NowMs(), 0.0});
}

void Tracer::Pop() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const double end = NowMs();
  const double dur = end - f.start_ms;
  self_ms_[static_cast<size_t>(f.layer)] += dur - f.child_ms;
  if (!stack_.empty()) {
    stack_.back().child_ms += dur;
  }
  if (writer_ != nullptr && f.name != nullptr) {
    writer_->Complete(f.name, LayerName(f.layer), 3, tid_,
                      (f.start_ms - origin_ms_) * 1000.0, dur * 1000.0);
  }
}

void Tracer::Attribute(Layer layer, double ms) {
  self_ms_[static_cast<size_t>(layer)] += ms;
  if (!stack_.empty()) {
    stack_.back().child_ms += ms;  // Pop takes it out of the span's self time
  }
}

namespace {

// Times every call of the wrapped allocator as a heap span.
class TimedAllocator : public GuestAllocator {
 public:
  TimedAllocator(GuestAllocator* inner, Tracer* tracer, VmLayerStats* stats)
      : inner_(inner), tracer_(tracer), stats_(stats) {}

  AllocOutcome Malloc(Memory& mem, uint64_t size) override {
    ++stats_->malloc_calls;
    tracer_->Push(Layer::kHeap);
    AllocOutcome out = inner_->Malloc(mem, size);
    tracer_->Pop();
    return out;
  }
  FreeOutcome Free(Memory& mem, uint64_t ptr) override {
    ++stats_->free_calls;
    tracer_->Push(Layer::kHeap);
    FreeOutcome out = inner_->Free(mem, ptr);
    tracer_->Pop();
    return out;
  }
  GuardOutcome GuardRange(Memory& mem, uint64_t addr, uint64_t len) override {
    ++stats_->guard_calls;
    tracer_->Push(Layer::kHeap);
    GuardOutcome out = inner_->GuardRange(mem, addr, len);
    tracer_->Pop();
    return out;
  }
  const char* name() const override { return inner_->name(); }

 private:
  GuestAllocator* inner_;
  Tracer* tracer_;
  VmLayerStats* stats_;
};

// Duration of an empty steady_clock-timed region: the timing cost that
// SampledObserver subtracts from every sampled call.
double ClockPairMs() {
  static const double cost = [] {
    constexpr int kReps = 20000;
    double total = 0;
    for (int i = 0; i < kReps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      total += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                   .count();
    }
    return total / kReps;
  }();
  return cost;
}

// Times one in kObserverSample calls; the total, less the timing cost, is
// extrapolated by call count and attributed to the dbi layer after the run.
class SampledObserver : public ExecObserver {
 public:
  SampledObserver(ExecObserver* inner, VmLayerStats* stats) : inner_(inner), stats_(stats) {}

  uint64_t OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn) override {
    if (stats_->observer_calls++ % kObserverSample != 0) {
      return inner_->OnInstruction(vm, addr, insn);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t cycles = inner_->OnInstruction(vm, addr, insn);
    sampled_ms_ += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ++sampled_;
    return cycles;
  }

  double EstimatedMs() const {
    if (sampled_ == 0) {
      return 0.0;
    }
    const double per_call = sampled_ms_ / static_cast<double>(sampled_) - ClockPairMs();
    return std::max(0.0, per_call) * static_cast<double>(stats_->observer_calls);
  }

 private:
  ExecObserver* inner_;
  VmLayerStats* stats_;
  double sampled_ms_ = 0.0;
  uint64_t sampled_ = 0;
};

// Times every provenance event of the wrapped forensic ring.
class TimedHeapObserver : public HeapObserver {
 public:
  TimedHeapObserver(ForensicRing* inner, Tracer* tracer, VmLayerStats* stats)
      : inner_(inner), tracer_(tracer), stats_(stats) {}

  void OnAlloc(uint64_t ptr, uint64_t size, uint64_t pc, uint64_t instruction,
               uint64_t cycles, uint64_t epoch) override {
    Timed([&] { inner_->OnAlloc(ptr, size, pc, instruction, cycles, epoch); });
  }
  void OnFree(uint64_t ptr, uint64_t pc, uint64_t instruction, uint64_t cycles,
              uint64_t epoch) override {
    Timed([&] { inner_->OnFree(ptr, pc, instruction, cycles, epoch); });
  }
  bool WasFreed(uint64_t ptr) const override {
    bool r = false;
    Timed([&] { r = inner_->WasFreed(ptr); });
    return r;
  }
  bool DistanceTo(uint64_t addr, uint64_t* distance) const override {
    bool r = false;
    Timed([&] { r = inner_->DistanceTo(addr, distance); });
    return r;
  }

 private:
  template <typename F>
  void Timed(F&& f) const {
    ++stats_->forensic_events;
    tracer_->Push(Layer::kForensics);
    f();
    tracer_->Pop();
  }

  ForensicRing* inner_;
  Tracer* tracer_;
  VmLayerStats* stats_;
};

}  // namespace

RunOutcome TracedRunImage(const BinaryImage& image, RuntimeKind runtime,
                          const RunConfig& config, Tracer* tracer, VmLayerStats* stats) {
  // The workloads' runs only: no guest trace, sampler, epochs or shadow runtime.
  REDFAT_CHECK(config.trace == nullptr && config.sampler == nullptr &&
               config.metrics_epoch == 0 && runtime != RuntimeKind::kRedFatShadow);
  Tracer::Scope vm_span(tracer, Layer::kVm, "vm.run");
  Vm vm(config.model);
  RheapOptions ropts = config.rheap;
  if (ropts.random) {
    ropts.random_seed ^= config.rng_seed * 0x9e3779b97f4a7c15ULL;
  }
  GlibcLikeAllocator glibc;
  RedFatAllocator libredfat(ropts);
  DebugRedFatAllocator libredfat_debug(ropts);
  GuestAllocator* alloc = &glibc;
  RedFatAllocator* gauged = nullptr;
  switch (runtime) {
    case RuntimeKind::kBaseline:
      break;
    case RuntimeKind::kRedFat:
      WriteLowFatTables(&vm.memory());
      alloc = &libredfat;
      gauged = &libredfat;
      break;
    case RuntimeKind::kRedFatShadow:
      break;  // rejected above
    case RuntimeKind::kRedFatDebug:
      WriteLowFatTables(&vm.memory());
      alloc = &libredfat_debug;
      gauged = &libredfat_debug;
      break;
  }
  TimedAllocator timed_alloc(alloc, tracer, stats);
  vm.set_allocator(&timed_alloc);
  SampledObserver sampled(config.observer, stats);
  if (config.observer != nullptr) {
    vm.set_observer(&sampled);
  }
  vm.set_policy(config.policy);
  vm.set_inputs(config.inputs);
  vm.set_rng_seed(config.rng_seed);
  vm.set_instruction_limit(config.instruction_limit);
  vm.set_engine(config.engine);
  vm.set_chaining(config.chain);
  vm.set_specialize(config.specialize);
  if (config.code_cache_size != 0) {
    vm.set_code_cache_size(config.code_cache_size);
  }
  vm.set_telemetry(config.telemetry);
  TimedHeapObserver timed_ring(config.forensics, tracer, stats);
  if (config.forensics != nullptr) {
    vm.set_heap_observer(&timed_ring);
  }
  vm.LoadImage(image);

  RunOutcome out;
  out.result = vm.Run();
  out.outputs = vm.outputs();
  out.errors = vm.mem_errors();
  out.counters = vm.counters();
  out.prof_counts = vm.prof_counts();
  out.touched_pages = vm.memory().TouchedPages();
  out.dispatch = vm.dispatch_stats();
  if (config.observer != nullptr) {
    tracer->Attribute(Layer::kDbi, sampled.EstimatedMs());
  }
  if (config.forensics != nullptr) {
    const std::vector<SiteRecord>* sites =
        config.image_sites.empty() ? nullptr : config.image_sites.back();
    Tracer::Scope span(tracer, Layer::kForensics);
    for (const MemErrorReport& e : out.errors) {
      out.forensic_reports.push_back(BuildForensicReport(
          e, *config.forensics, vm.memory(), sites, config.forensic_tier));
    }
  }
  if (gauged != nullptr) {
    stats->freelist_pops = gauged->lowfat_stats().freelist_pops;
    stats->arena_carves = gauged->lowfat_stats().arena_carves;
  }
  // The run-level counters and gauges RunImages adds after Vm::Run, in the
  // same order (gauge sequence stamps are part of the snapshot JSON).
  if (config.telemetry != nullptr) {
    Tracer::Scope span(tracer, Layer::kTelemetry);
    TelemetryRegistry* reg = config.telemetry;
    reg->AddCounter("vm.runs", 1);
    reg->AddCounter("vm.instructions", out.result.instructions);
    reg->AddCounter("vm.cycles", out.result.cycles);
    reg->AddCounter("vm.explicit_reads", out.result.explicit_reads);
    reg->AddCounter("vm.explicit_writes", out.result.explicit_writes);
    reg->AddCounter("vm.mem_errors", out.errors.size());
    reg->SetGauge("vm.touched_pages", static_cast<double>(out.touched_pages));
    if (vm.live_bytes_peak() != 0) {
      reg->SetGauge("heap.live_bytes_peak", static_cast<double>(vm.live_bytes_peak()));
    }
    if (gauged != nullptr) {
      const LowFatHeapStats& hs = gauged->lowfat_stats();
      reg->SetGauge("lowfat.allocs", static_cast<double>(hs.allocs));
      reg->SetGauge("lowfat.frees", static_cast<double>(hs.frees));
      reg->SetGauge("lowfat.live_slots", static_cast<double>(hs.live_slots));
      reg->SetGauge("lowfat.bump_bytes", static_cast<double>(hs.bump_bytes));
      reg->SetGauge("lowfat.fallback_allocs", static_cast<double>(gauged->fallback_allocs()));
      reg->SetGauge("redzone.live_bytes", static_cast<double>(hs.live_slots * kRedzoneSize));
      reg->SetGauge("lowfat.freelist_pops", static_cast<double>(hs.freelist_pops));
      reg->SetGauge("lowfat.arena_carves", static_cast<double>(hs.arena_carves));
      reg->SetGauge("lowfat.malloc_cycles", static_cast<double>(hs.malloc_cycles));
      reg->SetGauge("lowfat.free_cycles", static_cast<double>(hs.free_cycles));
      if (hs.corruptions != 0) {
        reg->SetGauge("lowfat.corruptions", static_cast<double>(hs.corruptions));
      }
      const RedFatAllocatorStats& rs = gauged->redfat_stats();
      if (rs.exhausted_fallbacks != 0) {
        reg->SetGauge("lowfat.exhausted_fallbacks", static_cast<double>(rs.exhausted_fallbacks));
      }
      if (rs.guard_checks != 0) {
        reg->SetGauge("heap.guard_checks", static_cast<double>(rs.guard_checks));
        reg->SetGauge("heap.guard_violations", static_cast<double>(rs.guard_violations));
        reg->SetGauge("heap.guard_cycles", static_cast<double>(rs.guard_cycles));
      }
    }
  }
  return out;
}

uint64_t RunFingerprint(const RunOutcome& out, const TelemetryRegistry* telemetry) {
  std::vector<uint64_t> words = {out.result.instructions, out.result.cycles,
                                 static_cast<uint64_t>(out.result.reason),
                                 out.result.exit_status};
  words.insert(words.end(), out.outputs.begin(), out.outputs.end());
  for (const MemErrorReport& e : out.errors) {
    words.insert(words.end(), {e.site, static_cast<uint64_t>(e.kind), e.rip,
                               e.instruction_index, e.addr});
  }
  uint64_t h = Fnv1a64(reinterpret_cast<const uint8_t*>(words.data()),
                       words.size() * sizeof(uint64_t));
  if (telemetry != nullptr) {
    const std::string json = telemetry->Snapshot().ToJson();
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(json.data()), json.size(), h);
  }
  return h;
}

void AddVmCounters(const RunOutcome& out, MetricSink* m) {
  const Vm::DispatchStats& d = out.dispatch;
  m->Add("vm.instructions", static_cast<double>(out.result.instructions));
  m->Add("vm.cycles", static_cast<double>(out.result.cycles));
  m->Add("vm.blocks_built", static_cast<double>(d.blocks_built));
  m->Add("vm.block_chains", static_cast<double>(d.block_chains));
  m->Add("vm.chain_exits", static_cast<double>(d.chain_exits));
  m->Add("vm.traces_formed", static_cast<double>(d.traces_formed));
  m->Add("vm.trace_runs", static_cast<double>(d.trace_runs));
  m->Add("vm.code_cache_evictions", static_cast<double>(d.code_cache_evictions));
  m->Add("vm.tlb_hits", static_cast<double>(d.tlb_hits));
  m->Add("vm.tlb_misses", static_cast<double>(d.tlb_misses));
}

}  // namespace perfbench
