// rfbench: the repository benchmark's measuring process. One process runs
// one workload, so peak_rss_mb is per workload (perfbench/run.py builds
// and launches it; perfbench/METRICS.md maps every metric to its layer).
//
//   rfbench --workload exec-spec|heap-debug|serve-mix --seed N --seconds S
//           [--trace 0|1] [--work-dir DIR] [--corrupt-expected]
//
// Cold state: every run is a fresh process, and one unmeasured warm-up
// pass precedes the timed passes (the first VM runs of a process are
// slower). The workload is set up again before every timed pass, outside
// the pass's timing, and setup_s is the median setup. With --trace 1 the
// budget is split: untraced passes first (the base of trace_overhead_x),
// then traced passes, whose guest-run fingerprints must equal the warm-up
// pass's.
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/support/str.h"
#include "src/support/trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using redfat::StrFormat;

const char* const kPipelinePasses[] = {"disasm", "cfg",   "classify", "eliminate",
                                       "group",  "tier",  "batch",    "merge",
                                       "liveness", "codegen", "patch"};

struct Metric {
  std::string name;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics() {
  return {{"wall_s", "s"},        {"setup_s", "s"},        {"peak_rss_mb", "MB"},
          {"ops_per_s", "1/s"},   {"op_p50_ms", "ms"},     {"op_p99_ms", "ms"},
          {"rewrite_p50_ms", "ms"}, {"guest_mips", "Minsn/s"}, {"overhead_x", "x"},
          {"image_growth_x", "x"}};
}

std::vector<Metric> PerLayerMetrics() {
  std::vector<Metric> m = {
      {"trace.wall_ms", "ms"},         {"trace.unattributed_ms", "ms"},
      {"trace_overhead_x", "x"},       {"workloads.gen_ms", "ms"},
      {"pipeline.instrument_ms", "ms"}, {"profile.allowlist_ms", "ms"},
  };
  for (const char* pass : kPipelinePasses) {
    m.push_back({StrFormat("pipeline.%s.ms", pass), "ms"});
    m.push_back({StrFormat("pipeline.%s.items", pass), "count"});
    m.push_back({StrFormat("pipeline.%s.changed", pass), "count"});
  }
  const std::vector<Metric> rest = {
      {"vm.run_ms", "ms"},
      {"vm.self_ms", "ms"},
      {"vm.instructions", "count"},
      {"vm.cycles", "count"},
      {"vm.blocks_built", "count"},
      {"vm.block_chains", "count"},
      {"vm.chain_exits", "count"},
      {"vm.traces_formed", "count"},
      {"vm.trace_runs", "count"},
      {"vm.code_cache_evictions", "count"},
      {"vm.tlb_hit_ratio", "ratio"},
      {"vm.chain_ratio", "ratio"},
      {"heap.malloc_calls", "count"},
      {"heap.free_calls", "count"},
      {"heap.guard_calls", "count"},
      {"heap.ms", "ms"},
      {"heap.freelist_pops", "count"},
      {"heap.arena_carves", "count"},
      {"dbi.observer_calls", "count"},
      {"dbi.observer_ms", "ms"},
      {"dbi.checks", "count"},
      {"forensics.events", "count"},
      {"forensics.ms", "ms"},
      {"telemetry.snapshot_ms", "ms"},
      {"telemetry.sink_ms", "ms"},
      {"serve.self_ms", "ms"},
      {"serve.rtt_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.transport_ms", "ms"},
      {"serve.hits", "count"},
      {"serve.misses", "count"},
      {"serve.retiers", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.queue_depth_p99", "count"},
      {"check.ms", "ms"},
      {"share.vm", "ratio"},
      {"share.pipeline", "ratio"},
      {"share.heap_dbi_sinks", "ratio"},
      {"share.serve", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rfbench --workload exec-spec|heap-debug|serve-mix --seed N "
               "--seconds S [--trace 0|1] [--work-dir DIR] [--corrupt-expected]\n");
  return 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  return StrFormat("%.17g", v);
}

// Percentile over operation positions of each position's median latency
// across passes: every pass replays the same operations in the same order,
// so this follows each operation through the run and is robust to passes
// that a burst of machine noise slowed down.
double PositionPercentile(const std::vector<std::vector<double>>& passes, double q) {
  size_t positions = passes.empty() ? 0 : passes.front().size();
  for (const std::vector<double>& p : passes) {
    positions = std::min(positions, p.size());
  }
  std::vector<double> medians;
  for (size_t i = 0; i < positions; ++i) {
    std::vector<double> xs;
    for (const std::vector<double>& p : passes) {
      xs.push_back(p[i]);
    }
    medians.push_back(Median(xs));
  }
  return Percentile(medians, q);
}

struct Setups {
  std::vector<double> ms;
  std::vector<double> gen_ms;
  std::vector<double> mips;  // per setup, when the setup ran guest code
};

void SetUp(Workload& wl, uint64_t seed, Setups* s) {
  VmTotals vm;
  const double t0 = NowMs();
  wl.Setup(seed, &vm);
  s->ms.push_back(NowMs() - t0);
  s->gen_ms.push_back(wl.gen_ms());
  if (vm.host_ms > 0) {
    s->mips.push_back(vm.instructions / (vm.host_ms * 1000.0));
  }
}

struct TimedPasses {
  std::vector<double> walls;
  std::vector<std::vector<double>> op_ms;
  std::vector<std::vector<double>> rewrite_ms;
  std::vector<double> mips;  // per pass, when the pass ran guest code
  size_t ops = 0;
};

// Runs passes until `budget_ms` is spent (at least `min_passes`), each after
// a fresh setup.
TimedPasses RunPasses(Workload& wl, uint64_t seed, Setups* setups, const PassContext& base,
                      double budget_ms, int min_passes) {
  TimedPasses t;
  const double start = NowMs();
  while (t.walls.size() < static_cast<size_t>(min_passes) || NowMs() - start < budget_ms) {
    SetUp(wl, seed, setups);
    PassContext ctx = base;
    std::vector<double> op_ms;
    std::vector<double> rewrite_ms;
    VmTotals vm;
    ctx.op_ms = &op_ms;
    ctx.rewrite_ms = &rewrite_ms;
    ctx.vm = &vm;
    const double t0 = NowMs();
    t.ops += wl.Pass(ctx);
    t.walls.push_back(ctx.wall_ms > 0 ? ctx.wall_ms : NowMs() - t0);
    t.op_ms.push_back(std::move(op_ms));
    t.rewrite_ms.push_back(std::move(rewrite_ms));
    if (vm.host_ms > 0) {
      t.mips.push_back(vm.instructions / (vm.host_ms * 1000.0));
    }
  }
  return t;
}

int Main(int argc, char** argv) {
  // Fixed malloc thresholds: serve-mix moves ~1 MB frames per request, and
  // with glibc's dynamic thresholds whether such a buffer is a fresh mmap or
  // reused heap memory depends on the run's allocation history.
  (void)mallopt(M_MMAP_THRESHOLD, 16 << 20);
  (void)mallopt(M_TRIM_THRESHOLD, 256 << 20);
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else if (arg == "--corrupt-expected") {
      corrupt = true;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> wl;
  if (workload == "exec-spec") {
    wl = MakeExecSpec();
  } else if (workload == "heap-debug") {
    wl = MakeHeapDebug();
  } else if (workload == "serve-mix") {
    wl = MakeServeMix(work_dir);
  } else {
    return Usage();
  }
  if (!(seconds > 0)) {
    return Usage();
  }

  // --- setup, reference results, warm-up (fingerprints for the traced run) --
  Setups setups;
  SetUp(*wl, seed, &setups);
  wl->Prepare();
  Checker checker;
  std::vector<uint64_t> warm_prints;
  {
    PassContext ctx;
    ctx.checker = &checker;
    ctx.fingerprints = trace ? &warm_prints : nullptr;
    ctx.corrupt_expected = corrupt;
    wl->Pass(ctx);
  }

  // --- timed passes -----------------------------------------------------------
  PassContext timed;
  timed.checker = &checker;
  timed.corrupt_expected = corrupt;
  const double budget_ms = seconds * 1000.0 * (trace ? 0.5 : 1.0);
  const TimedPasses t = RunPasses(*wl, seed, &setups, timed, budget_ms, 3);
  const std::vector<double>& walls = t.walls;

  MetricSink e2e;
  e2e.Set("wall_s", Median(walls) / 1000.0);
  e2e.Set("setup_s", Median(setups.ms) / 1000.0);
  e2e.Set("ops_per_s",
          static_cast<double>(t.ops) / static_cast<double>(walls.size()) / (Median(walls) / 1000.0));
  e2e.Set("op_p50_ms", PositionPercentile(t.op_ms, 50));
  e2e.Set("op_p99_ms", PositionPercentile(t.op_ms, 99));
  e2e.Set("rewrite_p50_ms", PositionPercentile(t.rewrite_ms, 50));
  e2e.Set("guest_mips", Median(t.mips.empty() ? setups.mips : t.mips));

  // --- traced passes ----------------------------------------------------------
  MetricSink layers;
  if (trace) {
    redfat::TraceWriter writer(1 << 18);
    writer.SetProcessName(3, "perfbench");
    writer.SetThreadName(3, 1, workload);
    const double origin = NowMs();
    std::vector<double> traced_walls;
    std::array<double, static_cast<size_t>(Layer::kCount)> self{};
    const double traced_start = NowMs();
    while (traced_walls.size() < 2 || NowMs() - traced_start < budget_ms) {
      Tracer tracer(&writer, origin);
      std::vector<uint64_t> prints;
      PassContext ctx;
      ctx.checker = &checker;
      ctx.tracer = &tracer;
      ctx.layers = &layers;
      ctx.trace = &writer;
      ctx.fingerprints = &prints;
      ctx.corrupt_expected = corrupt;
      const double t0 = NowMs();
      wl->Pass(ctx);
      traced_walls.push_back(ctx.wall_ms > 0 ? ctx.wall_ms : NowMs() - t0);
      for (size_t l = 0; l < self.size(); ++l) {
        self[l] += tracer.self_ms()[l];
      }
      checker.Expect(prints == warm_prints, "traced run fingerprints differ from RunImage");
    }
    const double n = static_cast<double>(traced_walls.size());
    for (auto& [name, value] : std::map<std::string, double>(layers.values())) {
      layers.Set(name, value / n);
    }
    for (double& s : self) {
      s /= n;
    }
    const double sink_ms = wl->SinkMsPerPass();
    self[static_cast<size_t>(Layer::kVm)] -= sink_ms;
    auto at = [&self](Layer l) { return self[static_cast<size_t>(l)]; };
    double wall = 0;
    for (double w : traced_walls) {
      wall += w;
    }
    wall /= n;
    double attributed = sink_ms;
    for (double s : self) {
      attributed += s;
    }
    layers.Set("trace.wall_ms", wall);
    layers.Set("trace.unattributed_ms", wall - attributed);
    layers.Set("trace_overhead_x", Median(traced_walls) / Median(walls));
    layers.Set("workloads.gen_ms", Median(setups.gen_ms));
    layers.Set("pipeline.instrument_ms", at(Layer::kPipeline));
    layers.Set("profile.allowlist_ms", at(Layer::kProfile));
    layers.Set("vm.self_ms", at(Layer::kVm));
    layers.Set("heap.ms", at(Layer::kHeap));
    layers.Set("dbi.observer_ms", at(Layer::kDbi));
    layers.Set("forensics.ms", at(Layer::kForensics));
    layers.Set("telemetry.snapshot_ms", at(Layer::kTelemetry));
    layers.Set("telemetry.sink_ms", sink_ms);
    layers.Set("serve.self_ms", at(Layer::kService) + at(Layer::kTransport));
    layers.Set("check.ms", at(Layer::kCheck));
    const double hits = layers.Get("vm.tlb_hits");
    const double misses = layers.Get("vm.tlb_misses");
    layers.Set("vm.tlb_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    const double chains = layers.Get("vm.block_chains");
    const double exits = layers.Get("vm.chain_exits");
    layers.Set("vm.chain_ratio", chains + exits > 0 ? chains / (chains + exits) : 0.0);
    layers.Set("share.vm", at(Layer::kVm) / wall);
    layers.Set("share.pipeline", (at(Layer::kPipeline) + at(Layer::kProfile)) / wall);
    layers.Set("share.heap_dbi_sinks", (at(Layer::kHeap) + at(Layer::kDbi) +
                                        at(Layer::kForensics) + at(Layer::kTelemetry) +
                                        sink_ms) /
                                           wall);
    layers.Set("share.serve", (at(Layer::kService) + at(Layer::kTransport)) / wall);

    const std::string json = writer.ToJson();
    const redfat::Status valid = redfat::ValidateTraceEventJson(json);
    checker.Expect(valid.ok() && writer.dropped() == 0,
                   valid.ok() ? "trace events dropped" : "trace: " + valid.error());
    const std::string trace_path = work_dir + "/trace-" + workload + ".json";
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    checker.Expect(f != nullptr, "cannot write " + trace_path);
    if (f != nullptr) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::fprintf(stderr, "rfbench: wrote %s\n", trace_path.c_str());
    }
    std::fprintf(stderr, "rfbench: traced %zu passes; layer self times per pass (ms):\n",
                 traced_walls.size());
    for (size_t l = 0; l < self.size(); ++l) {
      std::fprintf(stderr, "  %-16s %10.2f\n", LayerName(static_cast<Layer>(l)), self[l]);
    }
    std::fprintf(stderr, "  %-16s %10.2f\n  %-16s %10.2f\n  %-16s %10.2f (sum of parts)\n",
                 "telemetry.sink", sink_ms, "unattributed", wall - attributed, "wall", wall);
  }

  wl->Finish(&checker, &e2e);
  e2e.Set("peak_rss_mb", PeakRssMb());

  // --- report ---------------------------------------------------------------
  const double fail_ratio =
      checker.attempted() == 0
          ? 1.0
          : static_cast<double>(checker.failed()) / static_cast<double>(checker.attempted());
  std::fprintf(stderr,
               "rfbench: %s seed=%llu: %zu timed passes, %zu ops, %zu setups\n",
               workload.c_str(), static_cast<unsigned long long>(seed), walls.size(), t.ops,
               setups.ms.size());
  for (const Metric& m : EndToEndMetrics()) {
    std::fprintf(stderr, "  %-16s %14.6g %s\n", m.name.c_str(), e2e.Get(m.name),
                 m.unit.c_str());
  }
  std::fprintf(stderr, "  %-16s %14.6g ratio (%llu of %llu checks failed)\n", "fail_ratio",
               fail_ratio, static_cast<unsigned long long>(checker.failed()),
               static_cast<unsigned long long>(checker.attempted()));

  const bool correct = checker.attempted() > 0 && checker.failed() == 0;
  std::string out = StrFormat("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
                              correct ? "true" : "false",
                              static_cast<unsigned long long>(checker.attempted()),
                              static_cast<unsigned long long>(checker.failed()));
  const std::vector<Metric> metrics = trace ? PerLayerMetrics() : EndToEndMetrics();
  const MetricSink& values = trace ? layers : e2e;
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                     metrics[i].name.c_str(), JsonNumber(values.Get(metrics[i].name)).c_str(),
                     metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
