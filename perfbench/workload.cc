#include "workload.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {

using namespace redfat;

unsigned Workers() {
  static const unsigned workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return workers;
}

void ParallelFor(size_t n, const std::function<void(size_t, unsigned)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < Workers(); ++w) {
    threads.emplace_back([&fn, &next, n, w] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i, w);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

void RunOps(PassContext& ctx, size_t n, const std::function<void(size_t, PassContext&)>& op) {
  struct Slot {
    std::vector<double> op_ms;
    std::vector<double> rewrite_ms;
    std::vector<uint64_t> prints;
  };
  struct Worker {
    Checker checker;
    MetricSink layers;
    VmTotals vm;
    std::unique_ptr<Tracer> tracer;
  };
  std::vector<Slot> slots(n);
  std::vector<Worker> workers(Workers());
  for (size_t w = 0; w < workers.size(); ++w) {
    if (ctx.tracer != nullptr) {
      workers[w].tracer =
          std::make_unique<Tracer>(ctx.trace, ctx.tracer->origin_ms(), static_cast<int>(w) + 1);
    }
  }
  ParallelFor(n, [&](size_t i, unsigned w) {
    Worker& worker = workers[w];
    PassContext c = ctx;
    c.checker = &worker.checker;
    c.tracer = worker.tracer.get();
    c.layers = ctx.layers != nullptr ? &worker.layers : nullptr;
    c.vm = ctx.vm != nullptr ? &worker.vm : nullptr;
    c.op_ms = ctx.op_ms != nullptr ? &slots[i].op_ms : nullptr;
    c.rewrite_ms = ctx.rewrite_ms != nullptr ? &slots[i].rewrite_ms : nullptr;
    c.fingerprints = ctx.fingerprints != nullptr ? &slots[i].prints : nullptr;
    op(i, c);
  });
  for (const Slot& slot : slots) {
    if (ctx.op_ms != nullptr) {
      ctx.op_ms->insert(ctx.op_ms->end(), slot.op_ms.begin(), slot.op_ms.end());
    }
    if (ctx.rewrite_ms != nullptr) {
      ctx.rewrite_ms->insert(ctx.rewrite_ms->end(), slot.rewrite_ms.begin(),
                             slot.rewrite_ms.end());
    }
    if (ctx.fingerprints != nullptr) {
      ctx.fingerprints->insert(ctx.fingerprints->end(), slot.prints.begin(), slot.prints.end());
    }
  }
  for (const Worker& w : workers) {
    ctx.checker->Merge(w.checker);
    if (ctx.layers != nullptr) {
      for (const auto& [name, value] : w.layers.values()) {
        const bool time = name.size() >= 2 && name.compare(name.size() - 2, 2, "ms") == 0;
        ctx.layers->Add(name, time ? value / static_cast<double>(workers.size()) : value);
      }
    }
    if (ctx.vm != nullptr) {
      ctx.vm->instructions += w.vm.instructions;
      ctx.vm->host_ms += w.vm.host_ms;
    }
    if (ctx.tracer != nullptr) {
      for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
        ctx.tracer->Attribute(static_cast<Layer>(l),
                              w.tracer->self_ms()[l] / static_cast<double>(workers.size()));
      }
    }
  }
}

bool Instrument(PassContext& ctx, const RedFatTool& tool, const BinaryImage& image,
                const AllowList* allow, InstrumentResult* out) {
  Result<InstrumentResult> r = [&] {
    Tracer::Scope span(ctx.tracer, Layer::kPipeline, "pipeline.instrument");
    return tool.Instrument(image, allow);
  }();
  ctx.checker->Expect(r.ok(), r.ok() ? "" : "instrument: " + r.error());
  if (!r.ok()) {
    return false;
  }
  *out = std::move(r).value();
  if (ctx.layers != nullptr) {
    for (const PassStats& p : out->pipeline_stats.passes) {
      ctx.layers->Add("pipeline." + p.name + ".ms", p.wall_ms);
      ctx.layers->Add("pipeline." + p.name + ".items", static_cast<double>(p.items));
      ctx.layers->Add("pipeline." + p.name + ".changed", static_cast<double>(p.changed));
    }
  }
  return true;
}

RunOutcome Run(PassContext& ctx, const BinaryImage& image, RuntimeKind runtime,
               const RunConfig& config) {
  const double t0 = NowMs();
  RunOutcome out;
  if (ctx.tracer == nullptr) {
    out = RunImage(image, runtime, config);
  } else {
    VmLayerStats s;
    out = TracedRunImage(image, runtime, config, ctx.tracer, &s);
    MetricSink* m = ctx.layers;
    m->Add("vm.run_ms", NowMs() - t0);
    AddVmCounters(out, m);
    m->Add("heap.malloc_calls", static_cast<double>(s.malloc_calls));
    m->Add("heap.free_calls", static_cast<double>(s.free_calls));
    m->Add("heap.guard_calls", static_cast<double>(s.guard_calls));
    m->Add("heap.freelist_pops", static_cast<double>(s.freelist_pops));
    m->Add("heap.arena_carves", static_cast<double>(s.arena_carves));
    m->Add("dbi.observer_calls", static_cast<double>(s.observer_calls));
    m->Add("forensics.events", static_cast<double>(s.forensic_events));
  }
  if (ctx.vm != nullptr) {
    ctx.vm->instructions += static_cast<double>(out.result.instructions);
    ctx.vm->host_ms += NowMs() - t0;
  }
  if (ctx.fingerprints != nullptr) {
    ctx.fingerprints->push_back(RunFingerprint(out, config.telemetry));
  }
  return out;
}

std::vector<uint64_t> Expected(const PassContext& ctx, std::vector<uint64_t> outputs) {
  if (ctx.corrupt_expected) {
    outputs.push_back(0xbad);
  }
  return outputs;
}

}  // namespace perfbench
