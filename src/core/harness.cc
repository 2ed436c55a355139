#include "src/core/harness.h"

#include "src/heap/debug_allocator.h"
#include "src/heap/legacy_heap.h"
#include "src/heap/lowfat.h"
#include "src/heap/redfat_allocator.h"
#include "src/heap/shadow_allocator.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"

namespace redfat {

RunOutcome RunImage(const BinaryImage& image, RuntimeKind runtime, const RunConfig& config) {
  return RunImages({&image}, runtime, config);
}

RunOutcome RunImages(const std::vector<const BinaryImage*>& images, RuntimeKind runtime,
                     const RunConfig& config) {
  Vm vm(config.model);
  RheapOptions ropts = config.rheap;
  if (ropts.random) {
    // Derive the placement seed from the run seed: randomized layouts are
    // reproducible per run, different across seeds.
    ropts.random_seed ^= config.rng_seed * 0x9e3779b97f4a7c15ULL;
  }
  GlibcLikeAllocator glibc;
  RedFatAllocator libredfat(ropts);
  ShadowRedFatAllocator libredfat_shadow(ropts.quarantine_slots);
  DebugRedFatAllocator libredfat_debug(ropts);
  // The allocator whose low-fat heap stats feed the telemetry gauges.
  const RedFatAllocator* gauged = nullptr;
  switch (runtime) {
    case RuntimeKind::kBaseline:
      vm.set_allocator(&glibc);
      break;
    case RuntimeKind::kRedFat:
      WriteLowFatTables(&vm.memory());
      vm.set_allocator(&libredfat);
      gauged = &libredfat;
      break;
    case RuntimeKind::kRedFatShadow:
      WriteLowFatTables(&vm.memory());
      vm.set_allocator(&libredfat_shadow);
      break;
    case RuntimeKind::kRedFatDebug:
      WriteLowFatTables(&vm.memory());
      vm.set_allocator(&libredfat_debug);
      gauged = &libredfat_debug;
      break;
  }
  return RunBound(vm, images, config, gauged);
}

RunOutcome RunBound(Vm& vm, const std::vector<const BinaryImage*>& images,
                    const RunConfig& config, const RedFatAllocator* gauged) {
  if (config.observer != nullptr) {
    vm.set_observer(config.observer);
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
  if (config.metrics_epoch != 0 && config.on_epoch) {
    vm.set_epoch_hook(config.metrics_epoch, config.on_epoch);
  }
  vm.set_telemetry(config.telemetry);
  vm.set_trace(config.trace);
  vm.set_sampler(config.sampler);
  vm.set_heap_observer(config.forensics);
  if (config.trace != nullptr) {
    config.trace->SetProcessName(1, "guest");
    config.trace->SetThreadName(1, 1, "vm");
  }
  // Keyed-site-id -> original instruction address, for `site_addr` trace
  // args. The keying must mirror Vm::SiteKeyFor: image 0 and any site the VM
  // would fall back to plain ids for keeps its plain id.
  std::unordered_map<uint32_t, uint64_t> site_addrs;
  if (config.trace != nullptr && !config.image_sites.empty()) {
    for (size_t img = 0; img < config.image_sites.size() && img < images.size(); ++img) {
      const std::vector<SiteRecord>* sites = config.image_sites[img];
      if (sites == nullptr) {
        continue;
      }
      const uint32_t ordinal = static_cast<uint32_t>(img);
      for (const SiteRecord& s : *sites) {
        const bool keyed =
            ordinal != 0 && ordinal < kMaxKeyedImages && s.id <= kMaxKeyedSite;
        const uint32_t key = keyed ? ImageSiteKey(ordinal, s.id) : s.id;
        site_addrs.emplace(key, s.addr);
      }
    }
    vm.set_site_addrs(&site_addrs);
  }
  for (const BinaryImage* image : images) {
    vm.LoadImage(*image);  // the last image's entry wins
  }

  RunOutcome out;
  out.result = vm.Run();
  out.outputs = vm.outputs();
  out.errors = vm.mem_errors();
  out.counters = vm.counters();
  out.prof_counts = vm.prof_counts();
  out.touched_pages = vm.memory().TouchedPages();
  out.dispatch = vm.dispatch_stats();

  if (config.forensics != nullptr) {
    // Reports symbolize against the entry image's site table (the last one,
    // mirroring load order); library sites stay keyed and unjoined.
    const std::vector<SiteRecord>* sites =
        config.image_sites.empty() ? nullptr : config.image_sites.back();
    for (const MemErrorReport& e : out.errors) {
      out.forensic_reports.push_back(BuildForensicReport(
          e, *config.forensics, vm.memory(), sites, config.forensic_tier));
    }
  }

  if (config.trace != nullptr) {
    config.trace->Complete("vm.run", "run", 1, 1, 0.0,
                           static_cast<double>(out.result.cycles),
                           {TraceArg{"instructions", out.result.instructions},
                            TraceArg{"mem_errors", out.errors.size()}});
  }
  if (config.telemetry != nullptr) {
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
      reg->SetGauge("lowfat.fallback_allocs",
                    static_cast<double>(gauged->fallback_allocs()));
      reg->SetGauge("redzone.live_bytes",
                    static_cast<double>(hs.live_slots * kRedzoneSize));
      reg->SetGauge("lowfat.freelist_pops", static_cast<double>(hs.freelist_pops));
      reg->SetGauge("lowfat.arena_carves", static_cast<double>(hs.arena_carves));
      reg->SetGauge("lowfat.malloc_cycles", static_cast<double>(hs.malloc_cycles));
      reg->SetGauge("lowfat.free_cycles", static_cast<double>(hs.free_cycles));
      if (hs.corruptions != 0) {
        reg->SetGauge("lowfat.corruptions", static_cast<double>(hs.corruptions));
      }
      const RedFatAllocatorStats& rs = gauged->redfat_stats();
      if (rs.exhausted_fallbacks != 0) {
        reg->SetGauge("lowfat.exhausted_fallbacks",
                      static_cast<double>(rs.exhausted_fallbacks));
      }
      if (rs.guard_checks != 0) {
        reg->SetGauge("heap.guard_checks", static_cast<double>(rs.guard_checks));
        reg->SetGauge("heap.guard_violations",
                      static_cast<double>(rs.guard_violations));
        reg->SetGauge("heap.guard_cycles", static_cast<double>(rs.guard_cycles));
      }
    }
  }
  return out;
}

CoverageStats ComputeCoverage(const std::unordered_map<uint32_t, uint64_t>& counters,
                              const std::vector<SiteRecord>& sites) {
  CoverageStats cov;
  for (const SiteRecord& site : sites) {
    auto it = counters.find(site.id);
    if (it == counters.end()) {
      continue;
    }
    if (site.kind == CheckKind::kFull) {
      cov.full += it->second;
    } else {
      cov.redzone_only += it->second;
    }
  }
  return cov;
}

}  // namespace redfat
