#include "src/core/redfat.h"

#include "src/core/pipeline.h"
#include "src/support/check.h"

namespace redfat {

RedFatTool::RedFatTool(RedFatOptions opts) : opts_(opts) {
  if (opts_.mode == RedFatOptions::Mode::kProfile) {
    // Profiling needs per-site pass/fail attribution; a merged check would
    // conflate its member sites (Pipeline::Hardening also disables the
    // merge pass in this mode; the flag keeps options() self-describing).
    opts_.merge = false;
  }
  harden_ = ResolvedPolicy::FromOptions(opts_).tier;
}

RedFatTool::RedFatTool(const ResolvedPolicy& policy) : RedFatTool(policy.rewrite) {
  harden_ = policy.tier;
  harden_explicit_ = policy.explicit_tier;
  rheap_ = policy.rheap;
  rheap_explicit_ = policy.explicit_rheap;
}

Result<InstrumentResult> RedFatTool::Instrument(const BinaryImage& input,
                                                const AllowList* allow) const {
  Pipeline pipeline = Pipeline::Hardening(opts_);
  PipelineContext ctx(input, opts_, allow);
  Status st = pipeline.Run(ctx);
  if (!st.ok()) {
    return Error(st.error());
  }
  InstrumentResult out;
  out.image = std::move(ctx.output);
  out.sites = std::move(ctx.plan.sites);
  out.plan_stats = ctx.plan.stats;
  out.rewrite_stats = ctx.rewrite_stats;
  out.pipeline_stats = pipeline.stats();
  out.harden = harden_;
  out.harden_explicit = harden_explicit_;
  out.rheap = rheap_;
  out.rheap_explicit = rheap_explicit_;
  return out;
}

AllowList BuildAllowList(const std::unordered_map<uint32_t, Vm::ProfCounts>& prof_counts,
                         const std::vector<SiteRecord>& sites) {
  AllowList allow;
  for (const SiteRecord& site : sites) {
    if (site.kind != CheckKind::kFull) {
      continue;
    }
    auto it = prof_counts.find(site.id);
    if (it == prof_counts.end()) {
      continue;  // never observed: stay conservative (Redzone-only)
    }
    if (it->second.fails == 0 && it->second.passes > 0) {
      allow.addrs.insert(site.addr);
    }
  }
  return allow;
}

}  // namespace redfat
