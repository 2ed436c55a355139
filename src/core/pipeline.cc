#include "src/core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <utility>

#include "src/core/codegen.h"
#include "src/core/policy.h"
#include "src/support/check.h"
#include "src/support/json.h"
#include "src/support/parallel.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"

namespace redfat {

namespace {

// Static per-site cost model for the cycles_saved estimates, aligned with
// the VM's CycleModel: a full check body costs roughly one metadata load,
// the base/size arithmetic and a compare+branch; a trampoline entry/exit
// costs the two jumps plus register/flags save-restore traffic.
constexpr uint64_t kEstCheckBodyCycles = 30;
constexpr uint64_t kEstTrampOverheadCycles = 8;

double MsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

}  // namespace

// --- PipelineStats ---------------------------------------------------------

const PassStats* PipelineStats::Find(const std::string& name) const {
  for (const PassStats& p : passes) {
    if (p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

std::string PipelineStats::ToJson() const {
  std::string out = StrFormat("{\"jobs\":%u,\"total_ms\":%.3f,\"passes\":[", jobs, total_ms);
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassStats& p = passes[i];
    if (i != 0) {
      out += ",";
    }
    out += StrFormat(
        "{\"name\":\"%s\",\"items\":%zu,\"changed\":%zu,\"wall_ms\":%.3f,"
        "\"cycles_saved\":%llu,\"start_ms\":%.3f}",
        JsonEscape(p.name).c_str(), p.items, p.changed, p.wall_ms,
        static_cast<unsigned long long>(p.cycles_saved), p.start_ms);
  }
  out += "]}";
  return out;
}

namespace {

bool ReadPass(JsonReader& r, PassStats* p) {
  return r.Object([&](const std::string& key) {
    double ignored = 0;
    // start_ms is absent in PR-1-era output and defaults to 0.
    return key == "name"           ? r.String(&p->name)
           : key == "items"        ? r.Number(&p->items)
           : key == "changed"      ? r.Number(&p->changed)
           : key == "wall_ms"      ? r.Number(&p->wall_ms)
           : key == "cycles_saved" ? r.Number(&p->cycles_saved)
           : key == "start_ms"     ? r.Number(&p->start_ms)
                                   : r.Number(&ignored);
  });
}

}  // namespace

Result<PipelineStats> PipelineStatsFromJson(const std::string& json) {
  JsonReader r(json, "stats json");
  PipelineStats stats;
  r.Object([&](const std::string& key) {
    if (key == "jobs") {
      return r.Number(&stats.jobs);
    }
    if (key == "total_ms") {
      return r.Number(&stats.total_ms);
    }
    if (key == "passes") {
      return r.Array([&] { return ReadPass(r, &stats.passes.emplace_back()); });
    }
    return r.Fail("unknown key '" + key + "'");
  });
  if (const Status st = r.Finish(); !st.ok()) {
    return Error(st.error());
  }
  return stats;
}

// --- AnalysisCache ---------------------------------------------------------

Status AnalysisCache::EnsureDisasm() {
  if (disasm_.has_value()) {
    return Status::Ok();
  }
  Result<Disassembly> dis = DisassembleText(image_, pool_);
  if (!dis.ok()) {
    return Error(dis.error());
  }
  disasm_ = std::move(dis).value();
  return Status::Ok();
}

const Disassembly& AnalysisCache::disasm() const {
  REDFAT_CHECK(disasm_.has_value());
  return *disasm_;
}

Status AnalysisCache::EnsureCfg() {
  if (cfg_.has_value()) {
    return Status::Ok();
  }
  Status st = EnsureDisasm();
  if (!st.ok()) {
    return st;
  }
  cfg_ = RecoverCfg(*disasm_, image_, pool_);
  return Status::Ok();
}

const CfgInfo& AnalysisCache::cfg() const {
  REDFAT_CHECK(cfg_.has_value());
  return *cfg_;
}

void AnalysisCache::set_operand_classes(std::vector<OperandClass> classes) {
  classes_ = std::move(classes);
}

const std::vector<OperandClass>* AnalysisCache::operand_classes() const {
  return classes_.has_value() ? &*classes_ : nullptr;
}

const ClobberInfo& AnalysisCache::clobbers(size_t insn_index) {
  REDFAT_CHECK(disasm_.has_value() && cfg_.has_value());
  if (clobbers_.empty()) {
    clobbers_.resize(disasm_->insns.size());
  }
  REDFAT_CHECK(insn_index < clobbers_.size());
  if (!clobbers_[insn_index].has_value()) {
    // Memoising on a miss mutates the cache, which is single-thread only:
    // while the pool is running a region, misses must not happen (callers
    // precompute instead). Cached entries stay readable concurrently.
    REDFAT_CHECK(pool_ == nullptr || !pool_->InParallelRegion());
    clobbers_[insn_index] = ComputeClobbers(*disasm_, *cfg_, insn_index);
  }
  return *clobbers_[insn_index];
}

void AnalysisCache::PrecomputeClobbers(const std::vector<size_t>& indices, unsigned jobs) {
  REDFAT_CHECK(disasm_.has_value() && cfg_.has_value());
  if (clobbers_.empty()) {
    clobbers_.resize(disasm_->insns.size());
  }
  std::vector<size_t> missing;
  missing.reserve(indices.size());
  for (size_t index : indices) {
    REDFAT_CHECK(index < clobbers_.size());
    if (!clobbers_[index].has_value()) {
      missing.push_back(index);
    }
  }
  if (missing.empty()) {
    return;
  }
  std::vector<ClobberInfo> infos =
      pool_ != nullptr ? ComputeClobbersMany(*disasm_, *cfg_, missing, pool_)
                       : ComputeClobbersMany(*disasm_, *cfg_, missing, jobs);
  for (size_t i = 0; i < missing.size(); ++i) {
    clobbers_[missing[i]] = std::move(infos[i]);
  }
}

// --- concrete passes -------------------------------------------------------

namespace {

class DisasmPass : public Pass {
 public:
  const char* name() const override { return "disasm"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    if (ctx.cache.image().FindSection(Section::Kind::kTrampoline) != nullptr) {
      return Error("pipeline: image already contains a trampoline section");
    }
    Status st = ctx.cache.EnsureDisasm();
    if (!st.ok()) {
      return Error(st.error());
    }
    return PassOutcome{.items = ctx.cache.disasm().insns.size()};
  }
};

class CfgPass : public Pass {
 public:
  const char* name() const override { return "cfg"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    Status st = ctx.cache.EnsureCfg();
    if (!st.ok()) {
      return Error(st.error());
    }
    return PassOutcome{.items = ctx.cache.disasm().insns.size(),
                       .changed = ctx.cache.cfg().num_blocks};
  }
};

class ClassifyPass : public Pass {
 public:
  const char* name() const override { return "classify"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    if (!ctx.cache.has_disasm()) {
      return Error("classify: disasm pass has not run");
    }
    std::vector<OperandClass> classes =
        ClassifyOperands(ctx.cache.disasm(), ctx.opts, &ctx.plan.stats, ctx.pool);
    const size_t considered = ctx.plan.stats.considered;
    ctx.cache.set_operand_classes(std::move(classes));
    return PassOutcome{.items = ctx.cache.disasm().insns.size(), .changed = considered};
  }
};

// Check elimination (§6). The actual dropping happens during site selection
// (group pass); this pass flags it on and accounts for the sites that will
// be dropped.
class EliminatePass : public Pass {
 public:
  const char* name() const override { return "eliminate"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    const std::vector<OperandClass>* classes = ctx.cache.operand_classes();
    if (classes == nullptr) {
      return Error("eliminate: classify pass has not run");
    }
    ctx.drop_eliminable = true;
    PassOutcome out;
    const size_t n = classes->size();
    if (ctx.pool != nullptr && ctx.pool->jobs() > 1 && n >= 1024) {
      // Range reduction: per-range partial counts summed in range order.
      const size_t ranges = std::min<size_t>(ctx.pool->jobs() * 4, n);
      std::vector<size_t> items(ranges, 0);
      std::vector<size_t> changed(ranges, 0);
      ctx.pool->ParallelFor(ranges, [&](size_t r) {
        const size_t begin = r * n / ranges;
        const size_t end = (r + 1) * n / ranges;
        for (size_t i = begin; i < end; ++i) {
          const OperandClass c = (*classes)[i];
          if (c == OperandClass::kFiltered || c == OperandClass::kNone) {
            continue;
          }
          ++items[r];
          if (c == OperandClass::kEliminable) {
            ++changed[r];
          }
        }
      });
      for (size_t r = 0; r < ranges; ++r) {
        out.items += items[r];
        out.changed += changed[r];
      }
    } else {
      for (OperandClass c : *classes) {
        if (c == OperandClass::kFiltered || c == OperandClass::kNone) {
          continue;
        }
        ++out.items;
        if (c == OperandClass::kEliminable) {
          ++out.changed;
        }
      }
    }
    // An eliminated site saves its whole trampoline on every visit.
    out.cycles_saved = out.changed * (kEstCheckBodyCycles + kEstTrampOverheadCycles);
    return out;
  }
};

class GroupPass : public Pass {
 public:
  const char* name() const override { return "group"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    const std::vector<OperandClass>* classes = ctx.cache.operand_classes();
    if (classes == nullptr) {
      return Error("group: classify pass has not run");
    }
    std::vector<SiteCandidate> candidates =
        SelectSites(ctx.cache.disasm(), *classes, ctx.opts, ctx.allow, ctx.drop_eliminable,
                    &ctx.plan.stats, &ctx.plan.sites, ctx.pool);
    const size_t n = candidates.size();
    ctx.plan.trampolines =
        SingletonTrampolines(ctx.cache.disasm(), std::move(candidates), ctx.pool);
    return PassOutcome{.items = n, .changed = ctx.plan.trampolines.size()};
  }
};

// Profile-guided check tiering: joins the prior run's per-site cycle
// profile against the freshly numbered site table, then stamps each
// singleton trampoline with its leader site's tier so the batch and codegen
// passes can act on it. Runs only when a TierProfile is attached; disabled
// it contributes nothing (and the output stays byte-identical).
class TierPass : public Pass {
 public:
  const char* name() const override { return "tier"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    if (ctx.opts.tier_profile == nullptr) {
      return PassOutcome{};
    }
    const TierStats ts = AssignSiteTiers(*ctx.opts.tier_profile, ctx.opts.hot_threshold,
                                         &ctx.plan.sites);
    for (PlannedTrampoline& tramp : ctx.plan.trampolines) {
      const uint32_t site = tramp.checks.front().member_sites.front();
      REDFAT_CHECK(site < ctx.plan.sites.size());
      tramp.tier = ctx.plan.sites[site].tier;
    }
    // Every hot site drops (at least) its trampoline round-trip per visit;
    // the static estimate mirrors the other optimization passes.
    return PassOutcome{.items = ctx.opts.tier_profile->cycles_by_site.size(),
                       .changed = ts.hot + ts.cold,
                       .cycles_saved = ts.hot * kEstTrampOverheadCycles};
  }
};

class BatchPass : public Pass {
 public:
  const char* name() const override { return "batch"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    if (!ctx.cache.has_cfg()) {
      return Error("batch: cfg pass has not run");
    }
    const size_t before = ctx.plan.trampolines.size();
    ctx.plan.trampolines = BatchTrampolines(ctx.cache.disasm(), ctx.cache.cfg(),
                                            std::move(ctx.plan.trampolines), ctx.pool);
    const size_t removed = before - ctx.plan.trampolines.size();
    // Each coalesced site drops one trampoline round-trip per visit.
    return PassOutcome{.items = before,
                       .changed = removed,
                       .cycles_saved = removed * kEstTrampOverheadCycles};
  }
};

class MergePass : public Pass {
 public:
  const char* name() const override { return "merge"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    std::vector<PlannedTrampoline>& tramps = ctx.plan.trampolines;
    size_t before = 0;
    for (const PlannedTrampoline& t : tramps) {
      before += t.checks.size();
    }
    // Merging is independent per trampoline; run it across the pool.
    if (ctx.pool != nullptr) {
      ctx.pool->ParallelFor(tramps.size(),
                            [&](size_t i) { MergeTrampolineChecks(&tramps[i]); });
    } else {
      ParallelFor(ctx.opts.jobs, tramps.size(),
                  [&](size_t i) { MergeTrampolineChecks(&tramps[i]); });
    }
    size_t after = 0;
    for (const PlannedTrampoline& t : tramps) {
      after += t.checks.size();
    }
    // Each merged-away check saves one check body per trampoline visit.
    return PassOutcome{.items = tramps.size(),
                       .changed = before - after,
                       .cycles_saved = (before - after) * kEstCheckBodyCycles};
  }
};

class LivenessPass : public Pass {
 public:
  const char* name() const override { return "liveness"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    if (!ctx.cache.has_cfg()) {
      return Error("liveness: cfg pass has not run");
    }
    std::vector<size_t> indices;
    indices.reserve(ctx.plan.trampolines.size());
    for (const PlannedTrampoline& t : ctx.plan.trampolines) {
      indices.push_back(t.insn_index);
    }
    ctx.cache.PrecomputeClobbers(indices, ctx.opts.jobs);
    return PassOutcome{.items = indices.size()};
  }
};

class CodegenPass : public Pass {
 public:
  const char* name() const override { return "codegen"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    if (!ctx.cache.has_cfg()) {
      return Error("codegen: cfg pass has not run");
    }
    InstrumentPlan& plan = ctx.plan;
    plan.stats.trampolines = plan.trampolines.size();
    plan.stats.checks_emitted = 0;
    for (const PlannedTrampoline& t : plan.trampolines) {
      plan.stats.checks_emitted += t.checks.size();
    }

    // Resolve all leader clobbers through the pool up front (a no-op for
    // entries the liveness pass already cached). The lazy clobbers()
    // accessor would compute misses one by one on this thread — and it
    // CHECK-fails on a miss once the emission region is running.
    std::vector<size_t> leader_indices;
    std::vector<uint64_t> addrs;  // request r is plan.trampolines[r]
    leader_indices.reserve(plan.trampolines.size());
    addrs.reserve(plan.trampolines.size());
    for (const PlannedTrampoline& tramp : plan.trampolines) {
      leader_indices.push_back(tramp.insn_index);
      addrs.push_back(tramp.addr);
    }
    ctx.cache.PrecomputeClobbers(leader_indices, ctx.opts.jobs);

    // Each emission chunk instantiates its payloads from a stencil table of
    // its own; the emission phase only reads the clobber cache.
    const ChunkEmitterFactory payloads = [&] {
      return [&, stencils = std::make_shared<PayloadStencils>(ctx.opts)](Assembler& as,
                                                                        size_t r) {
        const PlannedTrampoline& tramp = plan.trampolines[r];
        stencils->Emit(as, tramp, ctx.cache.clobbers(tramp.insn_index));
      };
    };

    Result<std::vector<SpanPlan>> planned =
        PlanSpans(ctx.cache.disasm(), ctx.cache.cfg(), addrs, &ctx.rewrite_stats);
    if (!planned.ok()) {
      return Error(planned.error());
    }
    ctx.spans = std::move(planned).value();

    // Hot-tier spans are emitted into a second blob (the inline-check
    // region) so their runtime cycles are attributable separately from
    // trampoline cycles. They move, in order, behind the others: the starts
    // stay parallel to the spans, which PatchSpans consumes positionally. A
    // span is hot when the request that owns it (its first slot) is.
    const auto rest_end =
        std::stable_partition(ctx.spans.begin(), ctx.spans.end(), [&](const SpanPlan& span) {
          return plan.trampolines[span.payloads[0]].tier != Tier::kHot;
        });
    const std::span<const SpanPlan> spans(ctx.spans);
    const size_t num_rest = static_cast<size_t>(rest_end - ctx.spans.begin());
    ctx.tramp_code = EmitTrampolines(ctx.cache.disasm(), spans.first(num_rest), payloads,
                                     ctx.opts.trampoline_base, ctx.pool, &ctx.rewrite_stats);
    RewriteStats inline_stats;
    ctx.inline_code = EmitTrampolines(ctx.cache.disasm(), spans.subspan(num_rest), payloads,
                                      ctx.opts.trampoline_base + kInlineCheckOffset, ctx.pool,
                                      &inline_stats);
    ctx.rewrite_stats.applied += inline_stats.applied;
    ctx.rewrite_stats.inline_trampolines = inline_stats.trampolines;
    ctx.rewrite_stats.inline_bytes = inline_stats.trampoline_bytes;
    ctx.tramp_code.starts.insert(ctx.tramp_code.starts.end(), ctx.inline_code.starts.begin(),
                                 ctx.inline_code.starts.end());
    return PassOutcome{.items = addrs.size(), .changed = ctx.rewrite_stats.applied};
  }
};

class PatchPass : public Pass {
 public:
  const char* name() const override { return "patch"; }
  Result<PassOutcome> Run(PipelineContext& ctx) override {
    ctx.output = ctx.cache.image();
    Section* text = ctx.output.FindSection(Section::Kind::kText);
    if (text == nullptr) {
      return Error("patch: image has no text section");
    }
    PatchSpans(text, ctx.spans, ctx.tramp_code.starts, ctx.pool);
    if (!ctx.tramp_code.bytes.empty()) {
      Section ts;
      ts.kind = Section::Kind::kTrampoline;
      ts.vaddr = ctx.opts.trampoline_base;
      ts.bytes = std::move(ctx.tramp_code.bytes);
      ctx.output.sections.push_back(std::move(ts));
    }
    if (!ctx.inline_code.bytes.empty()) {
      Section is;
      is.kind = Section::Kind::kInlineCheck;
      is.vaddr = ctx.opts.trampoline_base + kInlineCheckOffset;
      is.bytes = std::move(ctx.inline_code.bytes);
      ctx.output.sections.push_back(std::move(is));
    }
    return PassOutcome{.items = ctx.spans.size(), .changed = ctx.spans.size()};
  }
};

}  // namespace

// --- Pipeline --------------------------------------------------------------

Pipeline Pipeline::Hardening(const RedFatOptions& opts) {
  Pipeline p;
  p.Add(std::make_unique<DisasmPass>());
  p.Add(std::make_unique<CfgPass>());
  p.Add(std::make_unique<ClassifyPass>());
  p.Add(std::make_unique<EliminatePass>());
  p.Add(std::make_unique<GroupPass>());
  p.Add(std::make_unique<TierPass>());
  p.Add(std::make_unique<BatchPass>());
  p.Add(std::make_unique<MergePass>());
  p.Add(std::make_unique<LivenessPass>());
  p.Add(std::make_unique<CodegenPass>());
  p.Add(std::make_unique<PatchPass>());
  p.SetEnabled("eliminate", opts.elim);
  p.SetEnabled("tier", opts.tier_profile != nullptr);
  p.SetEnabled("batch", opts.batch);
  // Profiling needs per-site pass/fail attribution; a merged check would
  // conflate its member sites.
  p.SetEnabled("merge", opts.merge && opts.mode != RedFatOptions::Mode::kProfile);
  return p;
}

Pipeline Pipeline::Hardening(const ResolvedPolicy& policy) {
  return Hardening(policy.rewrite);
}

Pipeline& Pipeline::Add(std::unique_ptr<Pass> pass) {
  REDFAT_CHECK(pass != nullptr);
  passes_.push_back(Entry{std::move(pass), /*enabled=*/true});
  return *this;
}

std::vector<std::string> Pipeline::PassNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const Entry& e : passes_) {
    names.push_back(e.pass->name());
  }
  return names;
}

bool Pipeline::SetEnabled(const std::string& name, bool enabled) {
  for (Entry& e : passes_) {
    if (name == e.pass->name()) {
      e.enabled = enabled;
      return true;
    }
  }
  return false;
}

bool Pipeline::IsEnabled(const std::string& name) const {
  for (const Entry& e : passes_) {
    if (name == e.pass->name()) {
      return e.enabled;
    }
  }
  return false;
}

void RestoreCheckpoint(const PipelineCheckpoint& cp, PipelineContext& ctx) {
  REDFAT_CHECK(cp.valid());
  ctx.drop_eliminable = cp.drop_eliminable;
  ctx.plan = cp.plan;
  // Everything the back half (re)produces starts clean. The analysis cache
  // is intentionally untouched: its contents are pure functions of the
  // input image and stay valid across re-entries.
  ctx.spans.clear();
  ctx.tramp_code = TrampolineCode{};
  ctx.inline_code = TrampolineCode{};
  ctx.rewrite_stats = RewriteStats{};
  ctx.output = BinaryImage{};
}

void Pipeline::CaptureAfter(const std::string& pass_name, PipelineCheckpoint* out) {
  capture_after_ = out != nullptr ? pass_name : std::string();
  capture_out_ = out;
}

Status Pipeline::Run(PipelineContext& ctx) { return RunRange(ctx, 0); }

Status Pipeline::RunFrom(PipelineContext& ctx, const std::string& first_pass) {
  for (size_t i = 0; i < passes_.size(); ++i) {
    if (first_pass == passes_[i].pass->name()) {
      return RunRange(ctx, i);
    }
  }
  return Error(StrFormat("pipeline: unknown pass '%s'", first_pass.c_str()));
}

Status Pipeline::RunRange(PipelineContext& ctx, size_t first_index) {
  stats_ = PipelineStats{};
  // One pool serves every pass of the run (no per-pass spawn/join). A batch
  // driver may inject a shared pool via ctx.pool; otherwise a scoped pool of
  // opts.jobs workers is created here and detached again on every exit path
  // (the cache must not keep a dangling pointer past the run).
  std::optional<ThreadPool> scoped_pool;
  ThreadPool* const prior_pool = ctx.pool;
  if (ctx.pool == nullptr) {
    scoped_pool.emplace(ctx.opts.jobs);
    ctx.pool = &*scoped_pool;
  }
  ctx.cache.set_pool(ctx.pool);
  stats_.jobs = ctx.pool->jobs();
  const auto detach_pool = [&] {
    ctx.cache.set_pool(nullptr);
    ctx.pool = prior_pool;
  };
  const auto run_start = std::chrono::steady_clock::now();
  for (size_t i = first_index; i < passes_.size(); ++i) {
    Entry& e = passes_[i];
    if (!e.enabled) {
      continue;
    }
    const auto pass_start = std::chrono::steady_clock::now();
    const double start_ms = MsSince(run_start);
    Result<PassOutcome> out = e.pass->Run(ctx);
    if (!out.ok()) {
      detach_pool();
      return Error(StrFormat("pass '%s': %s", e.pass->name(), out.error().c_str()));
    }
    PassStats ps;
    ps.name = e.pass->name();
    ps.items = out.value().items;
    ps.changed = out.value().changed;
    ps.cycles_saved = out.value().cycles_saved;
    ps.wall_ms = MsSince(pass_start);
    ps.start_ms = start_ms;
    stats_.passes.push_back(std::move(ps));
    if (capture_out_ != nullptr && capture_after_ == e.pass->name()) {
      capture_out_->after_pass = capture_after_;
      capture_out_->drop_eliminable = ctx.drop_eliminable;
      capture_out_->plan = ctx.plan;
    }
  }
  stats_.total_ms = MsSince(run_start);
  detach_pool();
  return Status::Ok();
}

// --- telemetry/trace bridges -----------------------------------------------

void AddPipelineTelemetry(const PipelineStats& stats, TelemetryRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  registry->AddCounter("pipeline.runs", 1);
  registry->SetGauge("pipeline.total_ms", stats.total_ms);
  registry->SetGauge("pipeline.jobs", stats.jobs);
  for (const PassStats& p : stats.passes) {
    registry->AddCounter(StrFormat("pipeline.%s.items", p.name.c_str()), p.items);
    registry->AddCounter(StrFormat("pipeline.%s.changed", p.name.c_str()), p.changed);
    if (p.cycles_saved != 0) {
      registry->AddCounter(StrFormat("pipeline.%s.cycles_saved", p.name.c_str()),
                           p.cycles_saved);
    }
    registry->SetGauge(StrFormat("pipeline.%s.wall_ms", p.name.c_str()), p.wall_ms);
  }
}

void AppendPipelineTrace(const PipelineStats& stats, TraceWriter* trace) {
  if (trace == nullptr) {
    return;
  }
  constexpr int kRewriterPid = 2;
  constexpr int kRewriterTid = 1;
  trace->SetProcessName(kRewriterPid, "rewriter");
  trace->SetThreadName(kRewriterPid, kRewriterTid, "pipeline");
  for (const PassStats& p : stats.passes) {
    trace->Complete(p.name, "pass", kRewriterPid, kRewriterTid, p.start_ms * 1000.0,
                    p.wall_ms * 1000.0,
                    {TraceArg{"items", p.items}, TraceArg{"changed", p.changed},
                     TraceArg{"cycles_saved", p.cycles_saved}});
  }
}

}  // namespace redfat
