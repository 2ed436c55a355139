// heap-debug: the `redfat --harden=debug` + `rfrun --harden=debug --metrics
// --error-report` flow on allocation-heavy programs. The debug tier turns
// on every --rheap feature and the ShadowCheckObserver, and every run has a
// TelemetryRegistry and a ForensicRing attached. Allocator hostcalls, the
// per-instruction observer path and the sinks do the work that dispatch
// does in exec-spec; the rewriter's share stays negligible.
//
// Operations, kVariants of each (sub-seeds of the workload seed), largest
// first so the workers finish together: the benign server and churn
// programs (checked against baseline runs made once, untimed, in Prepare,
// which also give overhead_x), churn mode 1 (forged freelist link) and uaf
// mode 1 (use after free), which must halt with a detection.
#include <algorithm>
#include <array>

#include "src/core/forensics_report.h"
#include "src/core/policy.h"
#include "src/dbi/shadow_check.h"
#include "src/heap/forensics.h"
#include "src/support/check.h"
#include "src/support/telemetry.h"
#include "src/workloads/synth.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace redfat;

constexpr uint64_t kVariants = 3;
constexpr uint64_t kServerRequests = 1500;
constexpr uint64_t kChurnOps = 6000;

class HeapDebug : public Workload {
 public:
  HeapDebug() {
    HardeningPolicy policy;
    policy.tier = HardenTier::kDebug;
    Result<ResolvedPolicy> r = policy.Resolve();
    REDFAT_CHECK(r.ok());
    policy_ = r.value();
  }

  void Setup(uint64_t seed, VmTotals* /*vm*/) override {
    // [variant]: server, churn, uaf.
    std::vector<std::array<BinaryImage, 3>> images(kVariants);
    const double t0 = NowMs();
    ParallelFor(kVariants * 3, [&](size_t i, unsigned /*worker*/) {
      const uint64_t v = i / 3;
      BinaryImage& out = images[v][i % 3];
      if (i % 3 == 0) {
        ServerParams sp;
        sp.seed = MixSeed(sp.seed + v, seed);
        out = GenerateServerProgram(sp);
      } else if (i % 3 == 1) {
        ChurnParams cp;
        cp.seed = MixSeed(cp.seed + v, seed);
        out = GenerateChurnProgram(cp);
      } else {
        UafParams up;
        up.seed = MixSeed(up.seed + v, seed);
        out = GenerateUafProgram(up);
      }
    });
    gen_ms_ = NowMs() - t0;
    ops_.clear();
    for (uint64_t v = 0; v < kVariants; ++v) {
      ops_.push_back(Op{"server", images[v][0], {kServerRequests}, false});
    }
    for (uint64_t v = 0; v < kVariants; ++v) {
      ops_.push_back(Op{"churn", images[v][1], {kChurnOps, 0}, false});
      ops_.push_back(Op{"churn-forged-link", images[v][1], {kChurnOps, 1}, true});
    }
    for (uint64_t v = 0; v < kVariants; ++v) {
      ops_.push_back(Op{"uaf", images[v][2], {1}, true});
    }
  }

  // Baseline runs of the benign programs: the expected outputs and the
  // overhead base.
  void Prepare() override {
    baselines_.assign(ops_.size(), RunOutcome());
    ParallelFor(ops_.size(), [this](size_t i, unsigned /*worker*/) {
      if (!ops_[i].expect_detection) {
        RunConfig cfg;
        cfg.inputs = ops_[i].inputs;
        baselines_[i] = RunImage(ops_[i].image, RuntimeKind::kBaseline, cfg);
        REDFAT_CHECK(baselines_[i].result.reason == HaltReason::kExit);
      }
    });
  }

  double gen_ms() const override { return gen_ms_; }

  size_t Pass(PassContext& ctx) override {
    overhead_.assign(ops_.size(), 0.0);
    growth_.assign(ops_.size(), 0.0);
    RunOps(ctx, ops_.size(), [this](size_t i, PassContext& c) { RunOp(i, c); });
    return ops_.size();
  }

  void Finish(Checker* /*checker*/, MetricSink* e2e) override {
    e2e->Set("overhead_x", Geomean(overhead_));
    e2e->Set("image_growth_x", Geomean(growth_));
  }

  // Each debug run again with the sinks attached and detached; the
  // difference, less the forensic ring's own measured time, is the sinks'
  // in-VM cost (per-site counters, histograms, live-object tracking).
  double SinkMsPerPass() override {
    const RedFatTool hardener(policy_);
    double total = 0;
    for (const Op& op : ops_) {
      Result<InstrumentResult> hard = hardener.Instrument(op.image);
      REDFAT_CHECK(hard.ok());
      double with_ms = 1e300;
      double without_ms = 1e300;
      double ring_ms = 0;
      for (int rep = 0; rep < 3; ++rep) {
        TelemetryRegistry telemetry;
        ForensicRing ring;
        ShadowCheckObserver observer;
        Tracer with;
        VmLayerStats s;
        double t0 = NowMs();
        TracedRunImage(hard.value().image, policy_.runtime,
                       DebugConfig(op, hard.value(), &telemetry, &ring, &observer), &with,
                       &s);
        if (NowMs() - t0 < with_ms) {
          with_ms = NowMs() - t0;
          ring_ms = with.self_ms()[static_cast<size_t>(Layer::kForensics)];
        }
        ShadowCheckObserver bare_observer;
        Tracer without;
        t0 = NowMs();
        TracedRunImage(hard.value().image, policy_.runtime,
                       DebugConfig(op, hard.value(), nullptr, nullptr, &bare_observer),
                       &without, &s);
        without_ms = std::min(without_ms, NowMs() - t0);
      }
      total += std::max(0.0, with_ms - without_ms - ring_ms);
    }
    return total / Workers();  // on the per-worker timeline of the other layers
  }

 private:
  struct Op {
    std::string name;
    BinaryImage image;
    std::vector<uint64_t> inputs;
    bool expect_detection = false;
  };

  // Rewrite, debug-tier run and sink export of op i; thread-safe for
  // distinct i.
  void RunOp(size_t i, PassContext& ctx) {
    const Op& op = ops_[i];
    const double t_op = NowMs();
    InstrumentResult hard;
    if (!Instrument(ctx, RedFatTool(policy_), op.image, nullptr, &hard)) {
      return;
    }
    if (ctx.rewrite_ms != nullptr) {
      ctx.rewrite_ms->push_back(NowMs() - t_op);
    }
    TelemetryRegistry telemetry;
    ForensicRing ring;
    ShadowCheckObserver observer;
    const RunOutcome out =
        Run(ctx, hard.image, policy_.runtime, DebugConfig(op, hard, &telemetry, &ring, &observer));
    {
      // What rfrun --metrics --error-report writes.
      Tracer::Scope span(ctx.tracer, Layer::kTelemetry, "telemetry.export");
      const std::string metrics = telemetry.Snapshot().ToJson();
      const std::string report = ForensicReportsToJson(out.forensic_reports, ring);
      ctx.checker->Expect(!metrics.empty() && !report.empty(), op.name + ": empty sink output");
    }
    if (ctx.layers != nullptr) {
      ctx.layers->Add("dbi.checks", static_cast<double>(observer.checks()));
    }
    {
      Tracer::Scope span(ctx.tracer, Layer::kCheck);
      if (op.expect_detection) {
        ctx.checker->Expect(out.result.reason == HaltReason::kMemErrorAbort &&
                                !out.forensic_reports.empty(),
                            op.name + ": expected detection missing");
      } else {
        ctx.checker->Expect(out.result.reason == HaltReason::kExit && out.errors.empty(),
                            op.name + ": run halted unexpectedly");
        ctx.checker->Expect(out.outputs == Expected(ctx, baselines_[i].outputs),
                            op.name + ": hardened output differs from baseline");
        overhead_[i] = static_cast<double>(out.result.cycles) /
                       static_cast<double>(baselines_[i].result.cycles);
        growth_[i] = static_cast<double>(hard.image.TotalBytes()) /
                     static_cast<double>(op.image.TotalBytes());
      }
    }
    if (ctx.op_ms != nullptr) {
      ctx.op_ms->push_back(NowMs() - t_op);
    }
  }

  RunConfig DebugConfig(const Op& op, const InstrumentResult& hard,
                        TelemetryRegistry* telemetry, ForensicRing* ring,
                        ShadowCheckObserver* observer) const {
    RunConfig cfg;
    cfg.inputs = op.inputs;
    cfg.rheap = policy_.rheap;
    cfg.observer = observer;
    cfg.telemetry = telemetry;
    cfg.forensics = ring;
    if (ring != nullptr) {
      cfg.forensic_tier = HardenTierName(policy_.tier);
      cfg.image_sites.push_back(&hard.sites);
    }
    return cfg;
  }

  ResolvedPolicy policy_;
  std::vector<Op> ops_;
  std::vector<RunOutcome> baselines_;  // per op; benign programs only
  double gen_ms_ = 0;
  std::vector<double> overhead_;
  std::vector<double> growth_;
};

}  // namespace

std::unique_ptr<Workload> MakeHeapDebug() { return std::make_unique<HeapDebug>(); }

}  // namespace perfbench
