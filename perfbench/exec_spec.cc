// exec-spec: the paper's Table 1 flow (Fig. 5) on all 29 SPEC-like
// programs, sinks off. Per program: profile build -> train run
// (Policy::kLog) -> BuildAllowList -> `extensive` rewrite -> ref runs of
// the baseline and the hardened image. VM dispatch does almost all of the
// work; the rewriter is a few percent.
#include <algorithm>
#include <cmath>

#include "src/core/policy.h"
#include "src/support/check.h"
#include "src/workloads/spec.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace redfat;

class ExecSpec : public Workload {
 public:
  ExecSpec() {
    HardeningPolicy policy;
    policy.tier = HardenTier::kExtensive;
    Result<ResolvedPolicy> r = policy.Resolve();
    REDFAT_CHECK(r.ok());
    policy_ = r.value();
  }

  void Setup(uint64_t seed, VmTotals* /*vm*/) override {
    const std::vector<SpecBenchmark>& suite = SpecSuite();
    images_.assign(suite.size(), BinaryImage());
    const double t0 = NowMs();
    ParallelFor(suite.size(), [&](size_t i, unsigned /*worker*/) {
      SpecBenchmark mixed = suite[i];
      mixed.params.seed = MixSeed(mixed.params.seed, seed);
      images_[i] = BuildSpecBenchmark(mixed);
    });
    gen_ms_ = NowMs() - t0;
  }

  // A seed changes the generated program and with it the guest work per
  // iteration. Iteration counts are rescaled so that each program does its
  // suite program's guest work, and wall time compares across seeds.
  void Prepare() override {
    const std::vector<SpecBenchmark>& suite = SpecSuite();
    plans_.assign(suite.size(), Plan());
    ParallelFor(suite.size(), [&](size_t i, unsigned /*worker*/) {
      const uint64_t suite_insns = SuiteCalibrationInstructions(i);
      const double scale = static_cast<double>(suite_insns) /
                           static_cast<double>(CalibrationInstructions(images_[i]));
      plans_[i] = Plan{Scaled(suite[i].train_iters, scale), Scaled(suite[i].ref_iters, scale),
                       suite[i].ref_iters * suite_insns};
    });
    // Longest first, so the workers finish together.
    order_.resize(suite.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = i;
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [this](size_t a, size_t b) { return plans_[a].work > plans_[b].work; });
  }

  double gen_ms() const override { return gen_ms_; }

  size_t Pass(PassContext& ctx) override {
    overhead_.assign(order_.size(), 0.0);
    growth_.assign(order_.size(), 0.0);
    RunOps(ctx, order_.size(), [this](size_t i, PassContext& c) { RunProgram(order_[i], c); });
    return order_.size();
  }

  void Finish(Checker* /*checker*/, MetricSink* e2e) override {
    e2e->Set("overhead_x", Geomean(overhead_));
    e2e->Set("image_growth_x", Geomean(growth_));
  }

 private:
  // The Fig. 5 flow of suite program i; thread-safe for distinct i.
  void RunProgram(size_t i, PassContext& ctx) {
    const std::string& name = SpecSuite()[i].name;
    const BinaryImage& image = images_[i];
    const Plan& p = plans_[i];
    const double t_op = NowMs();
    InstrumentResult prof;
    if (!Instrument(ctx, RedFatTool(RedFatOptions::Profile()), image, nullptr, &prof)) {
      return;
    }
    RunConfig train;
    train.inputs = TrainInputs(p.train_iters);
    train.policy = Policy::kLog;
    const RunOutcome trained = Run(ctx, prof.image, RuntimeKind::kRedFat, train);
    ctx.checker->Expect(trained.result.reason == HaltReason::kExit,
                        name + ": train run halted unexpectedly");
    AllowList allow;
    {
      Tracer::Scope span(ctx.tracer, Layer::kProfile, "profile.allowlist");
      allow = BuildAllowList(trained.prof_counts, prof.sites);
    }
    const double t_rw = NowMs();
    InstrumentResult hard;
    if (!Instrument(ctx, RedFatTool(policy_), image, &allow, &hard)) {
      return;
    }
    if (ctx.rewrite_ms != nullptr) {
      ctx.rewrite_ms->push_back(NowMs() - t_rw);
    }
    RunConfig ref;
    ref.inputs = RefInputs(p.ref_iters);
    ref.policy = Policy::kLog;  // latent real bugs log and continue
    const RunOutcome base = Run(ctx, image, RuntimeKind::kBaseline, ref);
    ref.rheap = policy_.rheap;
    const RunOutcome hardened = Run(ctx, hard.image, policy_.runtime, ref);
    {
      Tracer::Scope span(ctx.tracer, Layer::kCheck);
      ctx.checker->Expect(base.result.reason == HaltReason::kExit &&
                              hardened.result.reason == HaltReason::kExit,
                          name + ": ref run halted unexpectedly");
      ctx.checker->Expect(hardened.outputs == Expected(ctx, base.outputs),
                          name + ": hardened output differs from baseline");
    }
    overhead_[i] = static_cast<double>(hardened.result.cycles) /
                   static_cast<double>(base.result.cycles);
    growth_[i] = static_cast<double>(hard.image.TotalBytes()) /
                 static_cast<double>(image.TotalBytes());
    if (ctx.op_ms != nullptr) {
      ctx.op_ms->push_back(NowMs() - t_op);
    }
  }

  static constexpr uint64_t kCalibrationIters = 50;

  static uint64_t CalibrationInstructions(const BinaryImage& image) {
    RunConfig cfg;
    cfg.inputs = RefInputs(kCalibrationIters);
    cfg.policy = Policy::kLog;
    const RunOutcome out = RunImage(image, RuntimeKind::kBaseline, cfg);
    REDFAT_CHECK(out.result.reason == HaltReason::kExit);
    return out.result.instructions;
  }

  // The calibration of the unmixed suite program i, which no seed changes:
  // made once per process. Thread-safe for distinct i.
  static uint64_t SuiteCalibrationInstructions(size_t i) {
    static std::vector<uint64_t> cache(SpecSuite().size(), 0);
    if (cache[i] == 0) {
      cache[i] = CalibrationInstructions(BuildSpecBenchmark(SpecSuite()[i]));
    }
    return cache[i];
  }

  static uint64_t Scaled(uint64_t iters, double scale) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(iters * scale)));
  }

  // Per suite program: rescaled iteration counts, and a measure proportional
  // to the suite program's baseline ref-run guest work (for ordering).
  struct Plan {
    uint64_t train_iters = 0;
    uint64_t ref_iters = 0;
    uint64_t work = 0;
  };

  ResolvedPolicy policy_;
  std::vector<BinaryImage> images_;  // per suite program, seed-mixed
  std::vector<Plan> plans_;
  std::vector<size_t> order_;  // suite indices, longest first
  double gen_ms_ = 0;
  std::vector<double> overhead_;
  std::vector<double> growth_;
};

}  // namespace

std::unique_ptr<Workload> MakeExecSpec() { return std::make_unique<ExecSpec>(); }

}  // namespace perfbench
