// The RedFat tool driver: stripped binary in, hardened binary out.
//
// Mirrors the paper's command-line tool. Instrument() is a thin
// configuration of the pass pipeline (core/pipeline.h): it builds
// Pipeline::Hardening(opts) — which disables the eliminate/batch/merge
// passes per the option flags — runs it over the input image, and unpacks
// the context. The two-phase workflow of Fig. 5 is:
//
//   RedFatTool prof(RedFatOptions::Profile());
//   auto test_binary = prof.Instrument(input);            // step 1
//   ... run test_binary against a test suite (Policy::kLog) ...
//   AllowList allow = BuildAllowList(vm.prof_counts(), test_binary.sites);
//   RedFatTool tool(options);
//   auto hardened = tool.Instrument(input, &allow);       // step 2
#ifndef REDFAT_SRC_CORE_REDFAT_H_
#define REDFAT_SRC_CORE_REDFAT_H_

#include <unordered_map>

#include "src/bin/image.h"
#include "src/core/options.h"
#include "src/core/pipeline.h"
#include "src/core/plan.h"
#include "src/core/policy.h"
#include "src/rw/rewriter.h"
#include "src/support/result.h"
#include "src/vm/vm.h"

namespace redfat {

struct InstrumentResult {
  BinaryImage image;
  std::vector<SiteRecord> sites;  // indexed by site id
  PlanStats plan_stats;
  RewriteStats rewrite_stats;
  PipelineStats pipeline_stats;   // per-pass items/changed/timings
  // The hardening tier this image was built under (core/policy.h).
  // harden_explicit is true only when the tool was configured through a
  // resolved policy (e.g. --harden=TIER): artifacts like the sitemap record
  // the tier only then, so legacy invocations stay byte-identical.
  HardenTier harden = HardenTier::kExtensive;
  bool harden_explicit = false;
  // The rheap allocator feature list the image was configured for; recorded
  // in the sitemap ("# rheap: <list>") only when rheap_explicit, i.e. the
  // user passed --rheap (tier defaults need no header — rfrun re-derives
  // them from the tier).
  RheapOptions rheap;
  bool rheap_explicit = false;
};

class RedFatTool {
 public:
  explicit RedFatTool(RedFatOptions opts);
  // Policy form: the rewrite knobs come from a resolved hardening policy
  // and the result records the tier (--harden=TIER flows through here).
  explicit RedFatTool(const ResolvedPolicy& policy);

  // Instruments `input`. With an allow-list, only listed sites receive the
  // full (Redzone)+(LowFat) check; without one, every eligible site does
  // ("full-on" mode, used to measure false positives). Runs on the calling
  // thread; calls on distinct images may run concurrently.
  Result<InstrumentResult> Instrument(const BinaryImage& input,
                                      const AllowList* allow = nullptr) const;

  const RedFatOptions& options() const { return opts_; }
  HardenTier harden() const { return harden_; }

 private:
  RedFatOptions opts_;
  HardenTier harden_ = HardenTier::kExtensive;
  bool harden_explicit_ = false;
  RheapOptions rheap_;
  bool rheap_explicit_ = false;
};

// Fig. 5 step 1 output -> allow-list: full-check sites that were observed
// at least once and never failed the (LowFat) component.
AllowList BuildAllowList(const std::unordered_map<uint32_t, Vm::ProfCounts>& prof_counts,
                         const std::vector<SiteRecord>& sites);

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_REDFAT_H_
