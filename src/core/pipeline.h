// The hardening pass pipeline: an explicit, observable pass manager for the
// disassemble → analyze → plan → codegen → patch sequence that RedFatTool
// used to hard-wire.
//
// Every stage is a named Pass over a shared PipelineContext:
//
//   disasm     linear-sweep disassembly of the text section
//   cfg        conservative jump-target / basic-block recovery
//   classify   per-operand classification (operand classes analysis)
//   eliminate  check elimination (§6)            [disabled = "unoptimized"]
//   group      site policy + singleton trampoline formation
//   tier       profile-guided check tiering      [disabled without --profile]
//   batch      check batching (§6)               [disabled = "+elim" column]
//   merge      check merging (§6)                [disabled = "+batch" column]
//   liveness   clobber analysis for every trampoline leader
//   codegen    trampoline span planning + code emission
//   patch      text patching + output image assembly
//
// A paper ablation column is a pipeline with a pass disabled
// (Pipeline::SetEnabled), not a flag threaded through the driver. Each
// executed pass records a PassStats block (items, changed, wall time, and a
// static cycles-saved estimate for the optimization passes). A run is
// serial, on the calling thread; concurrent runs on distinct contexts share
// nothing, which is how batch mode and redfatd rewrite several images at
// once.
//
// Analyses (decoded instructions, CFG, operand classes, per-instruction
// clobber info) live in an AnalysisCache so later passes and external
// consumers reuse instead of recompute.
#ifndef REDFAT_SRC_CORE_PIPELINE_H_
#define REDFAT_SRC_CORE_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bin/image.h"
#include "src/core/options.h"
#include "src/core/plan.h"
#include "src/rw/liveness.h"
#include "src/rw/rewriter.h"
#include "src/support/result.h"

namespace redfat {

struct ResolvedPolicy;  // core/policy.h

// --- observability ---------------------------------------------------------

struct PassStats {
  std::string name;
  size_t items = 0;            // units the pass looked at (insns, sites, spans)
  size_t changed = 0;          // units it altered (eliminated, batched, merged)
  double wall_ms = 0.0;        // wall-clock time of the pass
  // Static estimate of execution cycles the pass saves per visit of the
  // affected sites (optimization passes only; see pipeline.cc for the
  // per-check constants). An observability aid, not a measurement.
  uint64_t cycles_saved = 0;
  // Offset of the pass's start from the pipeline run's start. Together with
  // wall_ms this places the pass on a timeline (the `--trace` pipeline
  // track). Serialized last so PR-1-era consumers, which ignore unknown
  // numeric keys, still parse the JSON.
  double start_ms = 0.0;
};

struct PipelineStats {
  // Threads the run used: always 1, as every pass is serial. Kept so the
  // `--stats` JSON and the `pipeline.jobs` gauge keep their keys.
  unsigned jobs = 1;
  double total_ms = 0.0;
  std::vector<PassStats> passes;  // executed passes, in run order

  const PassStats* Find(const std::string& name) const;
  // Machine-readable single-line JSON (the `redfat --stats` format).
  std::string ToJson() const;
};

// Parses the ToJson() format back through the shared JsonReader (benches
// and the golden test consume `--stats` output this way). Counts are exact
// unsigned integers; unknown top-level keys are errors, unknown numeric keys
// in a pass object are ignored for forward compatibility.
Result<PipelineStats> PipelineStatsFromJson(const std::string& json);

class TelemetryRegistry;
class TraceWriter;

// Publishes a run's pipeline stats into the unified telemetry registry:
// counters "pipeline.<pass>.items"/".changed"/".cycles_saved" and gauges
// "pipeline.total_ms"/"pipeline.<pass>.wall_ms".
void AddPipelineTelemetry(const PipelineStats& stats, TelemetryRegistry* registry);

// Appends one trace slice per executed pass (pid 2 "rewriter", wall-clock
// timebase) so a `--trace` file shows the rewrite timeline next to the
// guest-execution track.
void AppendPipelineTrace(const PipelineStats& stats, TraceWriter* trace);

// --- analyses --------------------------------------------------------------

// Shared per-image analysis results. Disassembly/CFG are computed on demand
// and cached; operand classes are deposited by the classify pass; clobber
// info is memoised per instruction index (PrecomputeClobbers fills many
// entries with one backward walk per basic block).
class AnalysisCache {
 public:
  explicit AnalysisCache(const BinaryImage& image) : image_(image) {}

  const BinaryImage& image() const { return image_; }

  Status EnsureDisasm();
  bool has_disasm() const { return disasm_.has_value(); }
  const Disassembly& disasm() const;

  Status EnsureCfg();  // implies EnsureDisasm
  bool has_cfg() const { return cfg_.has_value(); }
  const CfgInfo& cfg() const;

  void set_operand_classes(std::vector<OperandClass> classes);
  const std::vector<OperandClass>* operand_classes() const;

  // Clobber info for the instruction at `insn_index`; computed and memoised
  // on first use. The returned reference stays valid for the cache's
  // lifetime.
  const ClobberInfo& clobbers(size_t insn_index);
  // Fills the cache for every listed index that is not already cached.
  void PrecomputeClobbers(const std::vector<size_t>& indices);

 private:
  const BinaryImage& image_;
  std::optional<Disassembly> disasm_;
  std::optional<CfgInfo> cfg_;
  std::optional<std::vector<OperandClass>> classes_;
  std::vector<std::optional<ClobberInfo>> clobbers_;  // sized lazily to insns
};

// --- passes ----------------------------------------------------------------

// Everything a pass may read or produce. Later passes consume what earlier
// passes deposited (declared per pass in pipeline.cc); the pipeline runs
// them in registration order.
struct PipelineContext {
  PipelineContext(const BinaryImage& input, const RedFatOptions& options,
                  const AllowList* allow_list)
      : opts(options), allow(allow_list), cache(input) {}

  RedFatOptions opts;
  const AllowList* allow = nullptr;
  AnalysisCache cache;

  // Planning state.
  bool drop_eliminable = false;       // set by the eliminate pass
  InstrumentPlan plan;

  // Rewriting state. `tramp_code.starts` is parallel to `spans` (hot-tier
  // spans last) and covers every span regardless of which blob its code
  // landed in; `inline_code` holds the hot-tier blob (empty without a tiering
  // profile). The patch pass moves both blobs' bytes into `output`.
  std::vector<SpanPlan> spans;
  TrampolineCode tramp_code;
  TrampolineCode inline_code;
  RewriteStats rewrite_stats;
  BinaryImage output;
};

// What a pass reports back to the pipeline (timing is measured outside).
struct PassOutcome {
  size_t items = 0;
  size_t changed = 0;
  uint64_t cycles_saved = 0;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual Result<PassOutcome> Run(PipelineContext& ctx) = 0;
};

// --- checkpoints -----------------------------------------------------------

// A resumable snapshot of the planning state between two passes. A server
// that has already paid the analysis front half (disasm .. group) for an
// image captures one right after the group pass; a later profile upload
// restores it into the same context and re-enters the pipeline at the tier
// pass (RunFrom), skipping disassembly/CFG/classification entirely. The
// snapshot holds exactly the context state the front half owns: the plan
// (sites + singleton trampolines + stats so far) and the eliminate flag.
// The AnalysisCache itself is not snapshotted — downstream passes only read
// it (clobber memoisation is monotonic and deterministic), so the live
// cache in the retained context is reused as-is.
struct PipelineCheckpoint {
  std::string after_pass;         // pass the snapshot was taken after
  bool drop_eliminable = false;   // PipelineContext::drop_eliminable
  InstrumentPlan plan;            // deep copy of PipelineContext::plan

  bool valid() const { return !after_pass.empty(); }
};

// Restores a checkpoint into `ctx`: plan and eliminate flag come back from
// the snapshot, and all downstream (rewriting) state is reset so the back
// half of the pipeline starts clean. The context must be the one the
// checkpoint was captured from (same image, same analysis cache).
void RestoreCheckpoint(const PipelineCheckpoint& cp, PipelineContext& ctx);

// --- the pipeline ----------------------------------------------------------

class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  // The standard hardening pipeline for `opts`: all passes registered, with
  // eliminate/batch/merge pre-disabled according to the option flags (and
  // merge always disabled in profiling mode, which needs per-site
  // attribution).
  static Pipeline Hardening(const RedFatOptions& opts);
  // Policy form: pass configuration derived from a resolved hardening
  // policy's rewrite knobs (core/policy.h) — the subsystems never
  // re-decide what the policy already settled.
  static Pipeline Hardening(const ResolvedPolicy& policy);

  Pipeline& Add(std::unique_ptr<Pass> pass);

  // Registered pass names, in run order (including disabled passes).
  std::vector<std::string> PassNames() const;
  // Enables/disables a registered pass; returns false for unknown names.
  bool SetEnabled(const std::string& name, bool enabled);
  bool IsEnabled(const std::string& name) const;

  // Runs all enabled passes in order, collecting per-pass stats. On error
  // the pipeline stops at the failing pass.
  Status Run(PipelineContext& ctx);

  // Runs only the passes at and after `first_pass` (still honoring enabled
  // flags). The context must carry the upstream state those passes expect —
  // normally restored from a PipelineCheckpoint captured by an earlier full
  // Run. Unknown pass names are an error.
  Status RunFrom(PipelineContext& ctx, const std::string& first_pass);

  // Arms checkpoint capture: the next Run() copies the planning state into
  // `*out` right after the named pass executes (pass nullptr to disarm).
  // The capture is a deep copy; `*out` must outlive the run.
  void CaptureAfter(const std::string& pass_name, PipelineCheckpoint* out);

  // Stats of the last Run.
  const PipelineStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::unique_ptr<Pass> pass;
    bool enabled = true;
  };
  Status RunRange(PipelineContext& ctx, size_t first_index);

  std::vector<Entry> passes_;
  PipelineStats stats_;
  std::string capture_after_;
  PipelineCheckpoint* capture_out_ = nullptr;
};

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_PIPELINE_H_
