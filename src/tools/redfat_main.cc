// redfat — the hardening tool CLI (models the paper's `redfat` command).
//
//   redfat [options] input.rfbin output.rfbin
//   redfat [options] --output-dir DIR input.rfbin [input2.rfbin ...]
//
// The second form is batch mode: every input is instrumented, up to --jobs
// images at once (each on one thread), and written to DIR under its own
// basename. Outputs do not depend on --jobs. An input
// may carry a per-image trampoline base as `path:0xADDR` so separately
// instrumented shared objects (§7.4) land at non-overlapping addresses.
// --stats/--metrics/--trace/--sitemap emit one file per image with the
// image's stem inserted before the extension (stats.json -> stats.foo.json).
//
// A third form aggregates telemetry snapshots from several runs into one
// profile for `--profile=FILE` (counters summed per site):
//
//   redfat --merge-metrics out.json a.json b.json ...
//
// Options:
//   --harden=TIER          hardening policy tier: none|fast|extensive|debug
//                          (core/policy.h). fast = lowfat-only inline
//                          checks; extensive = redzone+lowfat, the default,
//                          byte-identical to no --harden flag; debug =
//                          extensive checks over the debug runtime (run the
//                          output under `rfrun --harden=debug`). Legacy
//                          flags below map onto policy overrides;
//                          contradictory combinations (--harden=fast
//                          --shadow, --harden=debug --no-lowfat, ...) are
//                          rejected with a diagnostic.
//   --rheap=LIST           allocator hardening features the output expects
//                          at runtime: a comma list of prot-freelist,
//                          guard-memcpy, random, quarantine=N, or `none`
//                          (heap/rheap.h). Validated here and recorded in
//                          the --sitemap header ("# rheap: <list>") so
//                          `rfrun` picks the list up without re-passing the
//                          flag; without --rheap the --harden tier's
//                          defaults apply and no header is emitted.
//   --profile              emit profiling instrumentation (Fig. 5, step 1)
//   --profile=FILE         tier checks using a prior run's --metrics
//                          snapshot: hot sites get inline checks, every
//                          other site stays as untiered (see
//                          --hot-threshold)
//   --profile-sitemap FILE site map saved with the profiled build; joins
//                          profile site ids by address so a profile from a
//                          differently-planned build is ignored rather
//                          than mis-applied
//   --hot-threshold=F      fraction in [0, 1] of profiled trampoline cycles
//                          the hot tier must cover (default 0.9)
//   --allowlist FILE       allow-list file: one hex site address per line;
//                          entries that name no check site of the input
//                          are counted on stderr
//   --profile-data FILE    build the allow-list from an `rfrun
//                          --profile-dump` file (re-plans the input binary
//                          deterministically to map site ids to addresses)
//   --no-reads --no-size --no-lowfat            check content toggles
//   --no-elim --no-batch --no-merge             optimization toggles
//   --shadow               ASAN-style shadow redzones (ablation; run the
//                          output under `rfrun --runtime=redfat-shadow`)
//   --jobs=N               batch mode: rewrite up to N images at once (0 =
//                          one per hardware thread; default 1). A single
//                          rewrite always runs on one thread.
//   --time-passes          per-pass wall-time report on stderr
//   --stats FILE           machine-readable pipeline stats JSON ('-' =
//                          stdout)
//   --metrics FILE         unified telemetry snapshot JSON of the rewrite
//                          (pipeline counters/gauges; '-' = stdout)
//   --trace FILE           Chrome trace-event JSON of the pass timeline
//                          (load in Perfetto / chrome://tracing)
//   --connect=SOCK         submit the rewrite to a running `redfatd` on the
//                          Unix socket SOCK instead of rewriting in-process.
//                          Transparently falls back to the in-process path
//                          when no daemon answers, or when the invocation
//                          needs local-only artifacts (--stats/--metrics/
//                          --trace/--time-passes, allow-lists, batch mode,
//                          --profile-sitemap, --sitemap with --harden).
//                          Daemon outputs are byte-identical to offline ones.
//   --print-cache-key      print the daemon cache key
//                          (image-hash, options-fp, profile-fp hex triple)
//                          this invocation would be served under, and exit
//   -v                     verbose plan/rewrite statistics
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/core/sitemap.h"
#include "src/serve/client.h"
#include "src/serve/fingerprint.h"
#include "src/serve/service.h"
#include "src/support/parallel.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/tools/tool_io.h"

namespace redfat {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: redfat [--harden=none|fast|extensive|debug]\n"
               "              [--rheap=prot-freelist,guard-memcpy,random,"
               "quarantine=N|none]\n"
               "              [--profile] [--allowlist FILE | --profile-data FILE]\n"
               "              [--profile=METRICS.json] [--profile-sitemap FILE]\n"
               "              [--hot-threshold=F]\n"
               "              [--no-reads] [--no-size] [--no-lowfat] [--sitemap FILE]\n"
               "              [--no-elim] [--no-batch] [--no-merge] [--shadow]\n"
               "              [--jobs=N] [--time-passes] [--stats FILE] [-v]\n"
               "              [--metrics FILE] [--trace FILE]\n"
               "              [--connect=SOCK]\n"
               "              input.rfbin output.rfbin\n"
               "       redfat [options] --output-dir DIR input.rfbin[:0xBASE] ...\n"
               "       redfat --merge-metrics out.json a.json b.json ...\n"
               "       redfat [options] --print-cache-key input.rfbin\n");
  return 2;
}

// Batch-mode input: a path, optionally suffixed `:0xADDR` to override the
// image's trampoline base (needed when several instrumented images share one
// address space).
struct InputSpec {
  std::string path;
  uint64_t trampoline_base = 0;  // 0 = keep the configured default
};

InputSpec ParseInputSpec(const std::string& arg) {
  InputSpec spec;
  spec.path = arg;
  const size_t colon = arg.rfind(':');
  if (colon != std::string::npos) {
    const std::string suffix = arg.substr(colon + 1);
    if (suffix.rfind("0x", 0) == 0 || suffix.rfind("0X", 0) == 0) {
      char* end = nullptr;
      const unsigned long long base = std::strtoull(suffix.c_str(), &end, 16);
      if (end != suffix.c_str() + 2 && *end == '\0' && base != 0) {
        spec.path = arg.substr(0, colon);
        spec.trampoline_base = base;
      }
    }
  }
  return spec;
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string Stem(const std::string& name) {
  const size_t dot = name.find_last_of('.');
  return dot == std::string::npos || dot == 0 ? name : name.substr(0, dot);
}

// Per-image artifact path: inserts the image stem before the artifact's
// extension ("stats.json" + "foo" -> "stats.foo.json"). "-" (stdout) is kept
// as-is; batch emission is serial, so stdout output is merely concatenated.
std::string PerImagePath(const std::string& base, const std::string& stem) {
  if (base == "-") {
    return base;
  }
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "." + stem;
  }
  return base.substr(0, dot) + "." + stem + base.substr(dot);
}

// Reads all of `text` as a number in [0, 1] into *out. Otherwise prints
// why to stderr and returns false (redfat then exits 2, like a bad --jobs).
bool ParseFraction(const std::string& text, double* out) {
  char* end = nullptr;
  const double f = std::strtod(text.c_str(), &end);
  // Written so that NaN, which compares false with everything, fails too.
  if (text.empty() || *end != '\0' || !(f >= 0.0 && f <= 1.0)) {
    std::fprintf(stderr, "redfat: --hot-threshold must be a number in [0, 1], got '%s'\n",
                 text.c_str());
    return false;
  }
  *out = f;
  return true;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Error(bytes.error());
  }
  return std::string(bytes.value().begin(), bytes.value().end());
}

// `redfat --merge-metrics out.json a.json b.json ...`: sums per-site
// counters across several runs' --metrics snapshots into one profile.
int MergeMetricsMain(const std::vector<std::string>& paths) {
  if (paths.size() < 2) {
    return Usage();
  }
  std::vector<TelemetrySnapshot> snaps;
  for (size_t i = 1; i < paths.size(); ++i) {
    Result<std::string> text = ReadWholeFile(paths[i]);
    if (!text.ok()) {
      std::fprintf(stderr, "redfat: %s\n", text.error().c_str());
      return 1;
    }
    Result<TelemetrySnapshot> snap = TelemetrySnapshotFromJson(text.value());
    if (!snap.ok()) {
      std::fprintf(stderr, "redfat: %s: %s\n", paths[i].c_str(), snap.error().c_str());
      return 1;
    }
    snaps.push_back(std::move(snap).value());
  }
  const TelemetrySnapshot merged = MergeTelemetrySnapshots(snaps);
  const Status s = WriteTextFile(paths[0], merged.ToJson() + "\n");
  if (!s.ok()) {
    std::fprintf(stderr, "redfat: %s\n", s.error().c_str());
    return 1;
  }
  return 0;
}

// Loads a --metrics snapshot into the tier pass's input through the same
// conversion a redfatd profile upload uses.
Result<TierProfile> TierProfileFromMetrics(const std::string& path) {
  Result<std::string> text = ReadWholeFile(path);
  if (!text.ok()) {
    return Error(text.error());
  }
  Result<TierProfile> profile = TierProfileFromSnapshotJson(text.value());
  if (!profile.ok()) {
    return Error(StrFormat("%s: %s", path.c_str(), profile.error().c_str()));
  }
  return profile;
}

Error MalformedLine(const std::string& path, size_t index, const std::string& line,
                    const char* want) {
  return Error(StrFormat("%s:%zu: malformed line '%s' (want %s)", path.c_str(), index + 1,
                         line.c_str(), want));
}

Result<AllowList> AllowListFromFile(const std::string& path) {
  Result<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.ok()) {
    return Error(lines.error());
  }
  AllowList allow;
  for (size_t i = 0; i < lines.value().size(); ++i) {
    const std::string& line = lines.value()[i];
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const char* p = line.c_str();
    unsigned long long addr = 0;
    if (!TakeUnsigned(&p, 16, &addr) || *p != '\0') {
      return MalformedLine(path, i, line, "a site address");
    }
    allow.addrs.insert(addr);
  }
  return allow;
}

// Rebuilds the profiling plan for `input` (deterministic) and converts an
// rfrun profile dump ("<site> <passes> <fails>" lines) into an allow-list.
Result<AllowList> AllowListFromProfileData(const BinaryImage& input, const std::string& path) {
  RedFatTool prof(RedFatOptions::Profile());
  Result<InstrumentResult> ir = prof.Instrument(input);
  if (!ir.ok()) {
    return Error(ir.error());
  }
  Result<std::vector<std::string>> lines = ReadLines(path);
  if (!lines.ok()) {
    return Error(lines.error());
  }
  std::unordered_map<uint32_t, Vm::ProfCounts> counts;
  for (size_t i = 0; i < lines.value().size(); ++i) {
    const std::string& line = lines.value()[i];
    const char* p = line.c_str();
    unsigned long long site = 0;
    unsigned long long passes = 0;
    unsigned long long fails = 0;
    if (!TakeUnsigned(&p, 10, &site) || site > UINT32_MAX || *p++ != ' ' ||
        !TakeUnsigned(&p, 10, &passes) || *p++ != ' ' || !TakeUnsigned(&p, 10, &fails) ||
        *p != '\0') {
      return MalformedLine(path, i, line, "\"<site> <passes> <fails>\"");
    }
    counts[static_cast<uint32_t>(site)] = Vm::ProfCounts{passes, fails};
  }
  return BuildAllowList(counts, ir.value().sites);
}

// Emits one image's artifact set (paths are already per-image).
Status EmitArtifacts(const InstrumentResult& out, const std::string& sitemap_path,
                     const std::string& stats_path, const std::string& metrics_path,
                     const std::string& trace_path) {
  if (!sitemap_path.empty()) {
    // The policy headers appear only for explicit --harden/--rheap builds.
    const std::string text =
        SerializeSiteMap(out.sites, out.harden_explicit ? &out.harden : nullptr,
                         out.rheap_explicit ? &out.rheap : nullptr);
    const Status s = WriteFileBytes(sitemap_path,
                                    std::vector<uint8_t>(text.begin(), text.end()));
    if (!s.ok()) {
      return s;
    }
  }
  if (!stats_path.empty()) {
    const Status s = WriteTextFile(stats_path, out.pipeline_stats.ToJson() + "\n");
    if (!s.ok()) {
      return s;
    }
  }
  if (!metrics_path.empty()) {
    TelemetryRegistry reg;
    AddPipelineTelemetry(out.pipeline_stats, &reg);
    const Status s = WriteTextFile(metrics_path, reg.Snapshot().ToJson() + "\n");
    if (!s.ok()) {
      return s;
    }
  }
  if (!trace_path.empty()) {
    TraceWriter trace;
    AppendPipelineTrace(out.pipeline_stats, &trace);
    const Status s = WriteTextFile(trace_path, trace.ToJson() + "\n");
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

void PrintPassTimings(const std::string& label, const PipelineStats& ps) {
  std::fprintf(stderr, "redfat:%s pass timings (%u job%s)\n", label.c_str(), ps.jobs,
               ps.jobs == 1 ? "" : "s");
  std::fprintf(stderr, "  %-10s %10s %10s %10s %14s\n", "pass", "items", "changed",
               "wall(ms)", "cycles-saved");
  for (const PassStats& p : ps.passes) {
    std::fprintf(stderr, "  %-10s %10zu %10zu %10.3f %14llu\n", p.name.c_str(), p.items,
                 p.changed, p.wall_ms, static_cast<unsigned long long>(p.cycles_saved));
  }
  std::fprintf(stderr, "  %-10s %10s %10s %10.3f\n", "total", "", "", ps.total_ms);
}

void PrintVerboseStats(const std::string& label, const InstrumentResult& out) {
  const PlanStats& p = out.plan_stats;
  const RewriteStats& r = out.rewrite_stats;
  std::fprintf(stderr,
               "redfat:%s %zu memory operands, %zu eliminated, %zu full + %zu "
               "redzone-only sites\n"
               "redfat:%s %zu trampolines, %zu checks after merging, %llu trampoline "
               "bytes\n"
               "redfat:%s skipped %zu (jump-target) + %zu (call-span) + %zu "
               "(section-end)\n",
               label.c_str(), p.mem_operands, p.eliminated, p.full_sites, p.redzone_sites,
               label.c_str(), p.trampolines, p.checks_emitted,
               static_cast<unsigned long long>(r.trampoline_bytes), label.c_str(),
               r.skipped_target_conflict, r.skipped_call_span, r.skipped_section_end);
}

int Main(int argc, char** argv) {
  // Everything check-selection-related goes through the policy layer: the
  // legacy flags set overrides, --harden sets the tier, and one Resolve()
  // call produces the concrete knobs (or a conflict diagnostic). Mechanical
  // knobs (mode, jobs, profiles, paths) stay plain locals.
  HardeningPolicy policy;
  RedFatOptions::Mode mode = RedFatOptions::Mode::kProduction;
  uint64_t jobs = 1;
  std::string allow_path;
  std::string profile_data_path;
  std::string tier_profile_path;
  std::string profile_sitemap_path;
  std::string sitemap_path;
  std::string stats_path;
  std::string metrics_path;
  std::string trace_path;
  std::string output_dir;
  std::string connect_path;
  bool print_cache_key = false;
  bool harden_given = false;
  bool merge_metrics = false;
  bool time_passes = false;
  bool verbose = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // --profile=FILE (tiering input) first: bare --profile is Fig. 5's
    // profiling-instrumentation mode, a different feature entirely.
    if (arg.rfind("--profile=", 0) == 0) {
      tier_profile_path = arg.substr(10);
    } else if (arg == "--profile") {
      mode = RedFatOptions::Mode::kProfile;
    } else if (arg.rfind("--harden=", 0) == 0) {
      Result<HardenTier> tier = ParseHardenTier(arg.substr(9));
      if (!tier.ok()) {
        std::fprintf(stderr, "redfat: %s\n", tier.error().c_str());
        return 2;
      }
      policy.tier = tier.value();
      harden_given = true;
    } else if (arg.rfind("--rheap=", 0) == 0) {
      Result<RheapOptions> opts_r = ParseRheapList(arg.substr(8));
      if (!opts_r.ok()) {
        std::fprintf(stderr, "redfat: %s\n", opts_r.error().c_str());
        return 2;
      }
      policy.rheap = opts_r.value();
    } else if (arg == "--profile-sitemap" && i + 1 < argc) {
      profile_sitemap_path = argv[++i];
    } else if (arg.rfind("--profile-sitemap=", 0) == 0) {
      profile_sitemap_path = arg.substr(18);
    } else if (arg.rfind("--hot-threshold=", 0) == 0 ||
               (arg == "--hot-threshold" && i + 1 < argc)) {
      const std::string text = arg == "--hot-threshold" ? argv[++i] : arg.substr(16);
      double f = 0;
      if (!ParseFraction(text, &f)) {
        return 2;
      }
      policy.hot_threshold = f;
    } else if (arg == "--merge-metrics") {
      merge_metrics = true;
    } else if (arg == "--no-reads") {
      policy.check_reads = false;
    } else if (arg == "--no-size") {
      policy.size_hardening = false;
    } else if (arg == "--no-lowfat") {
      policy.lowfat = false;
    } else if (arg == "--no-elim") {
      policy.elim = false;
    } else if (arg == "--no-batch") {
      policy.batch = false;
    } else if (arg == "--no-merge") {
      policy.merge = false;
    } else if (arg == "--shadow") {
      policy.shadow_impl = true;
    } else if (arg.rfind("--jobs=", 0) == 0 || (arg == "--jobs" && i + 1 < argc)) {
      const std::string text = arg == "--jobs" ? argv[++i] : arg.substr(7);
      if (!ParseUnsignedArg("redfat", "--jobs", text, &jobs)) {
        return 2;
      }
    } else if (arg == "--time-passes") {
      time_passes = true;
    } else if (arg == "--stats" && i + 1 < argc) {
      stats_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_path = arg.substr(10);
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (arg == "--print-cache-key") {
      print_cache_key = true;
    } else if (arg == "--output-dir" && i + 1 < argc) {
      output_dir = argv[++i];
    } else if (arg.rfind("--output-dir=", 0) == 0) {
      output_dir = arg.substr(13);
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allow_path = argv[++i];
    } else if (arg == "--profile-data" && i + 1 < argc) {
      profile_data_path = argv[++i];
    } else if (arg == "--sitemap" && i + 1 < argc) {
      sitemap_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (merge_metrics) {
    return MergeMetricsMain(positional);
  }

  // One Resolve() call settles every check-selection knob; a contradictory
  // flag combination dies here with a diagnostic naming both sides.
  Result<ResolvedPolicy> resolved_r = policy.Resolve();
  if (!resolved_r.ok()) {
    std::fprintf(stderr, "redfat: %s\n", resolved_r.error().c_str());
    return 2;
  }
  ResolvedPolicy resolved = std::move(resolved_r).value();
  // Artifacts record the tier only when the user picked one: legacy
  // invocations keep byte-identical outputs.
  resolved.explicit_tier = harden_given;
  // Mechanical knobs ride on the resolved rewrite options.
  resolved.rewrite.mode = mode;
  RedFatOptions& opts = resolved.rewrite;

  if (print_cache_key) {
    // The key the daemon would serve this invocation under: raw file bytes
    // hashed as they would cross the wire, options under the service's
    // normalized fingerprint, profile content hashed separately.
    if (positional.size() != 1) {
      return Usage();
    }
    Result<std::vector<uint8_t>> raw = ReadFileBytes(positional[0]);
    if (!raw.ok()) {
      std::fprintf(stderr, "redfat: %s\n", raw.error().c_str());
      return 1;
    }
    CacheKey key;
    key.image_hash = Fnv1a64(raw.value());
    key.options_fp = CacheOptionsFingerprint(opts);
    if (!tier_profile_path.empty()) {
      Result<TierProfile> p = TierProfileFromMetrics(tier_profile_path);
      if (!p.ok()) {
        std::fprintf(stderr, "redfat: %s\n", p.error().c_str());
        return 1;
      }
      key.profile_fp = TierProfileFingerprint(p.value());
    }
    std::printf("%s\n", key.ToString().c_str());
    return 0;
  }

  if (!connect_path.empty() && output_dir.empty() && positional.size() == 2) {
    // Requests that need local-only artifacts (pipeline stats, traces,
    // allow-lists, profile-sitemap joins, policy-stamped sitemaps) never go
    // to the daemon; everything else does, falling back to the in-process
    // path when no daemon answers.
    const bool local_only = !allow_path.empty() || !profile_data_path.empty() ||
                            !profile_sitemap_path.empty() || !stats_path.empty() ||
                            !metrics_path.empty() || !trace_path.empty() ||
                            time_passes ||
                            (!sitemap_path.empty() &&
                             (harden_given || policy.rheap.has_value()));
    if (!local_only) {
      Result<std::vector<uint8_t>> raw = ReadFileBytes(positional[0]);
      if (!raw.ok()) {
        std::fprintf(stderr, "redfat: %s\n", raw.error().c_str());
        return 1;
      }
      std::string profile_json;
      if (!tier_profile_path.empty()) {
        Result<std::string> text = ReadWholeFile(tier_profile_path);
        if (!text.ok()) {
          std::fprintf(stderr, "redfat: %s\n", text.error().c_str());
          return 1;
        }
        profile_json = std::move(text).value();
      }
      DaemonClient client;
      if (client.Connect(connect_path).ok()) {
        // A daemon that answered owns the request: its errors are surfaced,
        // not silently retried locally (the bytes would be identical anyway).
        Result<DaemonClient::RewriteReply> reply =
            client.Rewrite(raw.value(), opts, profile_json);
        if (!reply.ok()) {
          std::fprintf(stderr, "redfat: %s\n", reply.error().c_str());
          return 1;
        }
        const Status saved = WriteFileBytes(positional[1], reply.value().image_bytes);
        if (!saved.ok()) {
          std::fprintf(stderr, "redfat: %s\n", saved.error().c_str());
          return 1;
        }
        if (!sitemap_path.empty()) {
          const std::string& text = reply.value().sitemap;
          const Status s = WriteFileBytes(
              sitemap_path, std::vector<uint8_t>(text.begin(), text.end()));
          if (!s.ok()) {
            std::fprintf(stderr, "redfat: %s\n", s.error().c_str());
            return 1;
          }
        }
        if (verbose) {
          std::fprintf(stderr, "redfat: served by daemon %s key=%s%s%s\n",
                       connect_path.c_str(), reply.value().key.ToString().c_str(),
                       reply.value().cache_hit ? " (cache hit)" : "",
                       reply.value().incremental_retier ? " (incremental re-tier)" : "");
        }
        return 0;
      }
      if (verbose) {
        std::fprintf(stderr, "redfat: no daemon on %s, rewriting in-process\n",
                     connect_path.c_str());
      }
    }
  }

  if (!output_dir.empty()) {
    // Batch mode: every positional is an input; outputs land in output_dir.
    if (positional.empty()) {
      return Usage();
    }
    if (opts.mode == RedFatOptions::Mode::kProfile || !allow_path.empty() ||
        !profile_data_path.empty() || !tier_profile_path.empty()) {
      std::fprintf(stderr,
                   "redfat: --profile/--allowlist/--profile-data/--profile=FILE are "
                   "single-image only (batch inputs have distinct site-id spaces)\n");
      return 2;
    }

    const size_t n = positional.size();
    std::vector<InputSpec> specs;
    specs.reserve(n);
    std::vector<BinaryImage> inputs(n);
    for (size_t i = 0; i < n; ++i) {
      specs.push_back(ParseInputSpec(positional[i]));
      Result<BinaryImage> img = LoadImageFile(specs[i].path);
      if (!img.ok()) {
        std::fprintf(stderr, "redfat: %s\n", img.error().c_str());
        return 1;
      }
      inputs[i] = std::move(img).value();
    }

    // Whole images run concurrently, each rewrite on one worker thread.
    const unsigned workers = static_cast<unsigned>(
        std::min<uint64_t>(jobs == 0 ? HardwareJobs() : jobs, n));
    std::vector<std::optional<InstrumentResult>> results(n);
    std::vector<std::string> errors(n);
    ParallelFor(n, workers, [&](size_t i) {
      ResolvedPolicy image_policy = resolved;
      if (specs[i].trampoline_base != 0) {
        image_policy.rewrite.trampoline_base = specs[i].trampoline_base;
      }
      RedFatTool tool(image_policy);
      Result<InstrumentResult> r = tool.Instrument(inputs[i]);
      if (r.ok()) {
        results[i] = std::move(r).value();
      } else {
        errors[i] = r.error();
      }
    });

    // Serial emission, input order: deterministic artifact set and readable
    // interleaving on stdout/stderr.
    int rc = 0;
    for (size_t i = 0; i < n; ++i) {
      const std::string name = BaseName(specs[i].path);
      if (!errors[i].empty()) {
        std::fprintf(stderr, "redfat: %s: %s\n", specs[i].path.c_str(),
                     errors[i].c_str());
        rc = 1;
        continue;
      }
      const InstrumentResult& out = *results[i];
      const Status saved = SaveImageFile(output_dir + "/" + name, out.image);
      if (!saved.ok()) {
        std::fprintf(stderr, "redfat: %s: %s\n", specs[i].path.c_str(),
                     saved.error().c_str());
        rc = 1;
        continue;
      }
      const std::string stem = Stem(name);
      const Status emitted = EmitArtifacts(
          out, sitemap_path.empty() ? "" : PerImagePath(sitemap_path, stem),
          stats_path.empty() ? "" : PerImagePath(stats_path, stem),
          metrics_path.empty() ? "" : PerImagePath(metrics_path, stem),
          trace_path.empty() ? "" : PerImagePath(trace_path, stem));
      if (!emitted.ok()) {
        std::fprintf(stderr, "redfat: %s: %s\n", specs[i].path.c_str(),
                     emitted.error().c_str());
        rc = 1;
        continue;
      }
      const std::string label = " " + name + ":";
      if (time_passes) {
        PrintPassTimings(label, out.pipeline_stats);
      }
      if (verbose) {
        PrintVerboseStats(label, out);
      }
    }
    return rc;
  }

  if (positional.size() != 2) {
    return Usage();
  }

  Result<BinaryImage> input = LoadImageFile(positional[0]);
  if (!input.ok()) {
    std::fprintf(stderr, "redfat: %s\n", input.error().c_str());
    return 1;
  }

  AllowList allow;
  const AllowList* allow_ptr = nullptr;
  if (!allow_path.empty()) {
    Result<AllowList> a = AllowListFromFile(allow_path);
    if (!a.ok()) {
      std::fprintf(stderr, "redfat: %s\n", a.error().c_str());
      return 1;
    }
    allow = std::move(a).value();
    allow_ptr = &allow;
  } else if (!profile_data_path.empty()) {
    Result<AllowList> a = AllowListFromProfileData(input.value(), profile_data_path);
    if (!a.ok()) {
      std::fprintf(stderr, "redfat: %s\n", a.error().c_str());
      return 1;
    }
    allow = std::move(a).value();
    allow_ptr = &allow;
  }

  TierProfile tier_profile;
  std::vector<SiteRecord> profile_sites;
  if (!tier_profile_path.empty()) {
    Result<TierProfile> p = TierProfileFromMetrics(tier_profile_path);
    if (!p.ok()) {
      std::fprintf(stderr, "redfat: %s\n", p.error().c_str());
      return 1;
    }
    tier_profile = std::move(p).value();
    if (!profile_sitemap_path.empty()) {
      Result<std::vector<std::string>> lines = ReadLines(profile_sitemap_path);
      if (!lines.ok()) {
        std::fprintf(stderr, "redfat: %s\n", lines.error().c_str());
        return 1;
      }
      Result<std::vector<SiteRecord>> parsed = ParseSiteMap(lines.value());
      if (!parsed.ok()) {
        std::fprintf(stderr, "redfat: %s\n", parsed.error().c_str());
        return 1;
      }
      profile_sites = std::move(parsed).value();
      tier_profile.sitemap = &profile_sites;
    }
    opts.tier_profile = &tier_profile;
  } else if (!profile_sitemap_path.empty()) {
    std::fprintf(stderr, "redfat: --profile-sitemap requires --profile=FILE\n");
    return 2;
  }

  RedFatTool tool(resolved);
  Result<InstrumentResult> out = tool.Instrument(input.value(), allow_ptr);
  if (!out.ok()) {
    std::fprintf(stderr, "redfat: %s\n", out.error().c_str());
    return 1;
  }
  const Status saved = SaveImageFile(positional[1], out.value().image);
  if (!saved.ok()) {
    std::fprintf(stderr, "redfat: %s\n", saved.error().c_str());
    return 1;
  }
  const Status emitted =
      EmitArtifacts(out.value(), sitemap_path, stats_path, metrics_path, trace_path);
  if (!emitted.ok()) {
    std::fprintf(stderr, "redfat: %s\n", emitted.error().c_str());
    return 1;
  }
  if (!allow_path.empty()) {
    // An entry that names no site (stale, or for another binary) gives no
    // site a full check; count them, so a wrong list is not applied silently.
    std::unordered_set<uint64_t> site_addrs;
    for (const SiteRecord& site : out.value().sites) {
      site_addrs.insert(site.addr);
    }
    size_t unmatched = 0;
    for (const uint64_t addr : allow.addrs) {
      unmatched += site_addrs.count(addr) == 0 ? 1 : 0;
    }
    if (unmatched != 0) {
      std::fprintf(stderr, "redfat: allow-list: %zu of %zu entries match no check site\n",
                   unmatched, allow.addrs.size());
    }
  }
  if (time_passes) {
    PrintPassTimings("", out.value().pipeline_stats);
  }
  if (verbose) {
    PrintVerboseStats("", out.value());
    if (allow_ptr != nullptr) {
      std::fprintf(stderr, "redfat: allow-list with %zu entries applied\n",
                   allow.addrs.size());
    }
  }
  return 0;
}

}  // namespace
}  // namespace redfat

int main(int argc, char** argv) { return redfat::Main(argc, argv); }
