// Site-map persistence: the instrumentation site table, saved alongside a
// hardened binary so runtime error reports can be symbolized (real RedFat
// logs the faulting check's details; our stripped RFBIN files carry no
// metadata, so the tool writes it out-of-band).
//
// Text format, one line per site:  <id> <hex addr> <r|w> <full|redzone>
// plus an optional trailing <warm|hot> tier column, emitted only when the
// rewrite was profile-tiered, i.e. some site is hot (so untiered maps match
// older builds).
// A map written under an explicit hardening policy (--harden=TIER) starts
// with a policy header line, "# harden: <tier>", which round-trips through
// ParseSiteMap; maps from legacy invocations carry no header and stay
// byte-identical to older builds. An explicit --rheap feature list adds a
// second header line, "# rheap: <list>", with the same round-trip and
// byte-identity rules.
#ifndef REDFAT_SRC_CORE_SITEMAP_H_
#define REDFAT_SRC_CORE_SITEMAP_H_

#include <optional>
#include <string>
#include <vector>

#include "src/core/plan.h"
#include "src/support/result.h"
#include "src/vm/vm.h"

namespace redfat {

enum class HardenTier : uint8_t;  // core/policy.h
struct RheapOptions;              // heap/rheap.h

// `harden` non-null adds the "# harden: <tier>" policy header; `rheap`
// non-null adds the "# rheap: <list>" allocator-feature header.
std::string SerializeSiteMap(const std::vector<SiteRecord>& sites,
                             const HardenTier* harden = nullptr,
                             const RheapOptions* rheap = nullptr);
// `harden` non-null receives the policy header's tier when the map carries
// one (reset to nullopt otherwise); same for `rheap` and the feature header.
Result<std::vector<SiteRecord>> ParseSiteMap(
    const std::vector<std::string>& lines,
    std::optional<HardenTier>* harden = nullptr,
    std::optional<RheapOptions>* rheap = nullptr);

// Human-readable one-line report, e.g.
//   "out-of-bounds write at 0x400123 (site 5, full check)"
// Sites may be null/short (e.g. Memcheck reports with site 0).
std::string DescribeError(const MemErrorReport& error, const std::vector<SiteRecord>* sites);

struct PipelineStats;
struct TelemetrySnapshot;

// The `rfrun --report` text: a per-site table joining the rewriter's static
// site records (what was instrumented, where) with the run's telemetry (what
// executed, what it hit, what it cost), followed by the named counters and
// gauges, and — when rewrite-time stats are available — a pass summary.
// `sites` and `pipeline` are optional; `total_cycles` scales the per-site
// cycle share column (0 suppresses it).
std::string FormatTelemetryReport(const TelemetrySnapshot& snapshot,
                                  const std::vector<SiteRecord>* sites,
                                  const PipelineStats* pipeline,
                                  uint64_t total_cycles);

// One image's site table, for multi-image reports (rfrun --lib). `name`
// labels the img column; `sites` may be null for uninstrumented images.
// `harden` is the image's resolved hardening tier from its sitemap's policy
// header ("" = unknown); when any image carries one, the per-site table
// grows a `harden` column (reports without policy data are unchanged).
struct ImageSiteTable {
  std::string name;
  const std::vector<SiteRecord>* sites = nullptr;
  std::string harden;
};

// Multi-image variant: telemetry site ids are decoded per telemetry.h
// ImageSiteKey and joined against the owning image's table. With more than
// one image the per-site table grows an `img` column so counters from
// separately-instrumented libraries stay unambiguous.
std::string FormatTelemetryReport(const TelemetrySnapshot& snapshot,
                                  const std::vector<ImageSiteTable>& images,
                                  const PipelineStats* pipeline,
                                  uint64_t total_cycles);

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_SITEMAP_H_
