#include "src/core/sitemap.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "src/core/pipeline.h"
#include "src/core/policy.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"

namespace redfat {

std::string SerializeSiteMap(const std::vector<SiteRecord>& sites,
                             const HardenTier* harden, const RheapOptions* rheap) {
  // The tier column only appears when the tier pass actually ran (some site
  // is non-warm), so untiered site maps stay byte-identical to older builds.
  bool tiered = false;
  for (const SiteRecord& s : sites) {
    if (s.tier != Tier::kWarm) {
      tiered = true;
      break;
    }
  }
  std::string out;
  if (harden != nullptr) {
    out += StrFormat("# harden: %s\n", HardenTierName(*harden));
  }
  if (rheap != nullptr) {
    out += StrFormat("# rheap: %s\n", RheapListName(*rheap).c_str());
  }
  out += tiered ? "# redfat site map: id addr rw kind tier\n"
                : "# redfat site map: id addr rw kind\n";
  // Every miss and re-tier writes a map, so each line is formatted in a
  // stack buffer: "<id> 0x<addr> <r|w> <kind>[ <tier>]\n" takes at most 46 bytes.
  out.reserve(out.size() + 32 * sites.size());
  char line[64];
  for (const SiteRecord& s : sites) {
    char* p = std::to_chars(line, line + 10, s.id).ptr;
    const auto put = [&p](std::string_view text) { p = std::copy(text.begin(), text.end(), p); };
    put(" 0x");
    p = std::to_chars(p, p + 16, s.addr, 16).ptr;
    put(s.is_write ? " w " : " r ");
    put(s.kind == CheckKind::kFull ? "full" : "redzone");
    if (tiered) {
      put(" ");
      put(TierName(s.tier));
    }
    put("\n");
    out.append(line, p);
  }
  return out;
}

Result<std::vector<SiteRecord>> ParseSiteMap(const std::vector<std::string>& lines,
                                             std::optional<HardenTier>* harden,
                                             std::optional<RheapOptions>* rheap) {
  std::vector<SiteRecord> sites;
  if (harden != nullptr) {
    harden->reset();
  }
  if (rheap != nullptr) {
    rheap->reset();
  }
  for (const std::string& line : lines) {
    if (line.empty() || line[0] == '#') {
      // The policy headers ("# harden: <tier>", "# rheap: <list>") are the
      // comments that carry data; any other comment line is skipped.
      const std::string prefix = "# harden: ";
      if (harden != nullptr && line.rfind(prefix, 0) == 0) {
        Result<HardenTier> t = ParseHardenTier(line.substr(prefix.size()));
        if (!t.ok()) {
          return Error(StrFormat("sitemap: %s", t.error().c_str()));
        }
        *harden = t.value();
      }
      const std::string rprefix = "# rheap: ";
      if (rheap != nullptr && line.rfind(rprefix, 0) == 0) {
        Result<RheapOptions> o = ParseRheapList(line.substr(rprefix.size()));
        if (!o.ok()) {
          return Error(StrFormat("sitemap: %s", o.error().c_str()));
        }
        *rheap = o.value();
      }
      continue;
    }
    unsigned id = 0;
    unsigned long long addr = 0;
    char rw = 0;
    char kind[16] = {};
    char tier[16] = {};
    const int n =
        std::sscanf(line.c_str(), "%u %llx %c %15s %15s", &id, &addr, &rw, kind, tier);
    if (n != 4 && n != 5) {
      return Error(StrFormat("sitemap: malformed line: %s", line.c_str()));
    }
    SiteRecord s;
    s.id = id;
    s.addr = addr;
    s.is_write = rw == 'w';
    s.kind = std::string(kind) == "full" ? CheckKind::kFull : CheckKind::kRedzoneOnly;
    if (n == 5) {
      const std::string t(tier);
      if (t == "hot") {
        s.tier = Tier::kHot;
      } else if (t != "warm") {
        return Error(StrFormat("sitemap: unknown tier '%s' in line: %s", tier,
                               line.c_str()));
      }
    }
    sites.push_back(s);
  }
  return sites;
}

std::string DescribeError(const MemErrorReport& error, const std::vector<SiteRecord>* sites) {
  const char* what = "memory error";
  switch (error.kind) {
    case ErrorKind::kBounds:
      what = "out-of-bounds";
      break;
    case ErrorKind::kUaf:
      what = "use-after-free";
      break;
    case ErrorKind::kMeta:
      what = "corrupted size metadata";
      break;
    case ErrorKind::kDoubleFree:
      what = "double free";
      break;
    case ErrorKind::kFreelistCorruption:
      what = "freelist corruption";
      break;
  }
  // Double frees and freelist corruptions are raised by the VM/allocator
  // with a placeholder site id, so a site join would point at an unrelated
  // instruction.
  if (error.kind == ErrorKind::kDoubleFree ||
      error.kind == ErrorKind::kFreelistCorruption) {
    return StrFormat("%s (rip=0x%llx)", what,
                     static_cast<unsigned long long>(error.rip));
  }
  if (sites != nullptr && error.site < sites->size()) {
    const SiteRecord& s = (*sites)[error.site];
    return StrFormat("%s %s at 0x%llx (site %u, %s check)", what,
                     s.is_write ? "write" : "read",
                     static_cast<unsigned long long>(s.addr), s.id,
                     s.kind == CheckKind::kFull ? "lowfat+redzone" : "redzone");
  }
  return StrFormat("%s at site %u (rip=0x%llx)", what, error.site,
                   static_cast<unsigned long long>(error.rip));
}

std::string FormatTelemetryReport(const TelemetrySnapshot& snapshot,
                                  const std::vector<SiteRecord>* sites,
                                  const PipelineStats* pipeline,
                                  uint64_t total_cycles) {
  return FormatTelemetryReport(snapshot, std::vector<ImageSiteTable>{{"", sites}},
                               pipeline, total_cycles);
}

std::string FormatTelemetryReport(const TelemetrySnapshot& snapshot,
                                  const std::vector<ImageSiteTable>& images,
                                  const PipelineStats* pipeline,
                                  uint64_t total_cycles) {
  const bool multi = images.size() > 1;
  // The harden column appears only when some image's sitemap carried a
  // policy header, so reports over legacy artifacts are unchanged.
  bool any_harden = false;
  for (const ImageSiteTable& t : images) {
    if (!t.harden.empty()) {
      any_harden = true;
      break;
    }
  }
  std::string out;
  out += "=== per-site runtime telemetry ===\n";
  if (snapshot.sites.empty()) {
    out += "(no site events recorded)\n";
  } else {
    if (multi) {
      out += StrFormat("%12s ", "img");
    }
    if (any_harden) {
      out += StrFormat("%9s ", "harden");
    }
    out += StrFormat("%6s %10s %2s %7s %4s  %12s %8s %9s %9s %12s %12s %7s\n",
                     "site", "addr", "rw", "kind", "tier", "checks", "rz-hits",
                     "lf-pass", "lf-fail", "tramp-cyc", "inline-cyc", "cyc%");
    for (const SiteTelemetry& st : snapshot.sites) {
      // Only multi-image runs emit packed keys; single-image site ids may
      // legitimately exceed the packed-site range and must stay plain.
      const uint32_t img = multi ? ImageOfSiteKey(st.site) : 0;
      const uint32_t site_id = multi ? SiteOfSiteKey(st.site) : st.site;
      const SiteRecord* rec = nullptr;
      if (img < images.size() && images[img].sites != nullptr) {
        for (const SiteRecord& s : *images[img].sites) {
          if (s.id == site_id) {
            rec = &s;
            break;
          }
        }
      }
      const std::string addr =
          rec != nullptr
              ? StrFormat("0x%llx", static_cast<unsigned long long>(rec->addr))
              : "?";
      const uint64_t site_cycles = st.tramp_cycles() + st.inline_cycles();
      const std::string share =
          total_cycles != 0
              ? StrFormat("%6.2f%%", 100.0 * static_cast<double>(site_cycles) /
                                         static_cast<double>(total_cycles))
              : std::string("-");
      if (multi) {
        const std::string img_name =
            img < images.size() && !images[img].name.empty()
                ? images[img].name
                : StrFormat("#%u", img);
        out += StrFormat("%12s ", img_name.c_str());
      }
      if (any_harden) {
        const bool known = img < images.size() && !images[img].harden.empty();
        out += StrFormat("%9s ", known ? images[img].harden.c_str() : "?");
      }
      out += StrFormat(
          "%6u %10s %2s %7s %4s  %12llu %8llu %9llu %9llu %12llu %12llu %7s\n",
          site_id, addr.c_str(), rec != nullptr ? (rec->is_write ? "w" : "r") : "?",
          rec != nullptr ? (rec->kind == CheckKind::kFull ? "full" : "redzone") : "?",
          rec != nullptr ? TierName(rec->tier) : "?",
          static_cast<unsigned long long>(st.checks()),
          static_cast<unsigned long long>(st.redzone_hits()),
          static_cast<unsigned long long>(st.lowfat_passes()),
          static_cast<unsigned long long>(st.lowfat_fails()),
          static_cast<unsigned long long>(st.tramp_cycles()),
          static_cast<unsigned long long>(st.inline_cycles()), share.c_str());
    }
  }
  if (!snapshot.counters.empty()) {
    out += "=== counters ===\n";
    for (const auto& [name, value] : snapshot.counters) {
      out += StrFormat("%-32s %llu\n", name.c_str(),
                       static_cast<unsigned long long>(value));
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "=== gauges ===\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out += StrFormat("%-32s %g\n", name.c_str(), value);
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "=== histograms ===\n";
    out += StrFormat("%-32s %12s %12s %12s %12s %12s\n", "name", "count", "mean",
                     "p50", "p90", "p99");
    for (const auto& [name, h] : snapshot.histograms) {
      out += StrFormat("%-32s %12llu %12.1f %12llu %12llu %12llu\n", name.c_str(),
                       static_cast<unsigned long long>(h.Count()), h.Mean(),
                       static_cast<unsigned long long>(h.Percentile(50)),
                       static_cast<unsigned long long>(h.Percentile(90)),
                       static_cast<unsigned long long>(h.Percentile(99)));
    }
  }
  if (pipeline != nullptr) {
    out += "=== rewrite pipeline ===\n";
    out += StrFormat("%-10s %10s %10s %12s %10s\n", "pass", "items", "changed",
                     "cyc-saved", "wall-ms");
    for (const PassStats& p : pipeline->passes) {
      out += StrFormat("%-10s %10zu %10zu %12llu %10.3f\n", p.name.c_str(), p.items,
                       p.changed, static_cast<unsigned long long>(p.cycles_saved),
                       p.wall_ms);
    }
  }
  return out;
}

}  // namespace redfat
