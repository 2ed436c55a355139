#include "src/core/forensics_report.h"

#include "src/core/sitemap.h"
#include "src/support/json.h"
#include "src/support/str.h"

namespace redfat {

namespace {

constexpr uint64_t kDumpRow = 16;
constexpr uint64_t kDumpRows = 4;

std::string Hex(uint64_t v) {
  return StrFormat("0x%llx", static_cast<unsigned long long>(v));
}

void AppendProvenanceJson(std::string& out, const ForensicReport& r) {
  const AllocProvenance& p = r.provenance;
  out += StrFormat(
      ",\"object\":{\"ptr\":\"%s\",\"size\":%llu,\"freed\":%s,"
      "\"alloc_pc\":\"%s\",\"alloc_instruction\":%llu,\"alloc_cycles\":%llu,"
      "\"alloc_epoch\":%llu",
      Hex(p.ptr).c_str(), static_cast<unsigned long long>(p.size),
      r.provenance_freed ? "true" : "false", Hex(p.alloc_pc).c_str(),
      static_cast<unsigned long long>(p.alloc_instruction),
      static_cast<unsigned long long>(p.alloc_cycles),
      static_cast<unsigned long long>(p.alloc_epoch));
  if (p.freed) {
    out += StrFormat(
        ",\"free_pc\":\"%s\",\"free_instruction\":%llu,\"free_cycles\":%llu,"
        "\"free_epoch\":%llu",
        Hex(p.free_pc).c_str(), static_cast<unsigned long long>(p.free_instruction),
        static_cast<unsigned long long>(p.free_cycles),
        static_cast<unsigned long long>(p.free_epoch));
  }
  out += StrFormat("},\"distance\":%llu,\"past_end\":%s",
                   static_cast<unsigned long long>(r.distance),
                   r.past_end ? "true" : "false");
}

}  // namespace

const char* ErrorKindToken(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kBounds: return "oob";
    case ErrorKind::kUaf: return "uaf";
    case ErrorKind::kMeta: return "meta";
    case ErrorKind::kDoubleFree: return "double-free";
    case ErrorKind::kFreelistCorruption: return "freelist-corruption";
  }
  return "?";
}

ForensicReport BuildForensicReport(const MemErrorReport& error,
                                   const ForensicRing& ring, const Memory& memory,
                                   const std::vector<SiteRecord>* sites,
                                   const std::string& tier) {
  ForensicReport r;
  r.error = error;
  r.description = DescribeError(error, sites);
  r.tier = tier;
  if (!error.has_addr) {
    return r;  // trap payloads carry only (site, kind): nothing to join on
  }

  const uint64_t addr = error.addr;
  if (const AllocProvenance* live = ring.FindLive(addr)) {
    r.have_provenance = true;
    r.provenance = *live;
  } else if (const AllocProvenance* freed = ring.FindFreed(addr)) {
    r.have_provenance = true;
    r.provenance = *freed;
    r.provenance_freed = true;
  } else {
    const ForensicRing::Proximity near = ring.Nearest(addr);
    if (near.object != nullptr) {
      r.have_provenance = true;
      r.provenance = *near.object;
      r.provenance_freed = near.object->freed;
      r.distance = near.distance;
      r.past_end = near.past_end;
    }
  }

  // Neighborhood dump: the faulting address's 16-byte row, one row of
  // context before it and two after (the row layout puts the redzone bytes
  // around a payload-edge miss in frame).
  const uint64_t row = addr & ~(kDumpRow - 1);
  r.dump_base = row >= kDumpRow ? row - kDumpRow : 0;
  r.dump_bytes.resize(kDumpRows * kDumpRow);
  memory.ReadBytes(r.dump_base, r.dump_bytes.data(), r.dump_bytes.size());
  r.have_dump = true;
  return r;
}

std::string FormatForensicReport(const ForensicReport& r) {
  std::string out = StrFormat("memory error: %s\n", r.description.c_str());
  if (!r.tier.empty()) {
    out += StrFormat("  tier: %s\n", r.tier.c_str());
  }
  if (r.error.has_addr) {
    out += StrFormat("  address: %s", Hex(r.error.addr).c_str());
    if (r.have_provenance) {
      if (r.distance == 0) {
        out += r.provenance_freed ? " (inside freed object)" : " (inside object)";
      } else {
        out += StrFormat(" (%llu byte%s %s nearest object)",
                         static_cast<unsigned long long>(r.distance),
                         r.distance == 1 ? "" : "s",
                         r.past_end ? "past end of" : "before");
      }
    }
    out += "\n";
  }
  if (r.have_provenance) {
    const AllocProvenance& p = r.provenance;
    out += StrFormat("  object: %llu bytes at %s, allocated at pc %s (insn %llu, epoch %llu)\n",
                     static_cast<unsigned long long>(p.size), Hex(p.ptr).c_str(),
                     Hex(p.alloc_pc).c_str(),
                     static_cast<unsigned long long>(p.alloc_instruction),
                     static_cast<unsigned long long>(p.alloc_epoch));
    if (p.freed) {
      out += StrFormat("  freed at pc %s (insn %llu, epoch %llu)\n", Hex(p.free_pc).c_str(),
                       static_cast<unsigned long long>(p.free_instruction),
                       static_cast<unsigned long long>(p.free_epoch));
    }
  } else if (r.error.has_addr) {
    out += "  object: no tracked allocation near this address\n";
  }
  if (r.have_dump) {
    out += StrFormat("  neighborhood of %s:\n", Hex(r.error.addr).c_str());
    for (uint64_t row = 0; row < kDumpRows; ++row) {
      out += StrFormat("    %s ", Hex(r.dump_base + row * kDumpRow).c_str());
      for (uint64_t i = 0; i < kDumpRow; ++i) {
        out += StrFormat(" %02x", r.dump_bytes[row * kDumpRow + i]);
      }
      out += "\n";
    }
  }
  return out;
}

std::string ForensicReportsToJson(const std::vector<ForensicReport>& reports,
                                  const ForensicRing& ring) {
  std::string out = "{\"errors\":[";
  for (size_t i = 0; i < reports.size(); ++i) {
    const ForensicReport& r = reports[i];
    if (i != 0) {
      out += ",";
    }
    out += StrFormat(
        "{\"site\":%u,\"kind\":\"%s\",\"rip\":\"%s\",\"instruction\":%llu,"
        "\"tier\":\"%s\",\"description\":\"%s\"",
        r.error.site, ErrorKindToken(r.error.kind), Hex(r.error.rip).c_str(),
        static_cast<unsigned long long>(r.error.instruction_index),
        JsonEscape(r.tier).c_str(), JsonEscape(r.description).c_str());
    if (r.error.has_addr) {
      out += StrFormat(",\"addr\":\"%s\"", Hex(r.error.addr).c_str());
    }
    if (r.have_provenance) {
      AppendProvenanceJson(out, r);
    }
    if (r.have_dump) {
      out += StrFormat(",\"neighborhood\":{\"base\":\"%s\",\"bytes\":\"",
                       Hex(r.dump_base).c_str());
      for (const uint8_t b : r.dump_bytes) {
        out += StrFormat("%02x", b);
      }
      out += "\"}";
    }
    out += "}";
  }
  out += StrFormat(
      "],\"ring\":{\"live\":%llu,\"freed\":%llu,\"capacity\":%llu,\"evicted\":%llu}}",
      static_cast<unsigned long long>(ring.live_count()),
      static_cast<unsigned long long>(ring.freed_count()),
      static_cast<unsigned long long>(ring.capacity()),
      static_cast<unsigned long long>(ring.evicted()));
  return out;
}

}  // namespace redfat
