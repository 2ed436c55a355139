// Assorted coverage: site-map round-trip & error symbolization, tool file
// I/O, and the quarantine window's effect on use-after-free detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "src/core/harness.h"
#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/core/sitemap.h"
#include "src/heap/rheap.h"
#include "src/support/str.h"
#include "src/tools/tool_io.h"
#include "src/workloads/builder.h"

namespace redfat {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return lines;
}

TEST(SiteMap, RoundTrip) {
  std::vector<SiteRecord> sites = {
      {0, 0x400010, true, CheckKind::kFull},
      {1, 0x400020, false, CheckKind::kRedzoneOnly},
      {2, 0x400123, true, CheckKind::kRedzoneOnly},
  };
  const std::string text = SerializeSiteMap(sites);
  Result<std::vector<SiteRecord>> back = ParseSiteMap(Lines(text));
  ASSERT_TRUE(back.ok()) << back.error();
  ASSERT_EQ(back.value().size(), 3u);
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(back.value()[i].id, sites[i].id);
    EXPECT_EQ(back.value()[i].addr, sites[i].addr);
    EXPECT_EQ(back.value()[i].is_write, sites[i].is_write);
    EXPECT_EQ(back.value()[i].kind, sites[i].kind);
  }
}

// The map format spelled with StrFormat, as the writer produced it before
// it formatted lines in place.
std::string ReferenceSiteMap(const std::vector<SiteRecord>& sites, const HardenTier* harden,
                             const RheapOptions* rheap) {
  bool tiered = false;
  for (const SiteRecord& s : sites) {
    tiered = tiered || s.tier != Tier::kWarm;
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
  for (const SiteRecord& s : sites) {
    out += StrFormat("%u 0x%llx %c %s", s.id, static_cast<unsigned long long>(s.addr),
                     s.is_write ? 'w' : 'r', s.kind == CheckKind::kFull ? "full" : "redzone");
    if (tiered) {
      out += StrFormat(" %s", TierName(s.tier));
    }
    out += "\n";
  }
  return out;
}

TEST(SiteMap, WriterMatchesFormattedReference) {
  std::vector<SiteRecord> untiered = {
      {0, 0, false, CheckKind::kFull},
      {1, 0x400123, true, CheckKind::kRedzoneOnly},
      {UINT32_MAX, UINT64_MAX, true, CheckKind::kFull},
      {77, 0xabcdef0123456789ull, false, CheckKind::kRedzoneOnly},
  };
  std::vector<SiteRecord> tiered = untiered;
  tiered[0].tier = Tier::kHot;
  tiered[2].tier = Tier::kCold;
  const HardenTier debug = HardenTier::kDebug;
  Result<RheapOptions> parsed = ParseRheapList("prot-freelist,quarantine=8");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const RheapOptions* const rheap = &parsed.value();
  for (const std::vector<SiteRecord>* sites : {&untiered, &tiered}) {
    for (const HardenTier* h : {static_cast<const HardenTier*>(nullptr), &debug}) {
      for (const RheapOptions* r : {static_cast<const RheapOptions*>(nullptr), rheap}) {
        const std::string text = SerializeSiteMap(*sites, h, r);
        EXPECT_EQ(text, ReferenceSiteMap(*sites, h, r));
        std::optional<HardenTier> h_back;
        std::optional<RheapOptions> r_back;
        Result<std::vector<SiteRecord>> back = ParseSiteMap(Lines(text), &h_back, &r_back);
        ASSERT_TRUE(back.ok()) << back.error();
        ASSERT_EQ(back.value().size(), sites->size());
        for (size_t i = 0; i < sites->size(); ++i) {
          EXPECT_EQ(back.value()[i].id, (*sites)[i].id);
          EXPECT_EQ(back.value()[i].addr, (*sites)[i].addr);
          EXPECT_EQ(back.value()[i].is_write, (*sites)[i].is_write);
          EXPECT_EQ(back.value()[i].kind, (*sites)[i].kind);
          EXPECT_EQ(back.value()[i].tier, (*sites)[i].tier);
        }
        EXPECT_EQ(h_back.has_value(), h != nullptr);
        EXPECT_EQ(r_back.has_value(), r != nullptr);
        if (r != nullptr && r_back.has_value()) {
          EXPECT_EQ(*r_back, *r);
        }
      }
    }
  }
}

TEST(SiteMap, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseSiteMap({"not a site line"}).ok());
  EXPECT_TRUE(ParseSiteMap({"# comment", ""}).ok());
}

TEST(SiteMap, DescribeError) {
  std::vector<SiteRecord> sites = {{0, 0x400010, true, CheckKind::kFull}};
  MemErrorReport e;
  e.site = 0;
  e.kind = ErrorKind::kBounds;
  EXPECT_EQ(DescribeError(e, &sites),
            "out-of-bounds write at 0x400010 (site 0, lowfat+redzone check)");
  e.kind = ErrorKind::kUaf;
  e.site = 9;  // out of table
  e.rip = 0xabc;
  EXPECT_EQ(DescribeError(e, &sites), "use-after-free at site 9 (rip=0xabc)");
  EXPECT_EQ(DescribeError(e, nullptr), "use-after-free at site 9 (rip=0xabc)");
}

TEST(ToolIo, FileRoundTripAndErrors) {
  const std::string path = ::testing::TempDir() + "/redfat_toolio_test.bin";
  const std::vector<uint8_t> payload = {1, 2, 3, 0, 255, 42};
  ASSERT_TRUE(WriteFileBytes(path, payload).ok());
  Result<std::vector<uint8_t>> back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFileBytes(path).ok());
  EXPECT_FALSE(LoadImageFile("/nonexistent/zzz.rfbin").ok());

  ProgramBuilder pb;
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const std::string ipath = ::testing::TempDir() + "/redfat_toolio_test.rfbin";
  ASSERT_TRUE(SaveImageFile(ipath, img).ok());
  Result<BinaryImage> loaded = LoadImageFile(ipath);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().Serialize(), img.Serialize());
  std::remove(ipath.c_str());
}

// The UAF detection window is the quarantine: once a freed slot is recycled
// and re-allocated, its metadata is valid again and the dangling access
// passes (the known limitation of object-state schemes). The program frees
// p, then churns input()-many same-class objects before dereferencing p.
TEST(QuarantineWindow, UafDetectedOnlyInsideWindow) {
  // free(p); allocate-and-hold n same-class objects; free them all (their
  // frees push p out of the n>64 quarantine); burst-allocate n+2 objects
  // (drains the free list and recycles p's slot); finally read through the
  // dangling p.
  ProgramBuilder pb;
  const uint64_t table = pb.AddZeroData(8 * 512);
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 32);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kR12, Reg::kRax);  // p
  as.MovRR(Reg::kRdi, Reg::kR12);
  as.HostCall(HostFn::kFree);
  as.HostCall(HostFn::kInputU64);
  as.MovRR(Reg::kR14, Reg::kRax);  // n

  auto emit_loop = [&](auto body) {
    as.MovRI(Reg::kRbx, 0);
    auto head = as.NewLabel();
    auto end = as.NewLabel();
    as.Bind(head);
    as.Cmp(Reg::kRbx, Reg::kR14);
    as.Jcc(Cond::kUge, end);
    body();
    as.AddI(Reg::kRbx, 1);
    as.Jmp(head);
    as.Bind(end);
  };

  emit_loop([&] {  // allocate and hold
    as.MovRI(Reg::kRdi, 32);
    as.HostCall(HostFn::kMalloc);
    as.Store(Reg::kRax, MemBIS(Reg::kNone, Reg::kRbx, 3, static_cast<int32_t>(table)));
  });
  emit_loop([&] {  // free them all
    as.Load(Reg::kRdi, MemBIS(Reg::kNone, Reg::kRbx, 3, static_cast<int32_t>(table)));
    as.HostCall(HostFn::kFree);
  });
  as.AddI(Reg::kR14, 2);
  emit_loop([&] {  // drain burst (leaked on purpose)
    as.MovRI(Reg::kRdi, 32);
    as.HostCall(HostFn::kMalloc);
  });
  as.Load(Reg::kRax, MemAt(Reg::kR12, 0));  // dangling access
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();

  RedFatTool tool(RedFatOptions{});
  const InstrumentResult ir = tool.Instrument(img).value();

  // Inside the default 64-slot quarantine: detected.
  RunConfig inside;
  inside.inputs = {5};
  EXPECT_EQ(RunImage(ir.image, RuntimeKind::kRedFat, inside).result.reason,
            HaltReason::kMemErrorAbort);

  // Far beyond the quarantine: p is recycled; the dangling read aliases the
  // fresh object and slips through — the documented limitation.
  RunConfig outside;
  outside.inputs = {200};
  EXPECT_EQ(RunImage(ir.image, RuntimeKind::kRedFat, outside).result.reason,
            HaltReason::kExit);
}

}  // namespace
}  // namespace redfat
