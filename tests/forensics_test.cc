// Tests for the memory-error forensics layer: the allocation-provenance
// ring (heap/forensics.h), the VM's malloc/free feed and double-free
// interception, and the provenance-joined error reports
// (core/forensics_report.h) through the harness and the debug tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "src/core/forensics_report.h"
#include "src/core/harness.h"
#include "src/core/policy.h"
#include "src/core/redfat.h"
#include "src/dbi/shadow_check.h"
#include "src/heap/forensics.h"
#include "src/support/rng.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/workloads/builder.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

ResolvedPolicy ResolveTier(HardenTier tier) {
  HardeningPolicy p;
  p.tier = tier;
  return p.Resolve().value();
}

// --- ring units ------------------------------------------------------------

TEST(ForensicRing, TracksLiveAndFreedProvenance) {
  ForensicRing ring;
  ring.OnAlloc(0x1000, 64, /*pc=*/0x400010, /*instruction=*/5, /*cycles=*/50,
               /*epoch=*/0);
  ring.OnAlloc(0x2000, 32, 0x400020, 9, 90, 0);

  const AllocProvenance* live = ring.FindLive(0x1000 + 63);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->ptr, 0x1000u);
  EXPECT_EQ(live->size, 64u);
  EXPECT_EQ(live->alloc_pc, 0x400010u);
  EXPECT_FALSE(live->freed);
  EXPECT_EQ(ring.FindLive(0x1000 + 64), nullptr);  // one past the end
  EXPECT_FALSE(ring.WasFreed(0x1000));

  ring.OnFree(0x1000, 0x400030, 20, 200, 1);
  EXPECT_EQ(ring.FindLive(0x1000), nullptr);
  EXPECT_TRUE(ring.WasFreed(0x1000));
  const AllocProvenance* freed = ring.FindFreed(0x1000 + 8);
  ASSERT_NE(freed, nullptr);
  EXPECT_TRUE(freed->freed);
  EXPECT_EQ(freed->alloc_pc, 0x400010u);
  EXPECT_EQ(freed->free_pc, 0x400030u);
  EXPECT_EQ(freed->free_epoch, 1u);
  EXPECT_EQ(ring.live_count(), 1u);
  EXPECT_EQ(ring.freed_count(), 1u);
}

TEST(ForensicRing, ReallocAtSameAddressInvalidatesStaleFreedEntry) {
  ForensicRing ring;
  ring.OnAlloc(0x1000, 64, 0x40, 1, 10, 0);
  ring.OnFree(0x1000, 0x44, 2, 20, 0);
  ASSERT_TRUE(ring.WasFreed(0x1000));
  // The allocator reuses the slot: the old death record must no longer
  // witness a double free or shadow the new live object.
  ring.OnAlloc(0x1000, 64, 0x48, 3, 30, 0);
  EXPECT_FALSE(ring.WasFreed(0x1000));
  EXPECT_NE(ring.FindLive(0x1000), nullptr);
}

TEST(ForensicRing, FreedRingEvictsFifoAndCounts) {
  ForensicRing ring(/*capacity=*/2);
  for (uint64_t i = 0; i < 3; ++i) {
    const uint64_t ptr = 0x1000 + i * 0x100;
    ring.OnAlloc(ptr, 16, 0x40 + i, i, i * 10, 0);
    ring.OnFree(ptr, 0x80 + i, i + 10, i * 10 + 5, 0);
  }
  EXPECT_EQ(ring.freed_count(), 2u);
  EXPECT_EQ(ring.evicted(), 1u);
  EXPECT_EQ(ring.FreedAt(0x1000), nullptr);  // oldest aged out
  EXPECT_NE(ring.FreedAt(0x1100), nullptr);
  EXPECT_NE(ring.FreedAt(0x1200), nullptr);
}

// The ring as plain scans: live objects in an unordered table, freed ones
// in FIFO entries that are cleared (ptr and size 0) when their pointer is
// allocated again. Every lookup scans everything: the live object that
// contains the address, the newest freed entry that does, and the nearest
// object — live ones before freed ones, the higher base winning an equal
// distance among live ones, the older entry among freed ones. The indexed
// ring must answer exactly like it.
struct RingModel {
  struct Object {
    uint64_t ptr = 0;
    uint64_t size = 0;
    uint64_t alloc_pc = 0;
    uint64_t free_pc = 0;
    bool freed = false;
  };
  struct Proximity {
    const Object* object = nullptr;
    uint64_t distance = 0;
    bool past_end = false;
  };
  explicit RingModel(size_t bound) : capacity(bound) {}

  size_t capacity;
  std::vector<Object> live;
  std::deque<Object> freed;
  uint64_t evicted = 0;

  void Alloc(uint64_t ptr, uint64_t size, uint64_t pc) {
    if (ptr == 0) {
      return;
    }
    const Object o{ptr, size, pc};
    const auto it = std::find_if(live.begin(), live.end(),
                                 [&](const Object& l) { return l.ptr == ptr; });
    if (it != live.end()) {
      *it = o;  // handed out again while live
    } else {
      live.push_back(o);
    }
    for (Object& e : freed) {
      if (e.ptr == ptr) {
        e.ptr = 0;
        e.size = 0;
      }
    }
  }
  void Free(uint64_t ptr, uint64_t pc) {
    const auto it = std::find_if(live.begin(), live.end(),
                                 [&](const Object& l) { return l.ptr == ptr; });
    if (it == live.end()) {
      return;
    }
    Object o = *it;
    live.erase(it);
    o.freed = true;
    o.free_pc = pc;
    freed.push_back(o);
    if (freed.size() > capacity) {
      freed.pop_front();
      ++evicted;
    }
  }
  static bool Contains(const Object& o, uint64_t addr) {
    return addr >= o.ptr && addr < o.ptr + o.size;
  }
  const Object* FindLive(uint64_t addr) const {
    for (const Object& o : live) {
      if (Contains(o, addr)) {
        return &o;
      }
    }
    return nullptr;
  }
  const Object* FindFreed(uint64_t addr) const {
    for (auto it = freed.rbegin(); it != freed.rend(); ++it) {
      if (it->ptr != 0 && Contains(*it, addr)) {
        return &*it;
      }
    }
    return nullptr;
  }
  const Object* FreedAt(uint64_t ptr) const {
    for (auto it = freed.rbegin(); it != freed.rend(); ++it) {
      if (ptr != 0 && it->ptr == ptr) {
        return &*it;
      }
    }
    return nullptr;
  }
  Proximity Nearest(uint64_t addr) const {
    Proximity best;
    const auto consider = [&](const Object& o, bool higher_wins_tie) {
      const uint64_t end = o.ptr + o.size;
      const uint64_t distance = addr < o.ptr ? o.ptr - addr : addr < end ? 0 : addr - end + 1;
      if (best.object == nullptr || distance < best.distance ||
          (higher_wins_tie && distance == best.distance && o.ptr > best.object->ptr)) {
        best = Proximity{&o, distance, addr >= end};
      }
    };
    for (const Object& o : live) {
      consider(o, true);
    }
    for (const Object& o : freed) {
      if (o.ptr != 0) {
        consider(o, false);
      }
    }
    return best;
  }
};

// Same object: both null, or equal base, size, freed flag and both pcs.
bool SameObject(const AllocProvenance* got, const RingModel::Object* want) {
  if (got == nullptr || want == nullptr) {
    return got == nullptr && want == nullptr;
  }
  return got->ptr == want->ptr && got->size == want->size && got->freed == want->freed &&
         got->alloc_pc == want->alloc_pc && got->free_pc == want->free_pc;
}

TEST(ForensicRing, IndexedLookupsMatchAScanningModel) {
  // Random alloc/free traffic over a few reused addresses, including double
  // frees, failed (null) allocations and an allocator handing out a live
  // pointer again. Sizes of either parity let a probe sit exactly midway
  // between two live objects.
  constexpr uint64_t kAddrs[] = {0x1000, 0x1040, 0x1080, 0x2000, 0x2040, 0x3000, 0x3400};
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{7}, size_t{1024}}) {
    ForensicRing ring(capacity);
    RingModel model(capacity);
    Rng rng(0xf0e45 + capacity);
    Rng probe_rng(0x9b0be + capacity);
    uint64_t ties = 0;
    for (uint64_t step = 1; step <= 6000; ++step) {
      const uint64_t ptr = rng.Below(20) == 0 ? 0 : kAddrs[rng.Below(std::size(kAddrs))];
      if (rng.Below(2) == 0) {
        const uint64_t size = rng.Range(1, 64);
        ring.OnAlloc(ptr, size, /*pc=*/step, step, step, 0);
        model.Alloc(ptr, size, step);
      } else {
        ring.OnFree(ptr, /*pc=*/step, step, step, 0);
        model.Free(ptr, step);
      }
      const std::string at = StrFormat("capacity %zu step %llu", capacity,
                                       static_cast<unsigned long long>(step));
      ASSERT_EQ(ring.evicted(), model.evicted) << at;
      ASSERT_EQ(ring.live_count(), model.live.size()) << at;
      ASSERT_EQ(ring.freed().size(), model.freed.size()) << at;
      for (size_t i = 0; i < model.freed.size(); ++i) {
        ASSERT_EQ(ring.freed()[i].ptr, model.freed[i].ptr) << at << " entry " << i;
        ASSERT_EQ(ring.freed()[i].size, model.freed[i].size) << at << " entry " << i;
        ASSERT_EQ(ring.freed()[i].free_pc, model.freed[i].free_pc) << at << " entry " << i;
      }
      for (const uint64_t p : {uint64_t{0}, kAddrs[0], kAddrs[1], kAddrs[2], kAddrs[3],
                               kAddrs[4], kAddrs[5], kAddrs[6]}) {
        const RingModel::Object* want = model.FreedAt(p);
        const AllocProvenance* got = ring.FreedAt(p);
        ASSERT_EQ(got != nullptr, want != nullptr) << at << " ptr " << p;
        ASSERT_EQ(ring.WasFreed(p), want != nullptr) << at << " ptr " << p;
        if (want != nullptr) {
          EXPECT_EQ(got->ptr, p) << at;
          EXPECT_EQ(got->size, want->size) << at;
          EXPECT_EQ(got->free_pc, want->free_pc) << at;
        }
      }
      // Probes below, at, inside and past every address the traffic uses,
      // at both edges of every live object, far below and far above all of
      // them, and midway between each pair of live neighbours. The lookups
      // scan the whole ring, so a step checks every exact midpoint but only
      // four of the other probes, drawn at random.
      std::vector<uint64_t> probes = {0x800, 0x10000};
      for (const uint64_t a : kAddrs) {
        probes.insert(probes.end(), {a - 1, a, a + 31});
      }
      std::vector<const RingModel::Object*> by_base;
      for (const RingModel::Object& o : model.live) {
        probes.insert(probes.end(), {o.ptr + o.size - 1, o.ptr + o.size});
        by_base.push_back(&o);
      }
      std::sort(by_base.begin(), by_base.end(),
                [](const RingModel::Object* x, const RingModel::Object* y) {
                  return x->ptr < y->ptr;
                });
      std::vector<uint64_t> checked;
      for (size_t i = 1; i < by_base.size(); ++i) {
        const uint64_t gap_lo = by_base[i - 1]->ptr + by_base[i - 1]->size - 1;
        const uint64_t mid = (gap_lo + by_base[i]->ptr) / 2;
        if ((gap_lo + by_base[i]->ptr) % 2 == 0) {
          checked.push_back(mid);  // exactly as far from both neighbours
          ++ties;
        } else {
          probes.insert(probes.end(), {mid, mid + 1});
        }
      }
      for (int i = 0; i < 4; ++i) {
        checked.push_back(probes[probe_rng.Below(probes.size())]);
      }
      for (const uint64_t addr : checked) {
        ASSERT_TRUE(SameObject(ring.FindLive(addr), model.FindLive(addr))) << at << " addr " << addr;
        ASSERT_TRUE(SameObject(ring.FindFreed(addr), model.FindFreed(addr)))
            << at << " addr " << addr;
        const ForensicRing::Proximity got = ring.Nearest(addr);
        const RingModel::Proximity want = model.Nearest(addr);
        ASSERT_TRUE(SameObject(got.object, want.object)) << at << " addr " << addr;
        ASSERT_EQ(got.distance, want.distance) << at << " addr " << addr;
        ASSERT_EQ(got.past_end, want.past_end) << at << " addr " << addr;
      }
    }
    EXPECT_GT(ring.evicted(), 0u) << "capacity " << capacity << " never evicted";
    EXPECT_GT(ties, 0u) << "capacity " << capacity << " never probed a tie";
  }
}

TEST(ForensicRing, NearestReportsDistanceAndSide) {
  ForensicRing ring;
  ring.OnAlloc(0x1000, 64, 0x40, 1, 10, 0);

  ForensicRing::Proximity inside = ring.Nearest(0x1000 + 10);
  ASSERT_NE(inside.object, nullptr);
  EXPECT_EQ(inside.distance, 0u);

  // First byte past the end: the classic off-by-one, distance 1.
  ForensicRing::Proximity past = ring.Nearest(0x1000 + 64);
  ASSERT_NE(past.object, nullptr);
  EXPECT_EQ(past.object->ptr, 0x1000u);
  EXPECT_EQ(past.distance, 1u);
  EXPECT_TRUE(past.past_end);

  ForensicRing::Proximity below = ring.Nearest(0x1000 - 8);
  ASSERT_NE(below.object, nullptr);
  EXPECT_EQ(below.distance, 8u);
  EXPECT_FALSE(below.past_end);

  uint64_t d = 0;
  EXPECT_TRUE(ring.DistanceTo(0x1000 + 70, &d));
  EXPECT_EQ(d, 7u);
  ForensicRing empty;
  EXPECT_FALSE(empty.DistanceTo(0x1000, &d));
}

// --- end-to-end: UAF under the debug tier ----------------------------------

// The policy_test UAF recipe with a forensic ring attached: malloc, free,
// store through the stale pointer. Fast-tier instrumentation leaves the
// ambiguous site bare, the debug runtime's shadow observer catches it.
BinaryImage StaleStoreProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 64);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kRcx, Reg::kRax);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kFree);
  as.Store(Reg::kRdx, MemBIS(Reg::kNone, Reg::kRcx, 0, 0));  // stale, ambiguous
  pb.EmitExit(0);
  return pb.Finish();
}

TEST(ForensicReports, DebugTierUafCarriesFullProvenance) {
  const InstrumentResult fast =
      RedFatTool(ResolveTier(HardenTier::kFast)).Instrument(StaleStoreProgram()).value();
  ShadowCheckObserver observer;
  ForensicRing ring;
  RunConfig cfg;
  cfg.observer = &observer;
  cfg.forensics = &ring;
  cfg.forensic_tier = "debug";
  const RunOutcome out = RunImage(fast.image, RuntimeKind::kRedFatDebug, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kUaf);
  EXPECT_TRUE(out.errors[0].has_addr);

  ASSERT_EQ(out.forensic_reports.size(), 1u);
  const ForensicReport& r = out.forensic_reports[0];
  EXPECT_EQ(r.tier, "debug");
  ASSERT_TRUE(r.have_provenance);
  EXPECT_TRUE(r.provenance_freed);
  EXPECT_EQ(r.provenance.size, 64u);
  EXPECT_NE(r.provenance.alloc_pc, 0u);
  EXPECT_NE(r.provenance.free_pc, 0u);
  EXPECT_GT(r.provenance.free_instruction, r.provenance.alloc_instruction);
  ASSERT_TRUE(r.have_dump);
  EXPECT_EQ(r.dump_bytes.size(), 64u);
  EXPECT_LE(r.dump_base, out.errors[0].addr);

  const std::string text = FormatForensicReport(r);
  EXPECT_NE(text.find("use-after-free"), std::string::npos);
  EXPECT_NE(text.find("tier: debug"), std::string::npos);
  EXPECT_NE(text.find("allocated at pc"), std::string::npos);
  EXPECT_NE(text.find("freed at pc"), std::string::npos);
  EXPECT_NE(text.find("neighborhood of"), std::string::npos);

  const std::string json = ForensicReportsToJson(out.forensic_reports, ring);
  EXPECT_NE(json.find("\"kind\":\"uaf\""), std::string::npos);
  EXPECT_NE(json.find("\"tier\":\"debug\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc_pc\""), std::string::npos);
  EXPECT_NE(json.find("\"free_pc\""), std::string::npos);
  EXPECT_NE(json.find("\"neighborhood\""), std::string::npos);
  EXPECT_NE(json.find("\"ring\""), std::string::npos);
}

// The instrumented (trampoline) detection path also carries the faulting
// address now (TrapCode::kErrAddr), so trap-raised errors join provenance
// the same way DBI-raised ones do.
TEST(ForensicReports, TrampolineCheckErrorsCarryTheAddress) {
  const InstrumentResult ext = RedFatTool(ResolveTier(HardenTier::kExtensive))
                                   .Instrument(StaleStoreProgram())
                                   .value();
  ForensicRing ring;
  RunConfig cfg;
  cfg.forensics = &ring;
  const RunOutcome out = RunImage(ext.image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_TRUE(out.errors[0].has_addr);
  ASSERT_EQ(out.forensic_reports.size(), 1u);
  EXPECT_TRUE(out.forensic_reports[0].have_provenance);
  EXPECT_TRUE(out.forensic_reports[0].provenance_freed);
}

// --- double free -----------------------------------------------------------

BinaryImage DoubleFreeProgram() {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRdi, 48);
  as.HostCall(HostFn::kMalloc);
  as.MovRR(Reg::kRcx, Reg::kRax);
  as.MovRR(Reg::kRdi, Reg::kRax);
  as.HostCall(HostFn::kFree);
  as.MovRR(Reg::kRdi, Reg::kRcx);
  as.HostCall(HostFn::kFree);  // double free
  as.MovRI(Reg::kRdi, 7);
  as.HostCall(HostFn::kOutputU64);
  pb.EmitExit(0);
  return pb.Finish();
}

TEST(ForensicReports, DoubleFreeIsInterceptedAndDiagnosed) {
  const BinaryImage prog = DoubleFreeProgram();
  // Under kHarden the interception aborts the run with a kDoubleFree report
  // instead of letting the allocator hard-abort the host.
  {
    ForensicRing ring;
    RunConfig cfg;
    cfg.forensics = &ring;
    const RunOutcome out = RunImage(prog, RuntimeKind::kBaseline, cfg);
    EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
    ASSERT_EQ(out.errors.size(), 1u);
    EXPECT_EQ(out.errors[0].kind, ErrorKind::kDoubleFree);
    EXPECT_TRUE(out.errors[0].has_addr);
    ASSERT_EQ(out.forensic_reports.size(), 1u);
    EXPECT_TRUE(out.forensic_reports[0].provenance_freed);
    EXPECT_NE(ForensicReportsToJson(out.forensic_reports, ring)
                  .find("\"kind\":\"double-free\""),
              std::string::npos);
  }
  // Under kLog the second free is a diagnosed no-op and the run completes
  // with its normal output.
  {
    ForensicRing ring;
    RunConfig cfg;
    cfg.forensics = &ring;
    cfg.policy = Policy::kLog;
    const RunOutcome out = RunImage(prog, RuntimeKind::kBaseline, cfg);
    EXPECT_EQ(out.result.reason, HaltReason::kExit);
    ASSERT_EQ(out.errors.size(), 1u);
    EXPECT_EQ(out.errors[0].kind, ErrorKind::kDoubleFree);
    ASSERT_EQ(out.outputs.size(), 1u);
    EXPECT_EQ(out.outputs[0], 7u);
  }
}

// --- invariance and generated workload -------------------------------------

// Attaching a forensic ring must not change guest-visible results or cycles
// on an error-free run.
TEST(ForensicReports, AttachingTheRingDoesNotChangeCycles) {
  UafParams p;
  const BinaryImage prog = GenerateUafProgram(p);
  RunConfig plain;
  plain.inputs = {0};  // benign mode
  const RunOutcome a = RunImage(prog, RuntimeKind::kRedFat, plain);
  ForensicRing ring;
  RunConfig observed;
  observed.inputs = {0};
  observed.forensics = &ring;
  const RunOutcome b = RunImage(prog, RuntimeKind::kRedFat, observed);
  EXPECT_EQ(a.result.reason, HaltReason::kExit);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.instructions, b.result.instructions);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_GT(ring.live_count() + ring.freed_count(), 0u);  // it did observe
}

// The generated forensics workload: benign, UAF and double-free modes from
// one binary, identical checksums where the run completes.
TEST(ForensicReports, UafWorkloadModesBehave) {
  UafParams p;
  const BinaryImage prog = GenerateUafProgram(p);

  RunConfig benign;
  benign.inputs = {0};
  const RunOutcome ok = RunImage(prog, RuntimeKind::kBaseline, benign);
  EXPECT_EQ(ok.result.reason, HaltReason::kExit);
  ASSERT_EQ(ok.outputs.size(), 1u);

  // Mode 2 (double free) under kLog with a ring: diagnosed, same checksum.
  ForensicRing ring;
  RunConfig df;
  df.inputs = {2};
  df.policy = Policy::kLog;
  df.forensics = &ring;
  const RunOutcome out = RunImage(prog, RuntimeKind::kBaseline, df);
  EXPECT_EQ(out.result.reason, HaltReason::kExit);
  ASSERT_EQ(out.errors.size(), 1u);
  EXPECT_EQ(out.errors[0].kind, ErrorKind::kDoubleFree);
  EXPECT_EQ(out.outputs, ok.outputs);
}

// A detected error with an address lands one entry in the vm.error_distance
// histogram when both a ring and telemetry are attached.
TEST(ForensicReports, ErrorDistanceHistogramRecords) {
  const InstrumentResult ext = RedFatTool(ResolveTier(HardenTier::kExtensive))
                                   .Instrument(StaleStoreProgram())
                                   .value();
  ForensicRing ring;
  TelemetryRegistry reg;
  RunConfig cfg;
  cfg.forensics = &ring;
  cfg.telemetry = &reg;
  const RunOutcome out = RunImage(ext.image, RuntimeKind::kRedFat, cfg);
  EXPECT_EQ(out.result.reason, HaltReason::kMemErrorAbort);
  const TelemetrySnapshot snap = reg.Snapshot();
  const HistogramData* h = snap.FindHistogram("vm.error_distance");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Count(), 1u);
}

}  // namespace
}  // namespace redfat
