#include "src/vm/vm.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/str.h"
#include "src/support/telemetry.h"
#include "src/support/trace.h"
#include "src/vm/profiler.h"

namespace redfat {

// The guest's fixed trace identity: one modeled process, one hardware thread.
namespace {
constexpr int kGuestPid = 1;
constexpr int kGuestTid = 1;

// x86-semantics flag computation, shared verbatim between the reference
// interpreter (ExecuteOne) and the specialized handlers so the two can't
// drift.
inline uint64_t AddWithFlags(Flags& f, uint64_t a, uint64_t b) {
  const uint64_t r = a + b;
  f.zf = r == 0;
  f.sf = (r >> 63) != 0;
  f.cf = r < a;
  f.of = ((~(a ^ b) & (a ^ r)) >> 63) != 0;
  return r;
}

inline uint64_t SubWithFlags(Flags& f, uint64_t a, uint64_t b) {
  const uint64_t r = a - b;
  f.zf = r == 0;
  f.sf = (r >> 63) != 0;
  f.cf = a < b;
  f.of = (((a ^ b) & (a ^ r)) >> 63) != 0;
  return r;
}

// Sets the flags of a logic or multiply result and returns the result.
inline uint64_t LogicFlags(Flags& f, uint64_t r) {
  f.zf = r == 0;
  f.sf = (r >> 63) != 0;
  f.cf = false;
  f.of = false;
  return r;
}

// Sets the flags of a nonzero shift from its result and carry-out, and
// returns the result. A zero shift leaves the flags alone.
inline uint64_t ShiftFlags(Flags& f, uint64_t r, bool carry) {
  f.zf = r == 0;
  f.sf = (r >> 63) != 0;
  f.cf = carry;
  f.of = false;
  return r;
}

// The high 64 bits of the unsigned 128-bit product.
inline uint64_t MulHigh(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(a) * b) >> 64);
}

// Whether jcc's condition `c` holds under the flags.
inline bool CondHolds(const Flags& f, Cond c) {
  switch (c) {
    case Cond::kEq: return f.zf;
    case Cond::kNe: return !f.zf;
    case Cond::kUlt: return f.cf;
    case Cond::kUle: return f.cf || f.zf;
    case Cond::kUgt: return !f.cf && !f.zf;
    case Cond::kUge: return !f.cf;
    case Cond::kSlt: return f.sf != f.of;
    case Cond::kSle: return f.zf || (f.sf != f.of);
    case Cond::kSgt: return !f.zf && (f.sf == f.of);
    case Cond::kSge: return f.sf == f.of;
  }
  REDFAT_FATAL("bad cond");
}

// Code-cache slot of a block entry address. Text and trampoline bases are
// multiples of every power-of-two table size, so the index comes from the
// high bits of a multiplicative (Fibonacci) hash, not the low address bits.
inline size_t SlotIndex(uint64_t addr, size_t mask) {
  return static_cast<size_t>((addr * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
}
}  // namespace

void Vm::LoadImage(const BinaryImage& image) {
  const uint32_t ordinal = images_loaded_++;
  for (const Section& s : image.sections) {
    memory_.WriteBytes(s.vaddr, s.bytes.data(), s.bytes.size());
    if ((s.kind == Section::Kind::kTrampoline || s.kind == Section::Kind::kInlineCheck) &&
        !s.bytes.empty()) {
      tramp_ranges_.push_back(TrampRange{s.vaddr, s.end_vaddr(), ordinal,
                                         s.kind == Section::Kind::kInlineCheck});
    }
  }
  cpu_ = CpuState{};
  cpu_.rip = image.entry;
  cpu_.Set(Reg::kRsp, kStackTop - 64);
  // New code bytes invalidate every decoded view of memory: the step
  // engine's per-address cache, the superblock cache (clearing it also kills
  // every chain link — links are Block* into the cleared cache), all baked
  // traces, and the memory TLB.
  icache_.clear();
  ClearCodeCache();
  memory_.InvalidateTlb();
}

void Vm::ClearCodeCache() {
  cache_slots_.assign(cache_slots_.size(), CacheSlot{});
  blocks_.clear();
  exec_pool_.clear();
  traces_.clear();
  trace_recording_ = false;
  trace_head_ = nullptr;
  trace_rec_ = Trace{};
  patch_from_ = nullptr;
}

void Vm::set_code_cache_size(size_t entries) {
  REDFAT_CHECK(entries != 0 && (entries & (entries - 1)) == 0);
  code_cache_size_ = entries;
  ClearCodeCache();
}

void Vm::set_observer(ExecObserver* o) {
  observer_ = o;
  ClearCodeCache();  // blocks and traces carry the previous observer's plans
}

uint64_t ExecObserver::OnInstruction(Vm& vm, uint64_t addr, const Instruction& insn) {
  ObserverPlan plan;
  if (!Plan(vm, addr, insn, &plan)) {
    return 0;
  }
  if (plan.check) {
    Check(vm, addr, insn);
  }
  return plan.cycles;
}

bool ExecObserver::Plan(const Vm& /*vm*/, uint64_t /*addr*/, const Instruction& /*insn*/,
                        ObserverPlan* /*plan*/) const {
  return false;
}

void ExecObserver::Check(Vm& /*vm*/, uint64_t /*addr*/, const Instruction& /*insn*/) {}

void Vm::set_telemetry(TelemetryRegistry* t) {
  telemetry_ = t;
  tshard_ = t != nullptr ? t->shard() : nullptr;
  h_tramp_visit_ = t != nullptr ? t->histogram("vm.tramp_visit_cycles") : nullptr;
  h_superblock_len_ = t != nullptr ? t->histogram("vm.superblock_len") : nullptr;
  h_malloc_bytes_ = t != nullptr ? t->histogram("heap.malloc_bytes") : nullptr;
  h_live_bytes_ = t != nullptr ? t->histogram("heap.live_bytes") : nullptr;
  h_live_objects_ = t != nullptr ? t->histogram("heap.live_objects") : nullptr;
  h_alloc_lifetime_ = t != nullptr ? t->histogram("heap.alloc_lifetime_cycles") : nullptr;
  h_error_distance_ = t != nullptr ? t->histogram("vm.error_distance") : nullptr;
}

void Vm::set_sampler(SampleProfiler* s) {
  sampler_ = s;
  sampler_next_ = s != nullptr ? instructions_ + s->period() : 0;
}

void Vm::TakeSampleNow() {
  SampleProfiler::Region region = SampleProfiler::Region::kUser;
  if (t_in_tramp_) {
    region = t_inline_ ? SampleProfiler::Region::kInline
                       : SampleProfiler::Region::kTramp;
  }
  sampler_->TakeSample(cpu_.rip, instructions_, cycles_,
                       t_in_tramp_ ? t_image_ : 0, region,
                       t_in_tramp_ && t_have_site_, t_site_);
  sampler_next_ += sampler_->period();
}

bool Vm::InTrampoline(uint64_t addr) const { return TrampRangeAt(addr) != nullptr; }

const Vm::TrampRange* Vm::TrampRangeAt(uint64_t addr) const {
  for (const TrampRange& r : tramp_ranges_) {
    if (addr >= r.lo && addr < r.hi) {
      return &r;
    }
  }
  return nullptr;
}

uint32_t Vm::SiteKeyFor(uint32_t site) const {
  // Image 0 (and single-image runs) keeps plain ids. Packing needs the site
  // id to fit below the image bits; oversized ids stay plain rather than
  // alias another image's counters.
  if (t_image_ == 0 || t_image_ >= kMaxKeyedImages || site > kMaxKeyedSite) {
    return site;
  }
  return ImageSiteKey(t_image_, site);
}

void Vm::OnCountSite(uint32_t site) {
  if (t_in_tramp_) {
    // Batched trampolines Count every member site up front, so the last
    // counted site owns the visit's cycles when it flushes.
    t_site_ = site;
    t_have_site_ = true;
  }
  if (tshard_ != nullptr) {
    tshard_->AddSite(SiteKeyFor(site), SiteEvent::kChecks);
  }
}

void Vm::EnterRange(const TrampRange* range) {
  const bool now = range != nullptr;
  // A visit also closes when rip crosses directly between ranges with a
  // different attribution (trampoline vs inline region, or another image):
  // each visit's cycles must land on exactly one bucket.
  if (now == t_in_tramp_ &&
      (!now || (range->inline_region == t_inline_ && range->image == t_image_))) {
    return;
  }
  if (t_in_tramp_) {
    FlushTrampolineVisit();
  }
  if (now) {
    t_in_tramp_ = true;
    t_inline_ = range->inline_region;
    t_image_ = range->image;
    t_entry_cycles_ = cycles_;
    t_have_site_ = false;
  }
}

void Vm::FlushTrampolineVisit() {
  const uint64_t dur = cycles_ - t_entry_cycles_;
  t_in_tramp_ = false;
  (t_inline_ ? t_inline_cycles_ : t_tramp_cycles_) += dur;
  if (h_tramp_visit_ != nullptr && !t_inline_) {
    h_tramp_visit_->Record(dur);
  }
  if (tshard_ != nullptr && t_have_site_) {
    tshard_->AddSite(SiteKeyFor(t_site_),
                     t_inline_ ? SiteEvent::kInlineCycles : SiteEvent::kTrampCycles, dur);
  }
  if (trace_ != nullptr) {
    std::vector<TraceArg> args;
    args.push_back(TraceArg{"site", t_have_site_ ? t_site_ : ~0ULL});
    if (t_image_ != 0) {
      args.push_back(TraceArg{"image", t_image_});
    }
    if (site_addrs_ != nullptr && t_have_site_) {
      auto it = site_addrs_->find(SiteKeyFor(t_site_));
      if (it != site_addrs_->end()) {
        args.push_back(TraceArg{"site_addr", it->second});
      }
    }
    trace_->Complete(t_inline_ ? "inline" : "tramp", "check", kGuestPid, kGuestTid,
                     static_cast<double>(t_entry_cycles_), static_cast<double>(dur),
                     args);
  }
  t_image_ = 0;
  t_inline_ = false;
}

const Vm::Exec* Vm::FetchDecode(uint64_t addr, std::string* fault) {
  auto it = icache_.find(addr);
  if (it != icache_.end()) {
    return &it->second;
  }
  uint8_t buf[16];
  memory_.ReadBytes(addr, buf, sizeof(buf));
  Result<Decoded> d = Decode(buf, sizeof(buf));
  if (!d.ok()) {
    *fault = StrFormat("fetch at 0x%llx: %s", static_cast<unsigned long long>(addr),
                       d.error().c_str());
    return nullptr;
  }
  Exec ex;
  ex.insn = d.value().insn;
  ex.length = static_cast<uint8_t>(d.value().length);
  auto [pos, inserted] = icache_.emplace(addr, ex);
  (void)inserted;
  return &pos->second;
}

void Vm::BuildSpec(Exec* ex, uint64_t addr) {
  const Instruction& in = ex->insn;
  Spec& s = ex->spec;
  s = Spec{};
  s.next = addr + ex->length;
  s.imm = in.imm;
  s.r0 = IsGpr(in.r0) ? static_cast<uint8_t>(RegIndex(in.r0)) : 0;
  s.r1 = IsGpr(in.r1) ? static_cast<uint8_t>(RegIndex(in.r1)) : 0;
  s.cond = static_cast<uint8_t>(in.cond);
  auto set_mem = [&s](const MemOperand& m) {
    s.size = static_cast<uint8_t>(m.access_size());
    s.disp = static_cast<int64_t>(m.disp);
    if (m.rip_relative()) {
      // next_rip is static per decoded instruction: fold it now so the hot
      // path computes an absolute address with no rip dependence.
      s.disp += static_cast<int64_t>(s.next);
    } else if (m.has_base()) {
      s.base = static_cast<uint8_t>(RegIndex(m.base));
    }
    if (m.has_index()) {
      s.idx = static_cast<uint8_t>(RegIndex(m.index));
      s.scale = m.scale_log2;
    }
  };
  switch (in.op) {
    case Op::kNop: s.op = kSNop; break;
    case Op::kMovRI: s.op = kSMovRI; break;
    case Op::kMovRR: s.op = kSMovRR; break;
    case Op::kLea: s.op = kSLea; set_mem(in.mem); break;
    case Op::kLoad: s.op = kSLoad; set_mem(in.mem); break;
    case Op::kStoreR: s.op = kSStoreR; set_mem(in.mem); break;
    case Op::kStoreI: s.op = kSStoreI; set_mem(in.mem); break;
    case Op::kAddRR: s.op = kSAddRR; break;
    case Op::kAddRI: s.op = kSAddRI; break;
    case Op::kSubRR: s.op = kSSubRR; break;
    case Op::kSubRI: s.op = kSSubRI; break;
    case Op::kAndRR: s.op = kSAndRR; break;
    case Op::kAndRI: s.op = kSAndRI; break;
    case Op::kOrRR: s.op = kSOrRR; break;
    case Op::kOrRI: s.op = kSOrRI; break;
    case Op::kXorRR: s.op = kSXorRR; break;
    case Op::kXorRI: s.op = kSXorRI; break;
    case Op::kShlRI: s.op = kSShlRI; break;
    case Op::kShrRI: s.op = kSShrRI; break;
    case Op::kSarRI: s.op = kSSarRI; break;
    case Op::kImulRR: s.op = kSImulRR; break;
    case Op::kImulRI: s.op = kSImulRI; break;
    case Op::kMulhRR: s.op = kSMulhRR; break;
    case Op::kCmpRR: s.op = kSCmpRR; break;
    case Op::kCmpRI: s.op = kSCmpRI; break;
    case Op::kTestRR: s.op = kSTestRR; break;
    case Op::kCount: s.op = kSCount; s.target = 0; break;
    case Op::kJmp: s.op = kSJmp; s.target = s.next + static_cast<uint64_t>(in.imm); break;
    case Op::kJcc: s.op = kSJcc; s.target = s.next + static_cast<uint64_t>(in.imm); break;
    case Op::kCall: s.op = kSCall; s.target = s.next + static_cast<uint64_t>(in.imm); break;
    case Op::kJmpR: s.op = kSJmpR; break;
    case Op::kCallR: s.op = kSCallR; break;
    case Op::kRet: s.op = kSRet; break;
    case Op::kPush: s.op = kSPush; break;
    case Op::kPop: s.op = kSPop; break;
    default: s.op = kSGeneric; break;  // hostcall/trap/pushf/popf/hlt/ud2/shl_rr/...
  }
}

void Vm::PlanObserver(Exec* ex, uint64_t addr) {
  ObserverPlan plan;
  if (!observer_->Plan(*this, addr, ex->insn, &plan)) {
    ex->obs = kObsCall;
    return;
  }
  REDFAT_CHECK(plan.cycles <= UINT32_MAX);
  ex->obs = plan.check ? kObsCheck : kObsCharge;
  ex->obs_cycles = static_cast<uint32_t>(plan.cycles);
}

Vm::Block* Vm::FetchBlock(uint64_t addr, std::string* fault) {
  if (!cache_slots_.empty()) {
    const size_t mask = cache_slots_.size() - 1;
    for (size_t i = SlotIndex(addr, mask);; i = (i + 1) & mask) {
      const CacheSlot& slot = cache_slots_[i];
      if (slot.block == nullptr) {
        break;
      }
      if (slot.entry == addr) {
        return slot.block;
      }
    }
  }
  if (blocks_.size() >= code_cache_size_) {
    // Full: flush whole. Nothing else holds a block across this call (the
    // flush also drops the pending link, traces and any recording), so no
    // stale pointer survives it.
    dispatch_.code_cache_evictions += blocks_.size();
    ClearCodeCache();
  }
  if (blocks_.capacity() < code_cache_size_) {
    blocks_.reserve(code_cache_size_);  // blocks never move until a flush
  }
  Block& b = blocks_.emplace_back();
  b.first = static_cast<uint32_t>(exec_pool_.size());
  const TrampRange* entry_range = TrampRangeAt(addr);
  b.range = entry_range;
  uint64_t cur = addr;
  uint8_t buf[16];
  while (exec_pool_.size() - b.first < kMaxBlockInsns) {
    // Never span a trampoline/inline-region boundary: one range
    // classification at block entry must hold for every instruction in it.
    if (cur != addr && TrampRangeAt(cur) != entry_range) {
      break;
    }
    memory_.ReadBytes(cur, buf, sizeof(buf));
    Result<Decoded> d = Decode(buf, sizeof(buf));
    if (!d.ok()) {
      if (exec_pool_.size() == b.first) {
        *fault = StrFormat("fetch at 0x%llx: %s", static_cast<unsigned long long>(cur),
                           d.error().c_str());
        blocks_.pop_back();
        return nullptr;
      }
      // End the block cleanly before the undecodable instruction; the next
      // dispatch at its address reproduces the step engine's fetch fault.
      break;
    }
    Exec& ex = exec_pool_.emplace_back();
    ex.insn = d.value().insn;
    ex.length = static_cast<uint8_t>(d.value().length);
    BuildSpec(&ex, cur);
    if (observer_ != nullptr) {
      PlanObserver(&ex, cur);
    }
    cur += ex.length;
    const Op op = ex.insn.op;
    if (IsControlFlow(op) || op == Op::kHostCall || op == Op::kTrap || op == Op::kHlt) {
      break;  // superblock terminator (kUd2 faults in ExecuteOne instead)
    }
  }
  b.count = static_cast<uint32_t>(exec_pool_.size() - b.first);
  b.fall_rip = cur;
  // cmp/test+jcc macro-op fusion: a Jcc terminates its block, so the fusable
  // pair is always the last two entries. The fused handler reads the Jcc's
  // own spec for cond/target, so the marker carries no extra state and the
  // pair still executes unfused when the instruction budget splits it. A
  // Jcc the observer must check or call on runs alone: that call belongs
  // after the compare.
  Exec* const execs = ExecsOf(b);
  const size_t m = b.count;
  if (m >= 2 && execs[m - 1].spec.op == kSJcc && execs[m - 1].obs == kObsCharge) {
    Spec& c = execs[m - 2].spec;
    if (c.op == kSCmpRR) {
      c.op = kSCmpRRJcc;
    } else if (c.op == kSCmpRI) {
      c.op = kSCmpRIJcc;
    } else if (c.op == kSTestRR) {
      c.op = kSTestRRJcc;
    }
  }
  b.entry = addr;
  InsertBlock(&b);
  ++dispatch_.blocks_built;
  return &b;
}

void Vm::InsertBlock(Block* b) {
  auto place = [this](Block* blk) {
    const size_t mask = cache_slots_.size() - 1;
    size_t i = SlotIndex(blk->entry, mask);
    while (cache_slots_[i].block != nullptr) {
      i = (i + 1) & mask;
    }
    cache_slots_[i] = CacheSlot{blk->entry, blk};
  };
  if (2 * blocks_.size() > cache_slots_.size()) {
    const std::vector<CacheSlot> old = std::move(cache_slots_);
    cache_slots_.assign(std::max(kMinCacheSlots, 2 * old.size()), CacheSlot{});
    for (const CacheSlot& slot : old) {
      if (slot.block != nullptr) {
        place(slot.block);
      }
    }
  }
  place(b);
}

bool Vm::ReportMemError(uint32_t site, ErrorKind kind) {
  return ReportMemErrorImpl(site, kind, 0, false);
}

bool Vm::ReportMemError(uint32_t site, ErrorKind kind, uint64_t addr) {
  return ReportMemErrorImpl(site, kind, addr, true);
}

bool Vm::ReportMemErrorImpl(uint32_t site, ErrorKind kind, uint64_t addr,
                            bool has_addr) {
  MemErrorReport report{site, kind, cpu_.rip, instructions_};
  report.addr = addr;
  report.has_addr = has_addr;
  mem_errors_.push_back(report);
  if (has_addr && h_error_distance_ != nullptr && heap_obs_ != nullptr) {
    uint64_t distance = 0;
    if (heap_obs_->DistanceTo(addr, &distance)) {
      h_error_distance_->Record(distance);
    }
  }
  if (tshard_ != nullptr) {
    tshard_->AddSite(SiteKeyFor(site), SiteEvent::kRedzoneHits);
  }
  if (trace_ != nullptr) {
    std::vector<TraceArg> args;
    args.push_back(TraceArg{"site", site});
    args.push_back(TraceArg{"kind", static_cast<uint64_t>(kind)});
    if (has_addr) {
      args.push_back(TraceArg{"addr", addr});
    }
    if (t_image_ != 0) {
      args.push_back(TraceArg{"image", t_image_});
    }
    if (site_addrs_ != nullptr) {
      auto it = site_addrs_->find(SiteKeyFor(site));
      if (it != site_addrs_->end()) {
        args.push_back(TraceArg{"site_addr", it->second});
      }
    }
    trace_->Instant("mem_error", "error", kGuestPid, kGuestTid,
                    static_cast<double>(cycles_), args);
  }
  if (policy_ == Policy::kHarden) {
    halt_ = true;
    halt_reason_ = HaltReason::kMemErrorAbort;
    return true;
  }
  return false;
}

bool Vm::DoHostCall(HostFn fn, std::string* fault) {
  const uint64_t a0 = cpu_.Get(Reg::kRdi);
  const uint64_t a1 = cpu_.Get(Reg::kRsi);
  const uint64_t a2 = cpu_.Get(Reg::kRdx);
  const uint64_t hostcall_start = cycles_;
  cycles_ += model_.hostcall_base;
  switch (fn) {
    case HostFn::kExit:
      halt_ = true;
      halt_reason_ = HaltReason::kExit;
      exit_status_ = a0;
      return true;
    case HostFn::kMalloc: {
      if (allocator_ == nullptr) {
        *fault = "hostcall malloc with no allocator bound";
        return false;
      }
      const AllocOutcome out = allocator_->Malloc(memory_, a0);
      cpu_.Set(Reg::kRax, out.ptr);
      cycles_ += out.cycles;
      if (out.corrupted) {
        // The allocator's own metadata validation tripped (forged freelist
        // link). The allocation itself was recovered from the bump arena;
        // under Policy::kHarden the report halts the run.
        ReportMemError(0, out.corrupt_kind, out.corrupt_addr);
      }
      if ((heap_obs_ != nullptr || h_malloc_bytes_ != nullptr) && out.ptr != 0) {
        live_allocs_[out.ptr] = LiveAlloc{a0, cycles_};
        live_bytes_ += a0;
        if (live_bytes_ > live_bytes_peak_) {
          live_bytes_peak_ = live_bytes_;
        }
        if (h_malloc_bytes_ != nullptr) {
          h_malloc_bytes_->Record(a0);
          h_live_bytes_->Record(live_bytes_);
          h_live_objects_->Record(live_allocs_.size());
        }
        if (heap_obs_ != nullptr) {
          heap_obs_->OnAlloc(out.ptr, a0, cpu_.rip, instructions_, cycles_,
                             CurrentEpoch());
        }
      }
      if (trace_ != nullptr) {
        if (out.ptr != 0) {
          ++t_live_allocs_;
        }
        trace_->Complete("malloc", "alloc", kGuestPid, kGuestTid,
                         static_cast<double>(hostcall_start),
                         static_cast<double>(cycles_ - hostcall_start),
                         {TraceArg{"size", a0}, TraceArg{"ptr", out.ptr}});
        trace_->Counter("heap.live_objects", kGuestPid, static_cast<double>(cycles_),
                        t_live_allocs_);
      }
      return true;
    }
    case HostFn::kFree: {
      if (allocator_ == nullptr) {
        *fault = "hostcall free with no allocator bound";
        return false;
      }
      // One lookup serves the double-free pre-check and the bookkeeping
      // after the allocator ran: neither the allocator nor ReportMemError
      // touches live_allocs_, so the iterator stays valid.
      const bool tracked = (heap_obs_ != nullptr || h_malloc_bytes_ != nullptr) && a0 != 0;
      const auto live = tracked ? live_allocs_.find(a0) : live_allocs_.end();
      if (heap_obs_ != nullptr && a0 != 0 && live == live_allocs_.end() &&
          heap_obs_->WasFreed(a0)) {
        // Double free: the ring still remembers this exact base as freed and
        // it was never reallocated. Report before touching the allocator —
        // whose own double-free handling is a hard host abort, not a
        // diagnosable guest error — and skip it, so under Policy::kLog the
        // second free becomes a diagnosed no-op.
        ReportMemError(0, ErrorKind::kDoubleFree, a0);
        return true;
      }
      const FreeOutcome fout = allocator_->Free(memory_, a0);
      cycles_ += fout.cycles;
      if (fout.corrupted) {
        ReportMemError(0, fout.corrupt_kind, fout.corrupt_addr);
      }
      if (tracked) {
        if (live != live_allocs_.end()) {
          if (h_alloc_lifetime_ != nullptr) {
            h_alloc_lifetime_->Record(cycles_ - live->second.cycles);
          }
          live_bytes_ -= live->second.size < live_bytes_ ? live->second.size : live_bytes_;
          live_allocs_.erase(live);
          if (h_live_bytes_ != nullptr) {
            h_live_bytes_->Record(live_bytes_);
            h_live_objects_->Record(live_allocs_.size());
          }
        }
        if (heap_obs_ != nullptr) {
          heap_obs_->OnFree(a0, cpu_.rip, instructions_, cycles_, CurrentEpoch());
        }
      }
      if (trace_ != nullptr) {
        if (a0 != 0 && t_live_allocs_ > 0) {
          --t_live_allocs_;
        }
        trace_->Complete("free", "alloc", kGuestPid, kGuestTid,
                         static_cast<double>(hostcall_start),
                         static_cast<double>(cycles_ - hostcall_start),
                         {TraceArg{"ptr", a0}});
        trace_->Counter("heap.live_objects", kGuestPid, static_cast<double>(cycles_),
                        t_live_allocs_);
      }
      return true;
    }
    case HostFn::kMemset: {
      if (allocator_ != nullptr) {
        // guard-memcpy: pre-check the destination range against allocator
        // metadata. A violation is reported *before* any byte is written;
        // under Policy::kHarden the operation is suppressed entirely.
        const GuardOutcome g = allocator_->GuardRange(memory_, a0, a2);
        cycles_ += g.cycles;
        if (g.violation && ReportMemError(0, g.kind, g.addr)) {
          return true;
        }
      }
      memory_.Fill(a0, static_cast<uint8_t>(a1), a2);
      cycles_ += (a2 / 8) * model_.membyte_per8;
      return true;
    }
    case HostFn::kMemcpy: {
      if (allocator_ != nullptr) {
        const GuardOutcome gsrc = allocator_->GuardRange(memory_, a1, a2);
        const GuardOutcome gdst = allocator_->GuardRange(memory_, a0, a2);
        cycles_ += gsrc.cycles + gdst.cycles;
        const GuardOutcome& g = gsrc.violation ? gsrc : gdst;
        if (g.violation && ReportMemError(0, g.kind, g.addr)) {
          return true;
        }
      }
      std::vector<uint8_t> buf(a2);
      memory_.ReadBytes(a1, buf.data(), buf.size());
      memory_.WriteBytes(a0, buf.data(), buf.size());
      cycles_ += (a2 / 8) * model_.membyte_per8;
      return true;
    }
    case HostFn::kInputU64:
      cpu_.Set(Reg::kRax, input_pos_ < inputs_.size() ? inputs_[input_pos_++] : 0);
      return true;
    case HostFn::kOutputU64:
      outputs_.push_back(a0);
      return true;
    case HostFn::kRandU64:
      cpu_.Set(Reg::kRax, rng_.Next());
      return true;
    case HostFn::kNumHostFns:
      break;
  }
  *fault = StrFormat("bad hostcall %u", static_cast<unsigned>(fn));
  return false;
}

bool Vm::ExecuteOne(const Exec& ex, std::string* fault) {
  const Instruction& in = ex.insn;
  const uint64_t next_rip = cpu_.rip + ex.length;
  uint64_t new_rip = next_rip;
  Flags& f = cpu_.flags;

  auto do_add = [&](uint64_t a, uint64_t b) { return AddWithFlags(f, a, b); };
  auto do_sub = [&](uint64_t a, uint64_t b) { return SubWithFlags(f, a, b); };
  const uint64_t imm_se = static_cast<uint64_t>(in.imm);  // already sign-extended

  switch (in.op) {
    case Op::kNop:
      cycles_ += model_.basic;
      break;
    case Op::kHlt:
      halt_ = true;
      halt_reason_ = HaltReason::kHlt;
      return true;
    case Op::kUd2:
      *fault = StrFormat("ud2 at 0x%llx", static_cast<unsigned long long>(cpu_.rip));
      return false;
    case Op::kMovRI:
      cpu_.Set(in.r0, imm_se);
      cycles_ += model_.basic;
      break;
    case Op::kMovRR:
      cpu_.Set(in.r0, cpu_.Get(in.r1));
      cycles_ += model_.basic;
      break;
    case Op::kLoad: {
      const uint64_t addr = ComputeEffectiveAddress(cpu_, in.mem, next_rip);
      cpu_.Set(in.r0, memory_.Read(addr, in.mem.access_size()));
      ++explicit_reads_;
      cycles_ += model_.mem;
      break;
    }
    case Op::kStoreR: {
      const uint64_t addr = ComputeEffectiveAddress(cpu_, in.mem, next_rip);
      memory_.Write(addr, cpu_.Get(in.r0), in.mem.access_size());
      ++explicit_writes_;
      cycles_ += model_.mem;
      break;
    }
    case Op::kStoreI: {
      const uint64_t addr = ComputeEffectiveAddress(cpu_, in.mem, next_rip);
      memory_.Write(addr, imm_se, in.mem.access_size());
      ++explicit_writes_;
      cycles_ += model_.mem;
      break;
    }
    case Op::kLea:
      cpu_.Set(in.r0, ComputeEffectiveAddress(cpu_, in.mem, next_rip));
      cycles_ += model_.basic;
      break;
    case Op::kAddRR:
      cpu_.Set(in.r0, do_add(cpu_.Get(in.r0), cpu_.Get(in.r1)));
      cycles_ += model_.basic;
      break;
    case Op::kAddRI:
      cpu_.Set(in.r0, do_add(cpu_.Get(in.r0), imm_se));
      cycles_ += model_.basic;
      break;
    case Op::kSubRR:
      cpu_.Set(in.r0, do_sub(cpu_.Get(in.r0), cpu_.Get(in.r1)));
      cycles_ += model_.basic;
      break;
    case Op::kSubRI:
      cpu_.Set(in.r0, do_sub(cpu_.Get(in.r0), imm_se));
      cycles_ += model_.basic;
      break;
    case Op::kImulRR:
      cpu_.Set(in.r0, LogicFlags(f, cpu_.Get(in.r0) * cpu_.Get(in.r1)));
      cycles_ += model_.mul;
      break;
    case Op::kImulRI:
      cpu_.Set(in.r0, LogicFlags(f, cpu_.Get(in.r0) * imm_se));
      cycles_ += model_.mul;
      break;
    case Op::kMulhRR:
      cpu_.Set(in.r0, LogicFlags(f, MulHigh(cpu_.Get(in.r0), cpu_.Get(in.r1))));
      cycles_ += model_.mul;
      break;
    case Op::kAndRR: case Op::kAndRI:
    case Op::kOrRR: case Op::kOrRI:
    case Op::kXorRR: case Op::kXorRI: {
      const uint64_t b = (in.op == Op::kAndRR || in.op == Op::kOrRR || in.op == Op::kXorRR)
                             ? cpu_.Get(in.r1)
                             : imm_se;
      uint64_t r = cpu_.Get(in.r0);
      if (in.op == Op::kAndRR || in.op == Op::kAndRI) {
        r &= b;
      } else if (in.op == Op::kOrRR || in.op == Op::kOrRI) {
        r |= b;
      } else {
        r ^= b;
      }
      cpu_.Set(in.r0, LogicFlags(f, r));
      cycles_ += model_.basic;
      break;
    }
    case Op::kShlRI: case Op::kShrRI: case Op::kSarRI:
    case Op::kShlRR: case Op::kShrRR: {
      const unsigned c = static_cast<unsigned>(
          (in.op == Op::kShlRR || in.op == Op::kShrRR) ? (cpu_.Get(in.r1) & 63)
                                                        : (in.imm & 63));
      cycles_ += model_.basic;
      if (c == 0) {
        break;  // x86: zero shift leaves flags unchanged
      }
      uint64_t a = cpu_.Get(in.r0);
      uint64_t r;
      bool carry;
      if (in.op == Op::kShlRI || in.op == Op::kShlRR) {
        carry = ((a >> (64 - c)) & 1) != 0;
        r = a << c;
      } else if (in.op == Op::kSarRI) {
        carry = ((a >> (c - 1)) & 1) != 0;
        r = static_cast<uint64_t>(static_cast<int64_t>(a) >> c);
      } else {
        carry = ((a >> (c - 1)) & 1) != 0;
        r = a >> c;
      }
      cpu_.Set(in.r0, ShiftFlags(f, r, carry));
      break;
    }
    case Op::kCmpRR:
      (void)do_sub(cpu_.Get(in.r0), cpu_.Get(in.r1));
      cycles_ += model_.basic;
      break;
    case Op::kCmpRI:
      (void)do_sub(cpu_.Get(in.r0), imm_se);
      cycles_ += model_.basic;
      break;
    case Op::kTestRR:
      LogicFlags(f, cpu_.Get(in.r0) & cpu_.Get(in.r1));
      cycles_ += model_.basic;
      break;
    case Op::kJmp:
      new_rip = next_rip + imm_se;
      cycles_ += model_.branch;
      break;
    case Op::kJmpR:
      new_rip = cpu_.Get(in.r0);
      cycles_ += model_.call_ret;
      break;
    case Op::kJcc:
      if (CondHolds(f, in.cond)) {
        new_rip = next_rip + imm_se;
      }
      cycles_ += model_.branch;
      break;
    case Op::kCall: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp) - 8;
      cpu_.Set(Reg::kRsp, rsp);
      memory_.WriteU64(rsp, next_rip);
      new_rip = next_rip + imm_se;
      cycles_ += model_.call_ret;
      break;
    }
    case Op::kCallR: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp) - 8;
      cpu_.Set(Reg::kRsp, rsp);
      memory_.WriteU64(rsp, next_rip);
      new_rip = cpu_.Get(in.r0);
      cycles_ += model_.call_ret;
      break;
    }
    case Op::kRet: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp);
      new_rip = memory_.ReadU64(rsp);
      cpu_.Set(Reg::kRsp, rsp + 8);
      cycles_ += model_.call_ret;
      break;
    }
    case Op::kPush: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp) - 8;
      cpu_.Set(Reg::kRsp, rsp);
      memory_.WriteU64(rsp, cpu_.Get(in.r0));
      cycles_ += model_.push_pop;
      break;
    }
    case Op::kPop: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp);
      cpu_.Set(in.r0, memory_.ReadU64(rsp));
      cpu_.Set(Reg::kRsp, rsp + 8);
      cycles_ += model_.push_pop;
      break;
    }
    case Op::kPushf: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp) - 8;
      cpu_.Set(Reg::kRsp, rsp);
      memory_.WriteU64(rsp, f.Pack());
      cycles_ += model_.push_pop;
      break;
    }
    case Op::kPopf: {
      const uint64_t rsp = cpu_.Get(Reg::kRsp);
      f.Unpack(memory_.ReadU64(rsp));
      cpu_.Set(Reg::kRsp, rsp + 8);
      cycles_ += model_.push_pop;
      break;
    }
    case Op::kHostCall:
      if (!DoHostCall(static_cast<HostFn>(in.imm), fault)) {
        return false;
      }
      if (halt_) {
        return true;
      }
      break;
    case Op::kTrap: {
      const uint8_t code = static_cast<uint8_t>(in.imm & 0xff);
      const uint32_t arg = static_cast<uint32_t>(static_cast<uint64_t>(in.imm) >> 8);
      switch (static_cast<TrapCode>(code)) {
        case TrapCode::kMemError: {
          const bool has_addr = pending_err_has_addr_;
          const uint64_t addr = pending_err_addr_;
          pending_err_has_addr_ = false;
          const bool abort =
              has_addr ? ReportMemError(ErrorArgSite(arg), ErrorArgKind(arg), addr)
                       : ReportMemError(ErrorArgSite(arg), ErrorArgKind(arg));
          if (abort) {
            return true;
          }
          break;
        }
        case TrapCode::kErrAddr:
          pending_err_addr_ = cpu_.Get(static_cast<Reg>(arg));
          pending_err_has_addr_ = true;
          break;
        case TrapCode::kProfPass:
          ++prof_counts_[arg].passes;
          if (tshard_ != nullptr) {
            tshard_->AddSite(arg, SiteEvent::kLowFatPasses);
          }
          break;
        case TrapCode::kProfFail:
          ++prof_counts_[arg].fails;
          if (tshard_ != nullptr) {
            tshard_->AddSite(arg, SiteEvent::kLowFatFails);
          }
          break;
        case TrapCode::kAssertFail:
          halt_ = true;
          halt_reason_ = HaltReason::kAssertFail;
          exit_status_ = arg;
          return true;
        default:
          *fault = StrFormat("bad trap code %u", code);
          return false;
      }
      break;
    }
    case Op::kCount:
      ++counters_[static_cast<uint32_t>(in.imm)];
      if (tshard_ != nullptr || trace_ != nullptr || sampler_ != nullptr) {
        OnCountSite(static_cast<uint32_t>(in.imm));
      }
      break;  // zero cycles: measurement only
    case Op::kInvalid:
    case Op::kNumOps:
      *fault = "invalid opcode";
      return false;
  }
  cpu_.rip = new_rip;
  return true;
}

inline bool Vm::Observe(const Exec& ex, uint64_t addr) {
  if (ex.obs != kObsCharge) {
    cpu_.rip = addr;  // reports carry it
    if (ex.obs == kObsCheck) {
      observer_->Check(*this, addr, ex.insn);
    } else {
      cycles_ += observer_->OnInstruction(*this, addr, ex.insn);
    }
  }
  // After the check, as the stepper adds OnInstruction's return value: a
  // report's trace timestamp excludes the charge, a halt includes it.
  cycles_ += ex.obs_cycles;
  return !halt_;
}

template <bool kObserved>
size_t Vm::ExecSpecsImpl(Exec* execs, size_t count, size_t budget,
                         std::string* fault, bool* faulted) {
  const size_t n = count < budget ? count : budget;
  if (n == 0) {
    return 0;
  }
  // Handler addresses in SpecOp order (GNU labels-as-values). Every handler
  // ends in its own indirect jump to the next one, so the host predicts each
  // guest instruction's successor apart from the others'.
  static const void* const kDispatch[] = {
      &&generic, &&nop, &&mov_ri, &&mov_rr, &&lea, &&load, &&store_r, &&store_i,
      &&add_rr, &&add_ri, &&sub_rr, &&sub_ri, &&and_rr, &&and_ri, &&or_rr, &&or_ri,
      &&xor_rr, &&xor_ri, &&shl_ri, &&shr_ri, &&sar_ri, &&imul_rr, &&imul_ri, &&mulh_rr,
      &&cmp_rr, &&cmp_ri, &&test_rr, &&count_site, &&cmp_rr_jcc, &&cmp_ri_jcc, &&test_rr_jcc,
      &&jmp, &&jcc, &&jmp_r, &&call, &&call_r, &&ret, &&push, &&pop,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kNumSpecOps);
  uint64_t* const regs = cpu_.regs;
  Flags& f = cpu_.flags;
  const CycleModel& m = model_;
  // The counters live in locals for the whole call: guest stores write
  // through uint8_t*, which may alias *this, so member counters would be
  // loaded and stored on every instruction. They are written back before
  // code that reads them runs (ExecuteOne, an observer call) and on every
  // return.
  uint64_t insns = instructions_;
  uint64_t cycles = cycles_;
  uint64_t reads = explicit_reads_;
  uint64_t writes = explicit_writes_;
  auto write_back = [&] {
    instructions_ = insns;
    cycles_ = cycles;
    explicit_reads_ = reads;
    explicit_writes_ = writes;
  };
  auto reload = [&] {
    insns = instructions_;
    cycles = cycles_;
    reads = explicit_reads_;
    writes = explicit_writes_;
  };
  auto ea = [regs](const Spec& s) {
    uint64_t a = static_cast<uint64_t>(s.disp);
    if (s.base != 0xff) {
      a += regs[s.base];
    }
    if (s.idx != 0xff) {
      a += regs[s.idx] << s.scale;
    }
    return a;
  };
  Exec* ex = execs;
  Exec* const end = execs + n;
  const Spec* s = nullptr;  // &ex->spec

// Enters *ex: the observer's part first (a charge-only plan just adds its
// cycles to the local), then the handler.
#define REDFAT_ENTER()                  \
  do {                                  \
    if (kObserved) {                    \
      if (ex->obs != kObsCharge) {      \
        goto observe;                   \
      }                                 \
      cycles += ex->obs_cycles;         \
    }                                   \
    ++insns;                            \
    s = &ex->spec;                      \
    goto *kDispatch[s->op];             \
  } while (0)
// Straight-line successor: the next exec, or the straight exit.
#define REDFAT_NEXT()                   \
  do {                                  \
    if (++ex == end) {                  \
      goto straight;                    \
    }                                   \
    REDFAT_ENTER();                     \
  } while (0)
// A control transfer ends a block, or a trace segment. Inside a trace lap,
// go on only if it reached the next segment's entry (the guard); otherwise
// exit with rip at the actual target.
#define REDFAT_TRANSFER(target)                                    \
  do {                                                             \
    cpu_.rip = (target);                                           \
    if (++ex == end || ex->spec.next - ex->length != cpu_.rip) {   \
      goto left;                                                   \
    }                                                              \
    REDFAT_ENTER();                                                \
  } while (0)

  REDFAT_ENTER();

observe:
  // A planned check or an unplanned call, which read the counters and may
  // add cycles or halt the run.
  write_back();
  if (!Observe(*ex, ex->spec.next - ex->length)) {
    return static_cast<size_t>(ex - execs);  // rip is this instruction's
  }
  reload();
  ++insns;
  s = &ex->spec;
  goto *kDispatch[s->op];

nop:
  cycles += m.basic;
  REDFAT_NEXT();
mov_ri:
  regs[s->r0] = static_cast<uint64_t>(s->imm);
  cycles += m.basic;
  REDFAT_NEXT();
mov_rr:
  regs[s->r0] = regs[s->r1];
  cycles += m.basic;
  REDFAT_NEXT();
lea:
  regs[s->r0] = ea(*s);
  cycles += m.basic;
  REDFAT_NEXT();
load:
  regs[s->r0] = memory_.ReadFast(ea(*s), s->size);
  ++reads;
  cycles += m.mem;
  REDFAT_NEXT();
store_r:
  memory_.WriteFast(ea(*s), regs[s->r0], s->size);
  ++writes;
  cycles += m.mem;
  REDFAT_NEXT();
store_i:
  memory_.WriteFast(ea(*s), static_cast<uint64_t>(s->imm), s->size);
  ++writes;
  cycles += m.mem;
  REDFAT_NEXT();
add_rr:
  regs[s->r0] = AddWithFlags(f, regs[s->r0], regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
add_ri:
  regs[s->r0] = AddWithFlags(f, regs[s->r0], static_cast<uint64_t>(s->imm));
  cycles += m.basic;
  REDFAT_NEXT();
sub_rr:
  regs[s->r0] = SubWithFlags(f, regs[s->r0], regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
sub_ri:
  regs[s->r0] = SubWithFlags(f, regs[s->r0], static_cast<uint64_t>(s->imm));
  cycles += m.basic;
  REDFAT_NEXT();
and_rr:
  regs[s->r0] = LogicFlags(f, regs[s->r0] & regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
and_ri:
  regs[s->r0] = LogicFlags(f, regs[s->r0] & static_cast<uint64_t>(s->imm));
  cycles += m.basic;
  REDFAT_NEXT();
or_rr:
  regs[s->r0] = LogicFlags(f, regs[s->r0] | regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
or_ri:
  regs[s->r0] = LogicFlags(f, regs[s->r0] | static_cast<uint64_t>(s->imm));
  cycles += m.basic;
  REDFAT_NEXT();
xor_rr:
  regs[s->r0] = LogicFlags(f, regs[s->r0] ^ regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
xor_ri:
  regs[s->r0] = LogicFlags(f, regs[s->r0] ^ static_cast<uint64_t>(s->imm));
  cycles += m.basic;
  REDFAT_NEXT();
shl_ri: {
  cycles += m.basic;
  const unsigned c = static_cast<unsigned>(s->imm & 63);
  if (c != 0) {  // x86: zero shift leaves flags unchanged
    const uint64_t a = regs[s->r0];
    regs[s->r0] = ShiftFlags(f, a << c, ((a >> (64 - c)) & 1) != 0);
  }
  REDFAT_NEXT();
}
shr_ri: {
  cycles += m.basic;
  const unsigned c = static_cast<unsigned>(s->imm & 63);
  if (c != 0) {
    const uint64_t a = regs[s->r0];
    regs[s->r0] = ShiftFlags(f, a >> c, ((a >> (c - 1)) & 1) != 0);
  }
  REDFAT_NEXT();
}
sar_ri: {
  cycles += m.basic;
  const unsigned c = static_cast<unsigned>(s->imm & 63);
  if (c != 0) {
    const uint64_t a = regs[s->r0];
    regs[s->r0] = ShiftFlags(f, static_cast<uint64_t>(static_cast<int64_t>(a) >> c),
                             ((a >> (c - 1)) & 1) != 0);
  }
  REDFAT_NEXT();
}
imul_rr:
  regs[s->r0] = LogicFlags(f, regs[s->r0] * regs[s->r1]);
  cycles += m.mul;
  REDFAT_NEXT();
imul_ri:
  regs[s->r0] = LogicFlags(f, regs[s->r0] * static_cast<uint64_t>(s->imm));
  cycles += m.mul;
  REDFAT_NEXT();
mulh_rr:
  regs[s->r0] = LogicFlags(f, MulHigh(regs[s->r0], regs[s->r1]));
  cycles += m.mul;
  REDFAT_NEXT();
cmp_rr:
  (void)SubWithFlags(f, regs[s->r0], regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
cmp_ri:
  (void)SubWithFlags(f, regs[s->r0], static_cast<uint64_t>(s->imm));
  cycles += m.basic;
  REDFAT_NEXT();
test_rr:
  (void)LogicFlags(f, regs[s->r0] & regs[s->r1]);
  cycles += m.basic;
  REDFAT_NEXT();
count_site: {
  // Zero cycles: measurement only. The counter cell pointer is cached in the
  // spec on first execution (unordered_map values are node-stable);
  // inserting it eagerly at decode time would create zero-count entries the
  // step engine never makes.
  Spec& sm = ex->spec;
  uint64_t* cell = reinterpret_cast<uint64_t*>(sm.target);
  if (cell == nullptr) {
    cell = &counters_[static_cast<uint32_t>(sm.imm)];
    sm.target = reinterpret_cast<uint64_t>(cell);
  }
  ++*cell;
  if (tshard_ != nullptr || trace_ != nullptr || sampler_ != nullptr) {
    OnCountSite(static_cast<uint32_t>(sm.imm));
  }
  REDFAT_NEXT();
}
// cmp/test+jcc, fused only when the budget covers both halves; otherwise the
// compare runs alone and the Jcc re-enters as its own (tail) block.
cmp_rr_jcc:
  (void)SubWithFlags(f, regs[s->r0], regs[s->r1]);
  goto fused_jcc;
cmp_ri_jcc:
  (void)SubWithFlags(f, regs[s->r0], static_cast<uint64_t>(s->imm));
  goto fused_jcc;
test_rr_jcc:
  (void)LogicFlags(f, regs[s->r0] & regs[s->r1]);
fused_jcc:
  cycles += m.basic;
  if (end - ex < 2) {
    REDFAT_NEXT();
  }
  ++ex;  // the Jcc half
  ++insns;
  if (kObserved) {
    cycles += ex->obs_cycles;  // only charge-only Jccs fuse
  }
  cycles += m.branch;
  REDFAT_TRANSFER(CondHolds(f, static_cast<Cond>(ex->spec.cond)) ? ex->spec.target
                                                                   : ex->spec.next);
jmp:
  cycles += m.branch;
  REDFAT_TRANSFER(s->target);
jcc:
  cycles += m.branch;
  REDFAT_TRANSFER(CondHolds(f, static_cast<Cond>(s->cond)) ? s->target : s->next);
jmp_r:
  cycles += m.call_ret;
  REDFAT_TRANSFER(regs[s->r0]);
call: {
  const uint64_t rsp = regs[4] - 8;  // 4 = RegIndex(kRsp)
  regs[4] = rsp;
  memory_.WriteFast(rsp, s->next, 8);
  cycles += m.call_ret;
  REDFAT_TRANSFER(s->target);
}
call_r: {
  const uint64_t rsp = regs[4] - 8;
  regs[4] = rsp;
  memory_.WriteFast(rsp, s->next, 8);
  cycles += m.call_ret;
  REDFAT_TRANSFER(regs[s->r0]);  // after the push, like the reference
}
ret: {
  const uint64_t rsp = regs[4];
  const uint64_t target = memory_.ReadFast(rsp, 8);
  regs[4] = rsp + 8;
  cycles += m.call_ret;
  REDFAT_TRANSFER(target);
}
push: {
  const uint64_t rsp = regs[4] - 8;
  regs[4] = rsp;
  memory_.WriteFast(rsp, regs[s->r0], 8);
  cycles += m.push_pop;
  REDFAT_NEXT();
}
pop: {
  const uint64_t rsp = regs[4];
  regs[s->r0] = memory_.ReadFast(rsp, 8);
  regs[4] = rsp + 8;  // after the load, so `pop rsp` matches the reference
  cycles += m.push_pop;
  REDFAT_NEXT();
}
generic:
  // The reference interpreter needs rip materialized (it computes next_rip
  // itself and reporting paths read it) and the counters current.
  cpu_.rip = s->next - ex->length;
  write_back();
  if (!ExecuteOne(*ex, fault)) {
    *faulted = true;
    return static_cast<size_t>(ex - execs);  // instructions_ counts the faulting one
  }
  if (halt_) {
    return static_cast<size_t>(ex - execs) + 1;  // rip set by ExecuteOne
  }
  reload();
  REDFAT_NEXT();

straight:
  // Budget cap, or a block that ends without control flow: fall through to
  // the next address.
  cpu_.rip = ex[-1].spec.next;
left:
  write_back();
  return static_cast<size_t>(ex - execs);
#undef REDFAT_ENTER
#undef REDFAT_NEXT
#undef REDFAT_TRANSFER
}

void Vm::BeginTraceRecording(Block* head) {
  trace_recording_ = true;
  trace_head_ = head;
  trace_rec_ = Trace{};
  trace_rec_.entry = head->entry;
}

void Vm::RecordTraceBlock(const Block& b, uint64_t next_rip) {
  if (trace_rec_.segments != 0 && b.entry == trace_rec_.entry) {
    FinishTraceRecording(true);  // arrived back at the head: a closed loop
    return;
  }
  const Exec* const execs = ExecsOf(b);
  trace_rec_.execs.insert(trace_rec_.execs.end(), execs, execs + b.count);
  ++trace_rec_.segments;
  const uint32_t end = static_cast<uint32_t>(trace_rec_.execs.size());
  if (trace_rec_.range_of.empty() || trace_rec_.range_of.back() != b.range) {
    trace_rec_.range_of.push_back(b.range);
    trace_rec_.range_end.push_back(end);
  } else {
    trace_rec_.range_end.back() = end;
  }
  if (IsControlFlow(execs[b.count - 1].insn.op)) {
    trace_rec_.cf_pos.push_back(end - 1);
  }
  if (next_rip == trace_rec_.entry || trace_rec_.segments >= kMaxTraceSegments ||
      trace_rec_.execs.size() >= kMaxTraceInsns) {
    FinishTraceRecording(true);
  }
}

void Vm::FinishTraceRecording(bool bake) {
  trace_recording_ = false;
  Block* head = trace_head_;  // a flush ends the recording, so it is live
  if (bake && trace_rec_.segments >= 2 && traces_.size() < kMaxTraces) {
    head->trace = static_cast<int32_t>(traces_.size());
    const uint64_t segs = trace_rec_.segments;
    traces_.push_back(std::make_unique<Trace>(std::move(trace_rec_)));
    ++dispatch_.traces_formed;
    dispatch_.trace_len.sum += segs;
    ++dispatch_.trace_len.buckets[HistogramBucketIndex(segs)];
  } else {
    head->trace = -2;  // don't retry a head that can't form a useful trace
  }
  trace_rec_ = Trace{};
  trace_head_ = nullptr;
}

size_t Vm::ExecPlain(Exec* execs, size_t n, std::string* fault, bool* faulted) {
  for (size_t i = 0; i < n; ++i) {
    if (observer_ != nullptr && !Observe(execs[i], cpu_.rip)) {
      return i;  // observer reported a fatal memory error (Policy::kHarden)
    }
    ++instructions_;
    if (!ExecuteOne(execs[i], fault)) {
      *faulted = true;
      return i;
    }
    if (halt_) {
      return i + 1;
    }
  }
  return n;
}

uint64_t Vm::NextBoundary() const {
  uint64_t stop_at = instruction_limit_;
  if (epoch_every_ != 0 && epoch_next_ < stop_at) {
    stop_at = epoch_next_;
  }
  if (sampler_ != nullptr && sampler_next_ < stop_at) {
    stop_at = sampler_next_;
  }
  return stop_at;
}

void Vm::RunBoundaryHooks() {
  if (sampler_ != nullptr && instructions_ == sampler_next_) {
    TakeSampleNow();
  }
  if (epoch_every_ != 0 && instructions_ == epoch_next_) {
    epoch_hook_();
    epoch_next_ += epoch_every_;
  }
}

void Vm::RecordTraceSuperblocks(const Trace& t, size_t from, size_t done) {
  size_t start = from;  // first exec not yet added to sb_run_len_
  for (const uint32_t cf : t.cf_pos) {
    if (cf < from) {
      continue;
    }
    if (cf >= from + done) {
      break;
    }
    h_superblock_len_->Record(sb_run_len_ + cf + 1 - start);
    sb_run_len_ = 0;
    start = cf + 1;
  }
  sb_run_len_ += from + done - start;
}

bool Vm::ExecTrace(Trace& t, bool track_tramp, bool track_sb, std::string* fault) {
  ++dispatch_.trace_runs;
  const size_t total = t.execs.size();
  for (;;) {
    // One ExecSpecs call covers the lap. It splits where an instruction
    // budget ends (a sample or epoch is then taken in place), and with a
    // sink attached where the range changes, so EnterRange lands between
    // the two instructions that change range.
    size_t pos = 0;
    size_t run = 0;
    while (pos < total) {
      if (pos != 0 && cpu_.rip != t.execs[pos].spec.next - t.execs[pos].length) {
        return true;  // guard failed at the split: rip is intact, re-dispatch
      }
      if (instructions_ >= instruction_limit_) {
        return true;  // the dispatcher halts exactly here
      }
      const size_t end = track_tramp ? t.range_end[run] : total;
      if (track_tramp) {
        EnterRange(t.range_of[run]);
      }
      const size_t len = end - pos;
      const uint64_t budget = NextBoundary() - instructions_;
      const size_t n = budget < len ? static_cast<size_t>(budget) : len;
      bool faulted = false;
      const size_t done = ExecSpecs(&t.execs[pos], len, n, fault, &faulted);
      if (track_sb && done > 0) {
        RecordTraceSuperblocks(t, pos, done);
      }
      if (faulted) {
        return false;
      }
      if (halt_ || done < n) {
        return true;  // halted, or a guard failed inside the run
      }
      pos += done;
      if (pos == end) {
        ++run;
      }
      RunBoundaryHooks();
    }
    if (cpu_.rip != t.entry) {
      return true;
    }
    ++dispatch_.trace_runs;  // loop-closing trace: next lap without dispatch
  }
}

void Vm::RunStepLoop(RunResult* res) {
  std::string fault;
  // Trampoline-visit tracking is only worth per-instruction work when a sink
  // is attached AND the loaded image actually has trampoline code. The
  // sampler counts as a sink: sample attribution reads the t_* visit state.
  const bool track_tramp =
      (tshard_ != nullptr || trace_ != nullptr || sampler_ != nullptr) &&
      !tramp_ranges_.empty();
  const bool track_sb = h_superblock_len_ != nullptr;
  while (!halt_) {
    if (instructions_ >= instruction_limit_) {
      halt_reason_ = HaltReason::kInstrLimit;
      break;
    }
    if (track_tramp) {
      EnterRange(TrampRangeAt(cpu_.rip));
    }
    const Exec* ex = FetchDecode(cpu_.rip, &fault);
    if (ex == nullptr) {
      halt_reason_ = HaltReason::kFault;
      res->fault_message = fault;
      break;
    }
    if (observer_ != nullptr) {
      cycles_ += observer_->OnInstruction(*this, cpu_.rip, ex->insn);
      if (halt_) {
        break;  // observer reported a fatal memory error (Policy::kHarden)
      }
    }
    ++instructions_;
    if (!ExecuteOne(*ex, &fault)) {
      halt_reason_ = HaltReason::kFault;
      res->fault_message = fault;
      break;
    }
    if (track_sb) {
      ++sb_run_len_;
      if (IsControlFlow(ex->insn.op)) {
        h_superblock_len_->Record(sb_run_len_);
        sb_run_len_ = 0;
      }
    }
    RunBoundaryHooks();
  }
}

void Vm::RunBlockLoop(RunResult* res) {
  std::string fault;
  const bool track_tramp =
      (tshard_ != nullptr || trace_ != nullptr || sampler_ != nullptr) &&
      !tramp_ranges_.empty();
  const bool track_sb = h_superblock_len_ != nullptr;
  const bool form_traces = chain_ && spec_;
  patch_from_ = nullptr;
  while (!halt_) {
    if (instructions_ >= instruction_limit_) {
      halt_reason_ = HaltReason::kInstrLimit;
      break;
    }
    Block* block = FetchBlock(cpu_.rip, &fault);
    if (block == nullptr) {
      if (track_tramp) {
        EnterRange(TrampRangeAt(cpu_.rip));  // the stepper classifies before fetching
      }
      halt_reason_ = HaltReason::kFault;
      res->fault_message = fault;
      break;
    }
    // Blocks never span a trampoline/inline-region boundary and end at every
    // control transfer, so rip's range can only change at a block entry:
    // the visit bookkeeping on each edge into a block (here, on link
    // follows and between a trace's same-range runs) is exactly the step
    // engine's per-instruction check.
    if (track_tramp) {
      EnterRange(block->range);
    }
    if (patch_from_ != nullptr) {
      // Direct linking: the predecessor's exit slot now transfers straight
      // to this block on its next visit.
      patch_from_->succ[patch_slot_] = block;
      ++dispatch_.links_patched;
      patch_from_ = nullptr;
    }
    // ---- chained steady state: control stays in this loop across links ----
    for (;;) {
      if (form_traces) {
        if (block->trace >= 0) {
          if (trace_recording_) {
            // A trace executes opaque to recording; close the pending one.
            FinishTraceRecording(true);
          }
          if (!ExecTrace(*traces_[block->trace], track_tramp, track_sb, &fault)) {
            halt_reason_ = HaltReason::kFault;
            res->fault_message = fault;
            return;
          }
          RunBoundaryHooks();  // one due after a halting instruction
          break;  // re-dispatch at the trace's exit rip
        }
        if (!trace_recording_ && block->trace == -1 &&
            traces_.size() < kMaxTraces && ++block->hits >= kTraceThreshold) {
          BeginTraceRecording(block);
        }
      }
      // Cap each call at the next instruction limit, epoch or sample
      // boundary, so they land on the exact same instruction as under the
      // step engine. A sample or epoch is taken in place and the block goes
      // on; at the limit its tail re-enters through FetchBlock (as a fresh
      // tail block) if the run resumes.
      Exec* const execs = ExecsOf(*block);
      const size_t total = block->count;
      size_t executed = 0;
      for (;;) {
        const uint64_t stop_at = NextBoundary();
        const uint64_t budget = instructions_ < stop_at ? stop_at - instructions_ : 0;
        const size_t left = total - executed;
        const size_t n = budget < left ? static_cast<size_t>(budget) : left;
        bool faulted = false;
        const size_t done = spec_ ? ExecSpecs(execs + executed, left, n, &fault, &faulted)
                                  : ExecPlain(execs + executed, n, &fault, &faulted);
        executed += done;
        if (track_sb && done > 0) {
          // Control flow only ever terminates a block, so the executed part
          // is straight-line except possibly the block's last instruction:
          // one check here is exactly the step engine's per-insn check. (A
          // fused cmp+jcc only completes as a pair, so `executed == total`
          // still indexes the block's real last instruction.)
          sb_run_len_ += done;
          if (IsControlFlow(execs[executed - 1].insn.op)) {
            h_superblock_len_->Record(sb_run_len_);
            sb_run_len_ = 0;
          }
        }
        if (faulted) {
          if (trace_recording_) {
            FinishTraceRecording(true);
          }
          halt_reason_ = HaltReason::kFault;
          res->fault_message = fault;
          return;
        }
        RunBoundaryHooks();
        if (halt_ || done < n || executed == total || instructions_ >= instruction_limit_) {
          break;
        }
      }
      const bool full = !halt_ && executed == total;
      if (trace_recording_) {
        if (full) {
          RecordTraceBlock(*block, cpu_.rip);
        } else {
          FinishTraceRecording(true);  // bakes only if >= 2 segments made it
        }
      }
      if (!full || !chain_) {
        if (chain_) {
          ++dispatch_.chain_exits;
        }
        break;
      }
      const int slot = cpu_.rip == block->fall_rip ? 0 : 1;
      Block* nxt = block->succ[slot];
      if (nxt != nullptr && nxt->entry == cpu_.rip) {
        // Validated link: transfer block -> block with no dispatcher work,
        // into or out of a trampoline too.
        ++dispatch_.block_chains;
        if (track_tramp && nxt->range != block->range) {
          EnterRange(nxt->range);
        }
        block = nxt;
        continue;
      }
      patch_from_ = block;
      patch_slot_ = slot;
      ++dispatch_.chain_exits;
      break;
    }
  }
}

RunResult Vm::Run() {
  halt_ = false;
  RunResult res;
  if (engine_ == VmEngine::kBlock) {
    RunBlockLoop(&res);
  } else {
    RunStepLoop(&res);
  }
  if (t_in_tramp_) {
    FlushTrampolineVisit();  // run ended (halt/fault/limit) inside a trampoline
  }
  if (telemetry_ != nullptr && t_tramp_cycles_ > t_tramp_reported_) {
    telemetry_->AddCounter("vm.trampoline_cycles", t_tramp_cycles_ - t_tramp_reported_);
    t_tramp_reported_ = t_tramp_cycles_;
  }
  if (telemetry_ != nullptr && t_inline_cycles_ > t_inline_reported_) {
    telemetry_->AddCounter("vm.inline_check_cycles", t_inline_cycles_ - t_inline_reported_);
    t_inline_reported_ = t_inline_cycles_;
  }
  res.reason = halt_reason_;
  res.exit_status = exit_status_;
  res.instructions = instructions_;
  res.cycles = cycles_;
  res.explicit_reads = explicit_reads_;
  res.explicit_writes = explicit_writes_;
  return res;
}

}  // namespace redfat
