#include "src/core/codegen.h"

#include <algorithm>
#include <array>
#include <functional>
#include <string_view>

#include "src/support/check.h"

namespace redfat {

namespace {

struct Scratch {
  Reg t0, t1, t2, t3;
};

// An ordered register set in a fixed array, deduplicated by a bit mask.
struct RegList {
  std::array<Reg, kNumGprs> regs{};
  size_t size = 0;
  uint32_t mask = 0;

  bool Contains(Reg r) const { return ((mask >> RegIndex(r)) & 1u) != 0; }
  void Add(Reg r) {
    REDFAT_CHECK(IsGpr(r));
    if (!Contains(r)) {
      regs[size++] = r;
      mask |= 1u << RegIndex(r);
    }
  }
  const Reg* begin() const { return regs.data(); }
  const Reg* end() const { return regs.data() + size; }
};

using Hole = PayloadStencils::Hole;

// Notes, when a stencil is being recorded, that the instruction just emitted
// ends in `hole`'s field (every hole is the last field of its instruction).
void Mark(const Assembler& as, std::vector<Hole>* holes, Hole hole) {
  if (holes != nullptr) {
    hole.offset = static_cast<uint32_t>(as.SizeBytes() - 4);
    holes->push_back(hole);
  }
}

// Picks 4 scratch registers for one check body: anything but rsp and the
// operand's own base/index. Registers appearing earlier in `preference`
// (dead registers first) are chosen first so that saves are minimized.
Scratch PickScratch(const PlannedCheck& check, const RegList& preference) {
  Reg picks[4];
  size_t n = 0;
  for (Reg r : preference) {
    if (r == Reg::kRsp || r == check.mem.base || r == check.mem.index) {
      continue;
    }
    picks[n++] = r;
    if (n == 4) {
      return Scratch{picks[0], picks[1], picks[2], picks[3]};
    }
  }
  REDFAT_FATAL("fewer than 4 scratch registers");
}

// STEP 1 of both bodies: t0 = LB, the effective address of the (possibly
// widened) operand. A rip-relative lea executes inside the trampoline but
// must produce the address the original instruction would have; an
// rsp-relative one skips the bytes the save prologue pushed.
void EmitLowerBound(Assembler& as, const PlannedCheck& check, uint32_t c, Reg t0,
                    int32_t stack_bias, std::vector<Hole>* holes) {
  MemOperand lb = check.mem;
  lb.size_log2 = 0;  // lea ignores the access size
  if (lb.rip_relative()) {
    as.EmitRipRelative({.op = Op::kLea, .r0 = t0, .mem = lb},
                       check.anchor_next + static_cast<uint64_t>(int64_t{lb.disp}));
    Mark(as, holes, {.kind = Hole::Kind::kRipTarget, .check = c});
    return;
  }
  const int32_t bias = lb.base == Reg::kRsp ? stack_bias : 0;
  lb.disp += bias;
  as.Lea(t0, lb);
  Mark(as, holes, {.kind = Hole::Kind::kDisp, .check = c, .arg = bias});
}

// Emits the ASAN-style alternative body (RedzoneImpl::kShadow): a shadow
// byte lookup for the redzone/UAF state, then (for full-check sites) a
// naive concatenated LowFat class-bounds check. This is the "simply
// concatenate the two schemas" design §4 argues against: two separate
// lookups, and no malloc-size metadata so padding overflows are invisible.
void EmitShadowCheckBody(Assembler& as, const PlannedCheck& check, uint32_t c,
                         const Scratch& s, int32_t stack_bias, std::vector<Hole>* holes) {
  const Reg t0 = s.t0;
  const Reg t1 = s.t1;
  const Reg t2 = s.t2;
  const Reg t3 = s.t3;
  const uint32_t site = check.member_sites.front();
  EmitLowerBound(as, check, c, t0, stack_bias, holes);

  const auto done = as.NewLabel();
  const auto end = as.NewLabel();
  const auto err_bounds = as.NewLabel();
  const auto err_uaf = as.NewLabel();
  const auto lowfat_part = as.NewLabel();

  // state_shadow(ptr) = *(SHADOW_MAP + ptr/8)
  as.MovRR(t1, t0);
  as.ShrI(t1, 3);
  as.MovRI(t3, kGuestShadowBase);
  as.Load(t2, MemBIS(t3, t1, 0, 0, /*size_log2=*/0));
  as.Test(t2, t2);
  as.Jcc(Cond::kEq, lowfat_part);
  as.CmpI(t2, static_cast<int32_t>(GuestShadow::kFreed));
  as.Jcc(Cond::kEq, err_uaf);
  as.Jmp(err_bounds);

  as.Bind(lowfat_part);
  if (check.kind == CheckKind::kFull) {
    // Naive (LowFat) schema: class bounds only (no malloc size available).
    as.MovRR(t3, check.mem.base);
    as.MovRR(t1, t3);
    as.ShrI(t1, kRegionShift);
    as.CmpI(t1, static_cast<int32_t>(kNumRegions));
    as.Jcc(Cond::kUge, done);
    as.Load(t2, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kSizesTableAddr)));
    as.Test(t2, t2);
    as.Jcc(Cond::kEq, done);
    as.Load(t1, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kMagicsTableAddr)));
    as.Mulh(t3, t1);
    as.Imul(t3, t2);  // BASE (slot start)
    as.Cmp(t0, t3);
    as.Jcc(Cond::kUlt, err_bounds);
    as.Add(t3, t2);  // BASE + class size
    as.MovRR(t1, t0);
    as.AddI(t1, static_cast<int32_t>(check.access_len));
    Mark(as, holes, {.kind = Hole::Kind::kAccessLen, .check = c});
    as.Cmp(t1, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  }
  as.Jmp(end);
  // t0 still holds LB (never clobbered after STEP 1), so the error stubs
  // can hand the faulting address to the VM for forensics.
  as.Bind(err_uaf);
  as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
  as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kUaf));
  Mark(as, holes, {.kind = Hole::Kind::kErrorArg, .error = ErrorKind::kUaf, .check = c});
  as.Jmp(end);
  as.Bind(err_bounds);
  as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
  as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kBounds));
  Mark(as, holes, {.kind = Hole::Kind::kErrorArg, .error = ErrorKind::kBounds, .check = c});
  as.Bind(done);
  as.Bind(end);
}

// Emits one check body. `stack_bias` is the number of bytes pushed by the
// save prologue (rsp-relative operands must be rebased).
void EmitCheckBody(Assembler& as, const PlannedCheck& check, uint32_t c, const Scratch& s,
                   const RedFatOptions& opts, int32_t stack_bias, std::vector<Hole>* holes) {
  if (opts.redzone_impl == RedzoneImpl::kShadow) {
    REDFAT_CHECK(opts.mode == RedFatOptions::Mode::kProduction);
    EmitShadowCheckBody(as, check, c, s, stack_bias, holes);
    return;
  }
  const Reg t0 = s.t0;  // LB
  const Reg t1 = s.t1;  // region index -> magic -> metadata SIZE
  const Reg t2 = s.t2;  // low-fat size -> scratch for UB'
  const Reg t3 = s.t3;  // n (candidate pointer) -> BASE
  const uint32_t site = check.member_sites.front();
  const bool profile = opts.mode == RedFatOptions::Mode::kProfile;

  // STEP 1: LB = effective address of the (possibly widened) operand.
  REDFAT_CHECK(check.mem.index != Reg::kRsp);
  EmitLowerBound(as, check, c, t0, stack_bias, holes);

  const auto done = as.NewLabel();  // non-fat / passing exit
  const auto end = as.NewLabel();

  // STEP 2: BASE from the pointer (LowFat) with fallback to LB (Redzone).
  const auto got_base = as.NewLabel();
  if (check.kind == CheckKind::kFull) {
    const auto try_lb = as.NewLabel();
    as.MovRR(t3, check.mem.base);  // n = ptr
    as.MovRR(t1, t3);
    as.ShrI(t1, kRegionShift);
    as.CmpI(t1, static_cast<int32_t>(kNumRegions));
    as.Jcc(Cond::kUge, try_lb);
    as.Load(t2, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kSizesTableAddr)));
    as.Test(t2, t2);
    as.Jcc(Cond::kNe, got_base);
    as.Bind(try_lb);
  }
  as.MovRR(t3, t0);  // n = LB
  as.MovRR(t1, t3);
  as.ShrI(t1, kRegionShift);
  as.CmpI(t1, static_cast<int32_t>(kNumRegions));
  as.Jcc(Cond::kUge, done);
  as.Load(t2, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kSizesTableAddr)));
  as.Test(t2, t2);
  as.Jcc(Cond::kEq, done);  // non-fat pointer: over-approximate, pass
  as.Bind(got_base);

  // BASE = (n / size) * size via the shift-free magic multiply.
  as.Load(t1, MemBIS(Reg::kNone, t1, 3, static_cast<int32_t>(kMagicsTableAddr)));
  as.Mulh(t3, t1);  // q = high64(n * magic)
  as.Imul(t3, t2);  // BASE = q * size

  // STEP 3: metadata (state/size merged: SIZE==0 means Free).
  as.Load(t1, MemAt(t3, 0));

  // STEP 4: the checks.
  const auto err_meta = as.NewLabel();
  const auto err_bounds = as.NewLabel();
  const auto err_uaf = as.NewLabel();
  if (opts.size_hardening) {
    as.SubI(t2, static_cast<int32_t>(kRedzoneSize));
    as.Cmp(t1, t2);
    as.Jcc(Cond::kUgt, err_meta);
  }
  const int32_t len = static_cast<int32_t>(check.access_len);
  if (opts.merged_ub) {
    as.AddI(t3, static_cast<int32_t>(kRedzoneSize));  // BASE+16
    as.MovRR(t2, t0);
    as.Sub(t2, t3);
    as.ShlI(t2, 32);
    as.ShrI(t2, 32);  // zext32(LB - (BASE+16))
    as.Add(t2, t3);
    as.AddI(t2, len);  // UB'
    Mark(as, holes, {.kind = Hole::Kind::kAccessLen, .check = c});
    as.Add(t3, t1);    // BASE+16+SIZE
    as.Cmp(t2, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  } else {
    as.Test(t1, t1);
    as.Jcc(Cond::kEq, err_uaf);
    as.AddI(t3, static_cast<int32_t>(kRedzoneSize));  // BASE+16
    as.Cmp(t0, t3);
    as.Jcc(Cond::kUlt, err_bounds);
    as.MovRR(t2, t0);
    as.AddI(t2, len);  // UB
    Mark(as, holes, {.kind = Hole::Kind::kAccessLen, .check = c});
    as.Add(t3, t1);    // BASE+16+SIZE
    as.Cmp(t2, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  }

  // Passing fallthrough / error stubs / non-fat exit.
  if (profile && check.kind == CheckKind::kFull) {
    as.Trap(TrapCode::kProfPass, site);
    Mark(as, holes, {.kind = Hole::Kind::kSite, .check = c});
    as.Jmp(end);
    as.Bind(err_meta);
    as.Bind(err_bounds);
    as.Bind(err_uaf);
    as.Trap(TrapCode::kProfFail, site);
    Mark(as, holes, {.kind = Hole::Kind::kSite, .check = c});
    as.Jmp(end);
    as.Bind(done);
    as.Trap(TrapCode::kProfPass, site);  // non-fat: trivially safe
    Mark(as, holes, {.kind = Hole::Kind::kSite, .check = c});
    as.Bind(end);
  } else {
    as.Jmp(end);
    // t0 still holds LB (never clobbered after STEP 1), so the error stubs
    // can hand the faulting address to the VM for forensics.
    as.Bind(err_meta);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kMeta));
    Mark(as, holes, {.kind = Hole::Kind::kErrorArg, .error = ErrorKind::kMeta, .check = c});
    as.Jmp(end);
    as.Bind(err_uaf);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kUaf));
    Mark(as, holes, {.kind = Hole::Kind::kErrorArg, .error = ErrorKind::kUaf, .check = c});
    as.Jmp(end);
    as.Bind(err_bounds);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kBounds));
    Mark(as, holes, {.kind = Hole::Kind::kErrorArg, .error = ErrorKind::kBounds, .check = c});
    as.Bind(done);
    as.Bind(end);
  }
}

// The payload; `holes`, when non-null, collects its per-site fields.
void EmitPayload(Assembler& as, const PlannedTrampoline& tramp, const ClobberInfo& clobbers,
                 const RedFatOptions& opts, std::vector<Hole>* holes) {
  // Zero-cycle dynamic coverage accounting, one counter per member site.
  for (uint32_t c = 0; c < tramp.checks.size(); ++c) {
    for (int32_t m = 0; m < static_cast<int32_t>(tramp.checks[c].member_sites.size()); ++m) {
      as.Count(tramp.checks[c].member_sites[m]);
      Mark(as, holes, {.kind = Hole::Kind::kSite, .check = c, .arg = m});
    }
  }

  // Scratch preference order: dead registers first (free), then the rest.
  // Cold-tier trampolines are demoted to the save-all discipline: their
  // runtime cost is negligible by definition, and skipping the liveness
  // data keeps the wide demoted batches uniform.
  const bool use_clobbers = opts.clobber_analysis && tramp.tier != Tier::kCold;
  RegList dead;
  if (use_clobbers) {
    for (Reg r : clobbers.dead_regs) {
      dead.Add(r);
    }
  }
  RegList preference = dead;
  for (int r = 0; r < kNumGprs; ++r) {
    preference.Add(static_cast<Reg>(r));
  }

  // Pre-pass: the union of the checks' live scratch registers needs saving.
  // PickScratch is a pure function, so the bodies below pick the same ones.
  RegList to_save;
  for (const PlannedCheck& check : tramp.checks) {
    const Scratch s = PickScratch(check, preference);
    for (Reg r : {s.t0, s.t1, s.t2, s.t3}) {
      if (!dead.Contains(r)) {
        to_save.Add(r);
      }
    }
  }
  const bool save_flags = !(use_clobbers && clobbers.flags_dead);

  // The guest may keep live data in the 128-byte red zone below rsp (leaf
  // spill slots); pushes would clobber it. Hop over it first — lea leaves
  // the flags untouched (the same trick E9Patch payloads use).
  const bool uses_stack = to_save.size != 0 || save_flags;
  constexpr int32_t kStackRedZone = 128;
  if (uses_stack) {
    as.Lea(Reg::kRsp, MemAt(Reg::kRsp, -kStackRedZone));
  }
  for (Reg r : to_save) {
    as.Push(r);
  }
  if (save_flags) {
    as.Pushf();
  }
  const int32_t stack_bias = static_cast<int32_t>(
      (uses_stack ? kStackRedZone : 0) + 8 * (to_save.size + (save_flags ? 1 : 0)));

  for (uint32_t c = 0; c < tramp.checks.size(); ++c) {
    const PlannedCheck& check = tramp.checks[c];
    EmitCheckBody(as, check, c, PickScratch(check, preference), opts, stack_bias, holes);
  }

  if (save_flags) {
    as.Popf();
  }
  for (size_t i = to_save.size; i-- > 0;) {
    as.Pop(to_save.regs[i]);
  }
  if (uses_stack) {
    as.Lea(Reg::kRsp, MemAt(Reg::kRsp, kStackRedZone));
  }
}

}  // namespace

void EmitTrampolinePayload(Assembler& as, const PlannedTrampoline& tramp,
                           const ClobberInfo& clobbers, const RedFatOptions& opts) {
  EmitPayload(as, tramp, clobbers, opts, nullptr);
}

void PayloadStencils::Emit(Assembler& as, const PlannedTrampoline& tramp,
                           const ClobberInfo& clobbers) {
  key_.assign({tramp.tier == Tier::kCold, clobbers.flags_dead,
               static_cast<uint32_t>(clobbers.dead_regs.size())});
  for (Reg r : clobbers.dead_regs) {
    key_.push_back(static_cast<uint32_t>(r));
  }
  for (const PlannedCheck& check : tramp.checks) {
    key_.push_back(static_cast<uint32_t>(check.kind) | static_cast<uint32_t>(check.mem.base) << 8 |
                   static_cast<uint32_t>(check.mem.index) << 16 | check.mem.scale_log2 << 24u);
    key_.push_back(static_cast<uint32_t>(check.member_sites.size()));
  }
  const uint64_t hash = std::hash<std::string_view>()(
      std::string_view(reinterpret_cast<const char*>(key_.data()), 4 * key_.size()));
  auto it = std::lower_bound(index_.begin(), index_.end(), std::pair(hash, uint32_t{0}));
  for (; it != index_.end() && it->first == hash; ++it) {
    const Stencil& st = stencils_[it->second];
    if (std::equal(key_.begin(), key_.end(), keys_.begin() + st.key_at,
                   keys_.begin() + st.key_end)) {
      break;
    }
  }
  if (it == index_.end() || it->first != hash) {
    // A new shape: the emitter writes the stencil and notes its holes. The
    // scratch sits where this payload goes, so its resolution of a rip hole,
    // which every instance records anew, checks the same range.
    Assembler scratch(as.Here());
    const size_t holes_at = holes_.size();
    EmitPayload(scratch, tramp, clobbers, opts_, &holes_);
    const std::vector<uint8_t> code = scratch.Finish();
    stencils_.push_back({keys_.size(), keys_.size() + key_.size(), code_.size(), code.size(),
                         holes_at, holes_.size()});
    keys_.insert(keys_.end(), key_.begin(), key_.end());
    code_.insert(code_.end(), code.begin(), code.end());
    it = index_.insert(it, {hash, static_cast<uint32_t>(stencils_.size() - 1)});
  }

  // Copy the shape's bytes, then patch this payload's values into the holes.
  const Stencil& st = stencils_[it->second];
  const size_t at = as.Append(code_.data() + st.code_at, st.code_len);
  for (size_t k = st.holes_at; k < st.holes_end; ++k) {
    const Hole& h = holes_[k];
    const PlannedCheck& check = tramp.checks[h.check];
    const size_t field = at + h.offset;
    switch (h.kind) {
      case Hole::Kind::kSite:
        as.Patch32(field, check.member_sites[static_cast<size_t>(h.arg)]);
        break;
      case Hole::Kind::kErrorArg:
        as.Patch32(field, PackErrorArg(check.member_sites.front(), h.error));
        break;
      case Hole::Kind::kAccessLen:
        as.Patch32(field, check.access_len);
        break;
      case Hole::Kind::kDisp:
        as.Patch32(field, static_cast<uint32_t>(check.mem.disp) + static_cast<uint32_t>(h.arg));
        break;
      case Hole::Kind::kRipTarget:
        as.ExternalRel32(field, field + 4,
                         check.anchor_next + static_cast<uint64_t>(int64_t{check.mem.disp}));
        break;
    }
  }
}

}  // namespace redfat

