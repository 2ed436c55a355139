#include "src/core/codegen.h"

#include <array>

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
void EmitLowerBound(Assembler& as, const PlannedCheck& check, Reg t0, int32_t stack_bias) {
  MemOperand lb = check.mem;
  lb.size_log2 = 0;  // lea ignores the access size
  if (lb.rip_relative()) {
    as.EmitRipRelative({.op = Op::kLea, .r0 = t0, .mem = lb},
                       check.anchor_next + static_cast<uint64_t>(int64_t{lb.disp}));
    return;
  }
  if (lb.base == Reg::kRsp) {
    lb.disp += stack_bias;
  }
  as.Lea(t0, lb);
}

// Emits the ASAN-style alternative body (RedzoneImpl::kShadow): a shadow
// byte lookup for the redzone/UAF state, then (for full-check sites) a
// naive concatenated LowFat class-bounds check. This is the "simply
// concatenate the two schemas" design §4 argues against: two separate
// lookups, and no malloc-size metadata so padding overflows are invisible.
void EmitShadowCheckBody(Assembler& as, const PlannedCheck& check, const Scratch& s,
                         const RedFatOptions& opts, int32_t stack_bias) {
  const Reg t0 = s.t0;
  const Reg t1 = s.t1;
  const Reg t2 = s.t2;
  const Reg t3 = s.t3;
  const uint32_t site = check.member_sites.front();
  EmitLowerBound(as, check, t0, stack_bias);

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
    as.Cmp(t1, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  }
  as.Jmp(end);
  // t0 still holds LB (never clobbered after STEP 1), so the error stubs
  // can hand the faulting address to the VM for forensics.
  as.Bind(err_uaf);
  as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
  as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kUaf));
  as.Jmp(end);
  as.Bind(err_bounds);
  as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
  as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kBounds));
  as.Bind(done);
  as.Bind(end);
}

// Emits one check body. `stack_bias` is the number of bytes pushed by the
// save prologue (rsp-relative operands must be rebased).
void EmitCheckBody(Assembler& as, const PlannedCheck& check, const Scratch& s,
                   const RedFatOptions& opts, int32_t stack_bias) {
  if (opts.redzone_impl == RedzoneImpl::kShadow) {
    REDFAT_CHECK(opts.mode == RedFatOptions::Mode::kProduction);
    EmitShadowCheckBody(as, check, s, opts, stack_bias);
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
  EmitLowerBound(as, check, t0, stack_bias);

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
    as.Add(t3, t1);    // BASE+16+SIZE
    as.Cmp(t2, t3);
    as.Jcc(Cond::kUgt, err_bounds);
  }

  // Passing fallthrough / error stubs / non-fat exit.
  if (profile && check.kind == CheckKind::kFull) {
    as.Trap(TrapCode::kProfPass, site);
    as.Jmp(end);
    as.Bind(err_meta);
    as.Bind(err_bounds);
    as.Bind(err_uaf);
    as.Trap(TrapCode::kProfFail, site);
    as.Jmp(end);
    as.Bind(done);
    as.Trap(TrapCode::kProfPass, site);  // non-fat: trivially safe
    as.Bind(end);
  } else {
    as.Jmp(end);
    // t0 still holds LB (never clobbered after STEP 1), so the error stubs
    // can hand the faulting address to the VM for forensics.
    as.Bind(err_meta);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kMeta));
    as.Jmp(end);
    as.Bind(err_uaf);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kUaf));
    as.Jmp(end);
    as.Bind(err_bounds);
    as.Trap(TrapCode::kErrAddr, static_cast<uint32_t>(t0));
    as.Trap(TrapCode::kMemError, PackErrorArg(site, ErrorKind::kBounds));
    as.Bind(done);
    as.Bind(end);
  }
}

}  // namespace

void EmitTrampolinePayload(Assembler& as, const PlannedTrampoline& tramp,
                           const ClobberInfo& clobbers, const RedFatOptions& opts) {
  // Zero-cycle dynamic coverage accounting, one counter per member site.
  for (const PlannedCheck& check : tramp.checks) {
    for (uint32_t site : check.member_sites) {
      as.Count(site);
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

  for (const PlannedCheck& check : tramp.checks) {
    EmitCheckBody(as, check, PickScratch(check, preference), opts, stack_bias);
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

}  // namespace redfat
