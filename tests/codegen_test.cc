// White-box tests of the check code generator: decode the emitted
// trampoline payloads and verify their structure (saves, counters, traps,
// configuration effects) instruction by instruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "src/asm/assembler.h"
#include "src/core/codegen.h"
#include "src/core/plan.h"
#include "src/rw/liveness.h"
#include "src/support/rng.h"

namespace redfat {
namespace {

std::vector<Instruction> Disassemble(const std::vector<uint8_t>& bytes) {
  std::vector<Instruction> out;
  size_t off = 0;
  while (off < bytes.size()) {
    Result<Decoded> d = Decode(bytes.data() + off, bytes.size() - off);
    EXPECT_TRUE(d.ok()) << d.error();
    if (!d.ok()) {
      break;
    }
    out.push_back(d.value().insn);
    off += d.value().length;
  }
  return out;
}

PlannedTrampoline OneCheck(CheckKind kind, MemOperand mem, uint32_t len = 8,
                           bool is_write = true) {
  PlannedCheck check;
  check.mem = mem;
  check.access_len = len;
  check.kind = kind;
  check.is_write = is_write;
  check.member_sites = {7};
  check.anchor_next = kCodeBase + 32;
  PlannedTrampoline tramp;
  tramp.addr = kCodeBase + 23;
  tramp.checks.push_back(check);
  return tramp;
}

std::vector<Instruction> Emit(const PlannedTrampoline& tramp, const ClobberInfo& clobbers,
                              const RedFatOptions& opts) {
  Assembler as(kTrampolineBase);
  EmitTrampolinePayload(as, tramp, clobbers, opts);
  return Disassemble(as.Finish());
}

size_t CountOp(const std::vector<Instruction>& insns, Op op) {
  size_t n = 0;
  for (const Instruction& in : insns) {
    if (in.op == op) {
      ++n;
    }
  }
  return n;
}

TEST(Codegen, CounterPerMemberSite) {
  PlannedTrampoline tramp = OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 8));
  tramp.checks[0].member_sites = {3, 9, 12};
  const auto insns = Emit(tramp, ClobberInfo{}, RedFatOptions{});
  ASSERT_GE(insns.size(), 3u);
  EXPECT_EQ(CountOp(insns, Op::kCount), 3u);
  EXPECT_EQ(insns[0].op, Op::kCount);
  EXPECT_EQ(insns[0].imm, 3);
  EXPECT_EQ(insns[2].imm, 12);
}

TEST(Codegen, NoClobbersMeansFourSavesPlusFlags) {
  const auto insns =
      Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, RedFatOptions{});
  EXPECT_EQ(CountOp(insns, Op::kPush), 4u);
  EXPECT_EQ(CountOp(insns, Op::kPop), 4u);
  EXPECT_EQ(CountOp(insns, Op::kPushf), 1u);
  EXPECT_EQ(CountOp(insns, Op::kPopf), 1u);
  // Red-zone hop: lea rsp, ±128.
  EXPECT_EQ(CountOp(insns, Op::kLea), 1u + 2u);  // LB lea + 2 rsp hops
}

TEST(Codegen, DeadRegistersSkipSaves) {
  ClobberInfo clobbers;
  clobbers.dead_regs = {Reg::kRax, Reg::kRcx, Reg::kRdx, Reg::kRsi};
  clobbers.flags_dead = true;
  const auto insns =
      Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), clobbers, RedFatOptions{});
  EXPECT_EQ(CountOp(insns, Op::kPush), 0u);
  EXPECT_EQ(CountOp(insns, Op::kPushf), 0u);
  EXPECT_EQ(CountOp(insns, Op::kLea), 1u);  // no rsp hops either
}

TEST(Codegen, ClobberAnalysisDisabledIgnoresDeadRegs) {
  ClobberInfo clobbers;
  clobbers.dead_regs = {Reg::kRax, Reg::kRcx, Reg::kRdx, Reg::kRsi};
  clobbers.flags_dead = true;
  RedFatOptions opts;
  opts.clobber_analysis = false;
  const auto insns = Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), clobbers, opts);
  EXPECT_EQ(CountOp(insns, Op::kPush), 4u);
  EXPECT_EQ(CountOp(insns, Op::kPushf), 1u);
}

TEST(Codegen, ScratchNeverAliasesOperandRegisters) {
  // Operand uses rax/rcx; with rax..rsi "dead", scratch must skip them.
  ClobberInfo clobbers;
  clobbers.dead_regs = {Reg::kRax, Reg::kRcx, Reg::kRdx, Reg::kRbx};
  const MemOperand mem = MemBIS(Reg::kRax, Reg::kRcx, 3, 0);
  const auto insns = Emit(OneCheck(CheckKind::kFull, mem), clobbers, RedFatOptions{});
  // Every register *written* by the payload (mov/load/lea/shr dst) must be
  // neither rax nor rcx (nor rsp).
  for (const Instruction& in : insns) {
    if (in.op == Op::kPush || in.op == Op::kPop || in.op == Op::kPushf ||
        in.op == Op::kPopf) {
      continue;  // rsp bookkeeping
    }
    EXPECT_EQ(RegsWritten(in) & (RegBit(Reg::kRax) | RegBit(Reg::kRcx)), 0u) << ToString(in);
  }
}

TEST(Codegen, RedzoneOnlySkipsPointerPath) {
  const auto full =
      Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, RedFatOptions{});
  const auto rz = Emit(OneCheck(CheckKind::kRedzoneOnly, MemAt(Reg::kRbx, 0)), ClobberInfo{},
                       RedFatOptions{});
  EXPECT_LT(rz.size(), full.size()) << "redzone-only must be a shorter body";
}

TEST(Codegen, SizeHardeningAddsCompare) {
  RedFatOptions with;
  RedFatOptions without;
  without.size_hardening = false;
  const auto a = Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, with);
  const auto b =
      Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, without);
  EXPECT_GT(a.size(), b.size());
  // The hardening trap (kind kMeta) appears only with hardening on.
  bool meta_trap = false;
  for (const Instruction& in : a) {
    if (in.op == Op::kTrap &&
        ErrorArgKind(static_cast<uint32_t>(static_cast<uint64_t>(in.imm) >> 8)) ==
            ErrorKind::kMeta) {
      meta_trap = true;
    }
  }
  EXPECT_TRUE(meta_trap);
}

TEST(Codegen, MergedUbUsesFewerBranches) {
  RedFatOptions merged;
  RedFatOptions separate;
  separate.merged_ub = false;
  const auto a = Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, merged);
  const auto b =
      Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, separate);
  EXPECT_LT(CountOp(a, Op::kJcc), CountOp(b, Op::kJcc))
      << "the u32-underflow trick removes conditional branches (§4.2)";
}

TEST(Codegen, ProfileModeEmitsProfTrapsNotErrors) {
  RedFatOptions opts = RedFatOptions::Profile();
  const auto insns = Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, opts);
  size_t pass = 0;
  size_t fail = 0;
  size_t err = 0;
  for (const Instruction& in : insns) {
    if (in.op != Op::kTrap) {
      continue;
    }
    switch (static_cast<TrapCode>(in.imm & 0xff)) {
      case TrapCode::kProfPass: ++pass; break;
      case TrapCode::kProfFail: ++fail; break;
      case TrapCode::kMemError: ++err; break;
      default: break;
    }
  }
  EXPECT_EQ(pass, 2u) << "pass paths: in-bounds and non-fat";
  EXPECT_EQ(fail, 1u);
  EXPECT_EQ(err, 0u);
}

TEST(Codegen, RspBasedOperandGetsStackBias) {
  // A redzone-only check on -24(%rsp): the lea must compensate for the
  // 128-byte red-zone hop plus the pushed words.
  const auto insns = Emit(OneCheck(CheckKind::kRedzoneOnly, MemAt(Reg::kRsp, -24)),
                          ClobberInfo{}, RedFatOptions{});
  bool found = false;
  for (const Instruction& in : insns) {
    // Skip the rsp-adjustment hops (dst == rsp); the LB lea targets scratch.
    if (in.op == Op::kLea && in.mem.base == Reg::kRsp && in.r0 != Reg::kRsp) {
      // 128 (hop) + 5*8 (4 regs + flags) - 24 = 144.
      EXPECT_EQ(in.mem.disp, 144);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Codegen, ShadowImplLooksUpGuestShadow) {
  RedFatOptions opts;
  opts.redzone_impl = RedzoneImpl::kShadow;
  const auto insns = Emit(OneCheck(CheckKind::kFull, MemAt(Reg::kRbx, 0)), ClobberInfo{}, opts);
  bool shadow_base_loaded = false;
  for (const Instruction& in : insns) {
    if (in.op == Op::kMovRI && static_cast<uint64_t>(in.imm) == kGuestShadowBase) {
      shadow_base_loaded = true;
    }
  }
  EXPECT_TRUE(shadow_base_loaded);
}

// --- stencils ----------------------------------------------------------------

struct Payload {
  PlannedTrampoline tramp;
  ClobberInfo clobbers;
};

// A random payload over every input of the shape key: kind, base (GPR, rsp,
// rip or none), index, scale, member count, 1-4 checks, the tier, flags
// liveness and dead registers in any order.
Payload RandomShape(Rng& rng) {
  const Reg bases[] = {Reg::kRbx, Reg::kRax, Reg::kR12, Reg::kRsp, Reg::kRip, Reg::kNone};
  const Reg indices[] = {Reg::kNone, Reg::kRcx, Reg::kRdi};
  Payload p;
  p.tramp.tier = static_cast<Tier>(rng.Below(3));
  const size_t num_checks = rng.Range(1, 4);
  for (size_t c = 0; c < num_checks; ++c) {
    PlannedCheck check;
    check.mem.base = bases[rng.Below(6)];
    check.mem.index = indices[rng.Below(3)];
    check.mem.scale_log2 = static_cast<uint8_t>(rng.Below(4));
    check.mem.size_log2 = static_cast<uint8_t>(rng.Below(4));
    // Like the planner: a full check needs a pointer base.
    const bool pointer = check.mem.base != Reg::kRsp && check.mem.base != Reg::kRip &&
                         check.mem.base != Reg::kNone;
    check.kind = pointer && rng.Chance(1, 2) ? CheckKind::kFull : CheckKind::kRedzoneOnly;
    check.member_sites.resize(rng.Range(1, 3));
    p.tramp.checks.push_back(check);
  }
  for (int r = 0; r < kNumGprs; ++r) {
    if (rng.Chance(1, 3)) {
      p.clobbers.dead_regs.push_back(static_cast<Reg>(r));
    }
  }
  for (size_t i = p.clobbers.dead_regs.size(); i > 1; --i) {
    std::swap(p.clobbers.dead_regs[i - 1], p.clobbers.dead_regs[rng.Below(i)]);
  }
  p.clobbers.flags_dead = rng.Chance(1, 2);
  return p;
}

// New values for every hole: site ids, displacements, lengths, anchors.
void FillHoles(Rng& rng, Payload* p) {
  for (PlannedCheck& check : p->tramp.checks) {
    for (uint32_t& site : check.member_sites) {
      site = static_cast<uint32_t>(rng.Next());
    }
    check.mem.disp = static_cast<int32_t>(rng.Range(0, 1u << 21)) - (1 << 20);
    check.access_len = static_cast<uint32_t>(rng.Range(1, 4096));
    check.anchor_next = kCodeBase + rng.Below(1u << 20);
  }
}

// The shape with one key input changed: each must get a stencil of its own.
std::vector<Payload> KeyVariants(const Payload& p) {
  std::vector<Payload> out(6, p);
  out[0].tramp.checks[0].member_sites.push_back(0);
  out[1].clobbers.flags_dead = !p.clobbers.flags_dead;
  out[2].tramp.tier = p.tramp.tier == Tier::kCold ? Tier::kWarm : Tier::kCold;
  std::reverse(out[3].clobbers.dead_regs.begin(), out[3].clobbers.dead_regs.end());
  MemOperand& mem = out[4].tramp.checks.back().mem;
  mem.scale_log2 = static_cast<uint8_t>((mem.scale_log2 + 1) % 4);
  PlannedCheck& check = out[5].tramp.checks.front();
  if (check.kind == CheckKind::kFull) {
    check.kind = CheckKind::kRedzoneOnly;
  } else {
    check.mem.index = check.mem.index == Reg::kNone ? Reg::kRsi : Reg::kNone;
  }
  return out;
}

// Seeded property: payloads instantiated from a chunk's stencil table, in a
// chunk that is then rebased, equal direct emission at the final base.
TEST(CodegenStencils, InstancesEqualDirectEmission) {
  RedFatOptions no_merged_ub;
  no_merged_ub.merged_ub = false;
  RedFatOptions no_size;
  no_size.size_hardening = false;
  RedFatOptions shadow;
  shadow.redzone_impl = RedzoneImpl::kShadow;
  RedFatOptions no_clobbers;
  no_clobbers.clobber_analysis = false;
  const RedFatOptions configs[] = {RedFatOptions{}, no_merged_ub, no_size,
                                   RedFatOptions::Profile(), shadow, no_clobbers};
  constexpr uint64_t kFinalBase = kTrampolineBase + 0x123457;
  Rng rng(0x57e7c11);
  for (const RedFatOptions& opts : configs) {
    PayloadStencils stencils(opts);
    Assembler chunk(kTrampolineBase);
    std::vector<Payload> emitted;
    std::vector<size_t> starts;
    for (int iter = 0; iter < 60; ++iter) {
      const Payload shape = RandomShape(rng);
      std::vector<Payload> shapes = KeyVariants(shape);
      shapes.insert(shapes.begin(), shape);
      for (Payload& p : shapes) {
        for (int twice = 0; twice < 2; ++twice) {
          FillHoles(rng, &p);
          starts.push_back(chunk.SizeBytes());
          stencils.Emit(chunk, p.tramp, p.clobbers);
          emitted.push_back(p);
        }
      }
    }
    EXPECT_LT(stencils.size(), emitted.size() / 2 + 1);
    chunk.Rebase(kFinalBase);
    const std::vector<uint8_t> got = chunk.Finish();
    Assembler direct(kFinalBase);
    for (size_t i = 0; i < emitted.size(); ++i) {
      ASSERT_EQ(direct.SizeBytes(), starts[i]) << "payload " << i << " has the wrong length";
      EmitTrampolinePayload(direct, emitted[i].tramp, emitted[i].clobbers, opts);
    }
    const std::vector<uint8_t> want = direct.Finish();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < emitted.size(); ++i) {
      const size_t end = i + 1 < starts.size() ? starts[i + 1] : got.size();
      ASSERT_TRUE(std::equal(got.begin() + starts[i], got.begin() + end,
                             want.begin() + starts[i]))
          << "payload " << i << " differs from direct emission";
    }
  }
}

}  // namespace
}  // namespace redfat
