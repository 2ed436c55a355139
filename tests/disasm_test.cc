#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/rw/disasm.h"
#include "src/rw/liveness.h"
#include "src/workloads/builder.h"
#include "src/workloads/kraken.h"
#include "src/workloads/spec.h"
#include "src/workloads/synth.h"

namespace redfat {
namespace {

TEST(Disasm, LinearSweepCoversWholeText) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 1);
  as.AddI(Reg::kRax, 2);
  as.Nop();
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  Result<Disassembly> dis = DisassembleText(img);
  ASSERT_TRUE(dis.ok()) << dis.error();
  ASSERT_EQ(dis.value().insns.size(), 5u);
  uint64_t expect = kCodeBase;
  for (const DisasmInsn& di : dis.value().insns) {
    EXPECT_EQ(di.addr, expect);
    expect += di.length;
  }
  EXPECT_EQ(dis.value().IndexAt(kCodeBase), 0u);
  EXPECT_EQ(dis.value().IndexAt(kCodeBase + 1), SIZE_MAX);
}

TEST(Disasm, IndexAtFindsExactlyTheInstructionStarts) {
  // A synth image with > 64 KiB of text.
  SynthParams p;
  p.seed = 0xb16;
  p.mem_pct = 40;
  p.block_len = 60;
  p.filler_funcs = 600;
  p.filler_units_per_func = 8;
  const BinaryImage img = GenerateSynthProgram(p);
  Result<Disassembly> r = DisassembleText(img);
  ASSERT_TRUE(r.ok()) << r.error();
  const Disassembly& dis = r.value();
  ASSERT_GT(dis.text_end - dis.text_vaddr, 64u * 1024u);
  for (size_t i = 0; i < dis.insns.size(); ++i) {
    const DisasmInsn& di = dis.insns[i];
    ASSERT_EQ(dis.IndexAt(di.addr), i);
    for (uint64_t mid = di.addr + 1; mid < di.end(); ++mid) {
      ASSERT_EQ(dis.IndexAt(mid), SIZE_MAX) << std::hex << mid;
    }
  }
  EXPECT_EQ(dis.IndexAt(0), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(dis.text_vaddr - 1), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(dis.text_end), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(dis.text_end + 1), SIZE_MAX);
  EXPECT_EQ(dis.IndexAt(UINT64_MAX), SIZE_MAX);
}

TEST(Disasm, RejectsGarbage) {
  BinaryImage img;
  img.entry = kCodeBase;
  Section s;
  s.kind = Section::Kind::kText;
  s.vaddr = kCodeBase;
  s.bytes = {0x00, 0x00};
  img.sections.push_back(s);
  EXPECT_FALSE(DisassembleText(img).ok());
}

TEST(Cfg, DirectBranchTargetsRecovered) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto target = as.NewLabel();
  as.Jcc(Cond::kEq, target);
  as.Nop();
  as.Bind(target);
  as.Nop();
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(kCodeBase + 7) != 0);  // after jcc+nop
  // Block split at the target: nop@6 and nop@7 are in different blocks.
  EXPECT_NE(cfg.block_id[dis.IndexAt(kCodeBase + 6)],
            cfg.block_id[dis.IndexAt(kCodeBase + 7)]);
}

TEST(Cfg, ControlFlowEndsBlocks) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.Nop();            // block A
  as.Ret();            // block A (terminator)
  as.Nop();            // block B
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_EQ(cfg.block_id[0], cfg.block_id[1]);
  EXPECT_NE(cfg.block_id[1], cfg.block_id[2]);
}

TEST(Cfg, CodePointerConstantsAreTargets) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  as.MovLabelAddr(Reg::kRax, fn);
  as.JmpR(Reg::kRax);
  as.Bind(fn);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(kCodeBase + 12) != 0)
      << "imm64 code pointer must be treated as an indirect target";
}

TEST(Cfg, DataWordsPointingIntoTextAreTargets) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  // Jump table in data: one entry pointing at the exit stub.
  as.Nop();
  const uint64_t stub_addr = as.Here();
  pb.EmitExit(0);
  pb.AddDataU64({stub_addr});
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(stub_addr) != 0);
}

TEST(Cfg, MidInstructionDataWordIsIgnored) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.MovRI(Reg::kRax, 0);  // 10 bytes
  pb.EmitExit(0);
  pb.AddDataU64({kCodeBase + 3});  // points into the middle of the mov
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_EQ(cfg.jump_targets.count(kCodeBase + 3), 0u);
}

TEST(Cfg, CallFallthroughIsTarget) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto fn = as.NewLabel();
  as.Call(fn);
  const uint64_t ret_site = as.Here();
  pb.EmitExit(0);
  as.Bind(fn);
  as.Ret();
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(cfg.jump_targets.count(ret_site) != 0);
}

TEST(Liveness, OverwrittenRegisterIsDead) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.Load(Reg::kRax, MemAt(Reg::kRbx, 0));   // index 0: writes rax (dead before)
  as.MovRI(Reg::kRcx, 1);                    // rcx written
  as.Add(Reg::kRax, Reg::kRcx);              // reads both
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  const ClobberInfo ci = ComputeClobbers(dis, cfg, 0);
  // rax is written by insn 0 before any read; rcx written at 1 before read.
  EXPECT_NE(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRax),
            ci.dead_regs.end());
  EXPECT_NE(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRcx),
            ci.dead_regs.end());
  // rbx is read by insn 0: live.
  EXPECT_EQ(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRbx),
            ci.dead_regs.end());
}

TEST(Liveness, FlagsDeadWhenRewrittenBeforeUse) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto l = as.NewLabel();
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));  // index 0
  as.CmpI(Reg::kRax, 0);                     // writes flags before any read
  as.Jcc(Cond::kEq, l);
  as.Bind(l);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_TRUE(ComputeClobbers(dis, cfg, 0).flags_dead);
}

TEST(Liveness, FlagsLiveWhenBranchFollows) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  auto l = as.NewLabel();
  as.CmpI(Reg::kRax, 0);
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));  // index 1: flags live across
  as.Jcc(Cond::kEq, l);
  as.Bind(l);
  pb.EmitExit(0);
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  EXPECT_FALSE(ComputeClobbers(dis, cfg, 1).flags_dead);
}

TEST(Liveness, ConservativeAtBlockEnd) {
  ProgramBuilder pb;
  Assembler& as = pb.text();
  as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));
  pb.EmitExit(0);  // hostcall reads everything
  const BinaryImage img = pb.Finish();
  const Disassembly dis = DisassembleText(img).value();
  const CfgInfo cfg = RecoverCfg(dis, img);
  const ClobberInfo ci = ComputeClobbers(dis, cfg, 0);
  // rdi is overwritten by EmitExit's mov before the hostcall reads it, so it
  // is dead at the instrumentation point; rax/rbx are read by the store and
  // then by the (conservative) hostcall: live. Flags are never rewritten
  // before the block ends: conservatively live.
  EXPECT_NE(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRdi),
            ci.dead_regs.end());
  EXPECT_EQ(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRax),
            ci.dead_regs.end());
  EXPECT_EQ(std::find(ci.dead_regs.begin(), ci.dead_regs.end(), Reg::kRbx),
            ci.dead_regs.end());
  EXPECT_FALSE(ci.flags_dead);
}

// The batch form's backward walk per block equals the per-leader forward
// scan with every instruction of every Kraken and SPEC image, of two
// filler-heavy synth programs and of a block that reads the flags between
// two writers (pushf, which the workloads never emit) as a leader; then
// once more with every third instruction as a leader, reversed and partly
// repeated, which must come back in input order.
TEST(Liveness, BatchEqualsPerLeaderScanAtEveryInstruction) {
  std::vector<BinaryImage> images;
  {
    ProgramBuilder pb;
    Assembler& as = pb.text();
    as.CmpI(Reg::kRax, 0);
    as.Store(Reg::kRax, MemAt(Reg::kRbx, 0));
    as.Pushf();
    as.Popf();
    as.CmpI(Reg::kRcx, 1);
    as.MovRI(Reg::kRdx, 2);
    as.Store(Reg::kRdx, MemAt(Reg::kRbx, 8));
    pb.EmitExit(0);
    images.push_back(pb.Finish());
  }
  for (const KrakenBenchmark& b : KrakenSuite()) {
    images.push_back(BuildKrakenBenchmark(b));
  }
  for (const SpecBenchmark& b : SpecSuite()) {
    images.push_back(BuildSpecBenchmark(b));
  }
  for (const uint64_t seed : {0xdc0, 0xdc1}) {
    SynthParams p;
    p.seed = seed;
    p.mem_pct = 35;
    p.stream_pct = 6;
    p.max_accesses_per_ptr = 4;
    p.block_len = 120;
    p.filler_funcs = 500;
    p.filler_units_per_func = 10;
    images.push_back(GenerateSynthProgram(p));
  }
  const auto same = [](const ClobberInfo& a, const ClobberInfo& b) {
    return a.dead_regs == b.dead_regs && a.flags_dead == b.flags_dead;
  };
  size_t leaders = 0;
  size_t mismatches = 0;
  for (const BinaryImage& img : images) {
    const Disassembly dis = DisassembleText(img).value();
    const CfgInfo cfg = RecoverCfg(dis, img);
    std::vector<size_t> all(dis.insns.size());
    std::iota(all.begin(), all.end(), size_t{0});
    const std::vector<ClobberInfo> batch = ComputeClobbersMany(dis, cfg, all);
    ASSERT_EQ(batch.size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      mismatches += !same(batch[i], ComputeClobbers(dis, cfg, i));
    }
    leaders += all.size();

    std::vector<size_t> mixed;
    for (size_t i = all.size(); i-- > 0;) {
      if (i % 3 == 0) {
        mixed.push_back(i);
      }
    }
    for (size_t i = 0; i < all.size(); i += 7) {
      mixed.push_back(i);
    }
    const std::vector<ClobberInfo> again = ComputeClobbersMany(dis, cfg, mixed);
    ASSERT_EQ(again.size(), mixed.size());
    for (size_t k = 0; k < mixed.size(); ++k) {
      mismatches += !same(again[k], batch[mixed[k]]);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << leaders << " leaders";
  EXPECT_GT(leaders, 100000u);
}

}  // namespace
}  // namespace redfat
