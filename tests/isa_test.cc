#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "src/isa/isa.h"
#include "src/support/rng.h"

namespace redfat {
namespace {

Instruction RoundTrip(const Instruction& in) {
  std::vector<uint8_t> bytes;
  const unsigned len = Encode(in, &bytes);
  EXPECT_EQ(len, bytes.size());
  EXPECT_EQ(len, EncodedLength(in.op));
  Result<Decoded> d = Decode(bytes.data(), bytes.size());
  EXPECT_TRUE(d.ok()) << d.error();
  EXPECT_EQ(d.value().length, len);
  return d.value().insn;
}

TEST(IsaEncode, SimpleOpsRoundTrip) {
  for (Op op : {Op::kNop, Op::kHlt, Op::kUd2, Op::kRet, Op::kPushf, Op::kPopf}) {
    Instruction in{.op = op};
    EXPECT_EQ(RoundTrip(in), in);
  }
}

TEST(IsaEncode, MovImm64RoundTrip) {
  Instruction in{.op = Op::kMovRI, .r0 = Reg::kR13,
                 .imm = static_cast<int64_t>(0xdeadbeefcafef00dULL)};
  EXPECT_EQ(RoundTrip(in), in);
}

TEST(IsaEncode, NegativeImm32SignExtends) {
  Instruction in{.op = Op::kAddRI, .r0 = Reg::kRax, .imm = -12345};
  EXPECT_EQ(RoundTrip(in).imm, -12345);
}

TEST(IsaEncode, MemOperandRoundTrip) {
  MemOperand mem;
  mem.base = Reg::kRbx;
  mem.index = Reg::kRcx;
  mem.scale_log2 = 2;
  mem.size_log2 = 1;
  mem.disp = -64;
  Instruction in{.op = Op::kLoad, .r0 = Reg::kRax, .mem = mem};
  EXPECT_EQ(RoundTrip(in), in);
}

TEST(IsaEncode, RipRelativeRoundTrip) {
  MemOperand mem;
  mem.base = Reg::kRip;
  mem.disp = 0x1000;
  Instruction in{.op = Op::kLea, .r0 = Reg::kRsi, .mem = mem};
  EXPECT_EQ(RoundTrip(in), in);
}

TEST(IsaEncode, StoreImmRoundTrip) {
  MemOperand mem;
  mem.base = Reg::kRdi;
  mem.disp = 8;
  Instruction in{.op = Op::kStoreI, .mem = mem, .imm = -7};
  EXPECT_EQ(RoundTrip(in), in);
}

TEST(IsaEncode, BranchesRoundTrip) {
  EXPECT_EQ(RoundTrip({.op = Op::kJmp, .imm = -1000}).imm, -1000);
  Instruction jcc{.op = Op::kJcc, .cond = Cond::kUgt, .imm = 77};
  EXPECT_EQ(RoundTrip(jcc), jcc);
  EXPECT_EQ(RoundTrip({.op = Op::kCall, .imm = 12}).imm, 12);
}

TEST(IsaEncode, TrapPacksCodeAndArg) {
  const uint64_t packed = 3u | (uint64_t{0xabcdef1} << 8);
  Instruction in{.op = Op::kTrap, .imm = static_cast<int64_t>(packed)};
  EXPECT_EQ(RoundTrip(in), in);
}

TEST(IsaDecode, RejectsBadInput) {
  EXPECT_FALSE(Decode(nullptr, 0).ok());
  uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(Decode(zero, sizeof(zero)).ok());  // opcode 0 invalid
  uint8_t bad_op[2] = {0xff, 0};
  EXPECT_FALSE(Decode(bad_op, sizeof(bad_op)).ok());
  // Truncated mov imm64.
  std::vector<uint8_t> bytes;
  Encode({.op = Op::kMovRI, .r0 = Reg::kRax, .imm = 1}, &bytes);
  EXPECT_FALSE(Decode(bytes.data(), 5).ok());
}

TEST(IsaDecode, RejectsRipAsIndex) {
  std::vector<uint8_t> bytes;
  MemOperand mem;
  mem.base = Reg::kRax;
  Encode({.op = Op::kLoad, .r0 = Reg::kRax, .mem = mem}, &bytes);
  bytes[3] = static_cast<uint8_t>(Reg::kRip);  // index byte
  EXPECT_FALSE(Decode(bytes.data(), bytes.size()).ok());
}

TEST(IsaProps, JmpIsFiveBytes) {
  // The rewriter overwrites instructions with jmp rel32; its length is a
  // load-bearing constant.
  EXPECT_EQ(EncodedLength(Op::kJmp), 5u);
}

TEST(IsaProps, Classification) {
  EXPECT_TRUE(IsMemAccess(Op::kLoad));
  EXPECT_TRUE(IsMemAccess(Op::kStoreR));
  EXPECT_TRUE(IsMemAccess(Op::kStoreI));
  EXPECT_FALSE(IsMemAccess(Op::kLea));
  EXPECT_FALSE(IsMemAccess(Op::kPush));
  EXPECT_TRUE(IsMemWrite(Op::kStoreR));
  EXPECT_FALSE(IsMemWrite(Op::kLoad));
  EXPECT_TRUE(IsControlFlow(Op::kJmp));
  EXPECT_TRUE(IsControlFlow(Op::kRet));
  EXPECT_TRUE(IsControlFlow(Op::kHlt));
  EXPECT_FALSE(IsControlFlow(Op::kHostCall));
  EXPECT_TRUE(HasRel32(Op::kJcc));
  EXPECT_FALSE(HasRel32(Op::kJmpR));
  EXPECT_TRUE(WritesFlags(Op::kCmpRI));
  EXPECT_FALSE(WritesFlags(Op::kMovRR));
  EXPECT_TRUE(ReadsFlags(Op::kJcc));
  EXPECT_TRUE(ReadsFlags(Op::kPushf));
}

TEST(IsaProps, RegsReadWritten) {
  MemOperand mem;
  mem.base = Reg::kRbx;
  mem.index = Reg::kRcx;
  Instruction load{.op = Op::kLoad, .r0 = Reg::kRax, .mem = mem};
  EXPECT_EQ(RegsRead(load), RegBit(Reg::kRbx) | RegBit(Reg::kRcx));
  EXPECT_EQ(RegsWritten(load), RegBit(Reg::kRax));

  Instruction store{.op = Op::kStoreR, .r0 = Reg::kRdx, .mem = mem};
  EXPECT_EQ(RegsRead(store), RegBit(Reg::kRdx) | RegBit(Reg::kRbx) | RegBit(Reg::kRcx));
  EXPECT_EQ(RegsWritten(store), 0u);

  Instruction pop{.op = Op::kPop, .r0 = Reg::kR9};
  EXPECT_EQ(RegsWritten(pop), RegBit(Reg::kR9) | RegBit(Reg::kRsp));

  // A rip base is not a register read.
  Instruction lea{.op = Op::kLea, .r0 = Reg::kRax, .mem = MemOperand{.base = Reg::kRip}};
  EXPECT_EQ(RegsRead(lea), 0u);

  // Host calls are conservative: they read everything.
  Instruction hc{.op = Op::kHostCall, .imm = 1};
  EXPECT_EQ(RegsRead(hc), kAllGprs);
  EXPECT_EQ(std::popcount(RegsRead(hc)), kNumGprs);
}

// Property: random well-formed instructions survive an encode/decode trip.
TEST(IsaProps, RandomRoundTrip) {
  Rng rng(0xc0ffee);
  const Op ops[] = {Op::kMovRI, Op::kMovRR, Op::kLoad,  Op::kStoreR, Op::kStoreI,
                    Op::kLea,   Op::kAddRR, Op::kAddRI, Op::kSubRI,  Op::kImulRR,
                    Op::kMulhRR, Op::kAndRI, Op::kXorRR, Op::kShlRI, Op::kShrRR,
                    Op::kCmpRI, Op::kTestRR, Op::kJmp,  Op::kJcc,    Op::kCall,
                    Op::kJmpR,  Op::kPush,  Op::kPop,   Op::kHostCall, Op::kTrap,
                    Op::kCount};
  for (int i = 0; i < 5000; ++i) {
    Instruction in;
    in.op = ops[rng.Below(sizeof(ops) / sizeof(ops[0]))];
    in.r0 = static_cast<Reg>(rng.Below(kNumGprs));
    in.r1 = static_cast<Reg>(rng.Below(kNumGprs));
    in.cond = static_cast<Cond>(rng.Below(10));
    in.mem.base = rng.Chance(1, 8) ? Reg::kRip
                                   : (rng.Chance(1, 8) ? Reg::kNone
                                                       : static_cast<Reg>(rng.Below(kNumGprs)));
    in.mem.index =
        rng.Chance(1, 4) ? Reg::kNone : static_cast<Reg>(rng.Below(kNumGprs));
    in.mem.scale_log2 = static_cast<uint8_t>(rng.Below(4));
    in.mem.size_log2 = static_cast<uint8_t>(rng.Below(4));
    in.mem.disp = static_cast<int32_t>(rng.Next());
    switch (in.op) {
      case Op::kMovRI:
        in.imm = static_cast<int64_t>(rng.Next());
        break;
      case Op::kShlRI:
        in.imm = static_cast<int64_t>(rng.Below(64));
        break;
      case Op::kHostCall:
        in.imm = static_cast<int64_t>(rng.Below(8));
        break;
      case Op::kTrap:
        in.imm = static_cast<int64_t>(rng.Next() & 0xffffffffffull);
        break;
      case Op::kCount:
        in.imm = static_cast<int64_t>(rng.Below(1u << 31));
        break;
      default:
        in.imm = static_cast<int32_t>(rng.Next());
        break;
    }
    // Normalize fields the encoding does not carry for this op.
    std::vector<uint8_t> bytes;
    Encode(in, &bytes);
    Result<Decoded> d = Decode(bytes.data(), bytes.size());
    ASSERT_TRUE(d.ok()) << d.error() << " op=" << OpName(in.op);
    std::vector<uint8_t> bytes2;
    Encode(d.value().insn, &bytes2);
    ASSERT_EQ(bytes, bytes2) << OpName(in.op);
  }
}

TEST(IsaPrint, ToStringSmoke) {
  MemOperand mem;
  mem.base = Reg::kRax;
  mem.index = Reg::kRbx;
  mem.scale_log2 = 3;
  mem.disp = 16;
  Instruction in{.op = Op::kStoreR, .r0 = Reg::kRcx, .mem = mem};
  EXPECT_EQ(ToString(in), "store %rcx, 16(%rax,%rbx,8):8");
  EXPECT_EQ(ToString(Instruction{.op = Op::kRet}), "ret");
}

}  // namespace
}  // namespace redfat
