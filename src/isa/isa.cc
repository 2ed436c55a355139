#include "src/isa/isa.h"

#include <cstring>

#include "src/support/check.h"
#include "src/support/str.h"

namespace redfat {

namespace {

// Encoding layout classes. Every opcode has a fixed layout, so instruction
// length is determined by the first byte alone.
enum class Layout {
  kOpOnly,   // [op]                                  1 byte
  kRR,       // [op][(r0<<4)|r1]                      2 bytes
  kR,        // [op][r0]                              2 bytes
  kRImm64,   // [op][r0][imm64]                       10 bytes
  kRImm32,   // [op][r0][imm32]                       6 bytes
  kRImm8,    // [op][r0][imm8]                        3 bytes
  kRMem,     // [op][r0][mem]                         9 bytes
  kMemImm32, // [op][mem][imm32]                      12 bytes
  kRel32,    // [op][rel32]                           5 bytes
  kCcRel32,  // [op][cc][rel32]                       6 bytes
  kImm8,     // [op][imm8]                            2 bytes
  kTrap,     // [op][code8][arg32]                    6 bytes
  kImm32,    // [op][imm32]                           5 bytes
};

Layout LayoutOf(Op op) {
  switch (op) {
    case Op::kNop:
    case Op::kHlt:
    case Op::kUd2:
    case Op::kRet:
    case Op::kPushf:
    case Op::kPopf:
      return Layout::kOpOnly;
    case Op::kMovRR:
    case Op::kAddRR:
    case Op::kSubRR:
    case Op::kImulRR:
    case Op::kMulhRR:
    case Op::kAndRR:
    case Op::kOrRR:
    case Op::kXorRR:
    case Op::kShlRR:
    case Op::kShrRR:
    case Op::kCmpRR:
    case Op::kTestRR:
      return Layout::kRR;
    case Op::kJmpR:
    case Op::kCallR:
    case Op::kPush:
    case Op::kPop:
      return Layout::kR;
    case Op::kMovRI:
      return Layout::kRImm64;
    case Op::kAddRI:
    case Op::kSubRI:
    case Op::kImulRI:
    case Op::kAndRI:
    case Op::kOrRI:
    case Op::kXorRI:
    case Op::kCmpRI:
      return Layout::kRImm32;
    case Op::kShlRI:
    case Op::kShrRI:
    case Op::kSarRI:
      return Layout::kRImm8;
    case Op::kLoad:
    case Op::kStoreR:
    case Op::kLea:
      return Layout::kRMem;
    case Op::kStoreI:
      return Layout::kMemImm32;
    case Op::kJmp:
    case Op::kCall:
      return Layout::kRel32;
    case Op::kJcc:
      return Layout::kCcRel32;
    case Op::kHostCall:
      return Layout::kImm8;
    case Op::kTrap:
      return Layout::kTrap;
    case Op::kCount:
      return Layout::kImm32;
    case Op::kInvalid:
    case Op::kNumOps:
      break;
  }
  REDFAT_FATAL("bad opcode");
}

uint8_t* PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
  return p + 4;
}

uint8_t* PutU64(uint8_t* p, uint64_t v) {
  return PutU32(PutU32(p, static_cast<uint32_t>(v)), static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) | static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

uint8_t* EncodeMem(const MemOperand& mem, uint8_t* p) {
  p[0] = static_cast<uint8_t>(mem.base);
  p[1] = static_cast<uint8_t>(mem.index);
  p[2] = static_cast<uint8_t>((mem.scale_log2 & 3) | ((mem.size_log2 & 3) << 2));
  return PutU32(p + 3, static_cast<uint32_t>(mem.disp));
}

bool DecodeMem(const uint8_t* p, MemOperand* mem) {
  const uint8_t base = p[0];
  const uint8_t index = p[1];
  const uint8_t ss = p[2];
  if (base > static_cast<uint8_t>(Reg::kNone) || index > static_cast<uint8_t>(Reg::kNone)) {
    return false;
  }
  if (index == static_cast<uint8_t>(Reg::kRip)) {
    return false;  // rip is only valid as a base
  }
  if ((ss & ~0x0fu) != 0) {
    return false;
  }
  mem->base = static_cast<Reg>(base);
  mem->index = static_cast<Reg>(index);
  mem->scale_log2 = ss & 3;
  mem->size_log2 = (ss >> 2) & 3;
  mem->disp = static_cast<int32_t>(GetU32(p + 3));
  return true;
}

bool ValidGpr(uint8_t r) { return r < kNumGprs; }

}  // namespace

const char* RegName(Reg r) {
  static const char* kNames[] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp",
                                 "rsi", "rdi", "r8",  "r9",  "r10", "r11",
                                 "r12", "r13", "r14", "r15", "rip", "<none>"};
  const auto i = static_cast<size_t>(r);
  REDFAT_CHECK(i < sizeof(kNames) / sizeof(kNames[0]));
  return kNames[i];
}

const char* CondName(Cond c) {
  static const char* kNames[] = {"e", "ne", "b", "be", "a", "ae", "l", "le", "g", "ge"};
  const auto i = static_cast<size_t>(c);
  REDFAT_CHECK(i < sizeof(kNames) / sizeof(kNames[0]));
  return kNames[i];
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kHlt: return "hlt";
    case Op::kUd2: return "ud2";
    case Op::kMovRI: return "mov";
    case Op::kMovRR: return "mov";
    case Op::kLoad: return "load";
    case Op::kStoreR: return "store";
    case Op::kStoreI: return "storei";
    case Op::kLea: return "lea";
    case Op::kAddRR: case Op::kAddRI: return "add";
    case Op::kSubRR: case Op::kSubRI: return "sub";
    case Op::kImulRR: case Op::kImulRI: return "imul";
    case Op::kMulhRR: return "mulh";
    case Op::kAndRR: case Op::kAndRI: return "and";
    case Op::kOrRR: case Op::kOrRI: return "or";
    case Op::kXorRR: case Op::kXorRI: return "xor";
    case Op::kShlRI: case Op::kShlRR: return "shl";
    case Op::kShrRI: case Op::kShrRR: return "shr";
    case Op::kSarRI: return "sar";
    case Op::kCmpRR: case Op::kCmpRI: return "cmp";
    case Op::kTestRR: return "test";
    case Op::kJmp: return "jmp";
    case Op::kJmpR: return "jmp*";
    case Op::kJcc: return "jcc";
    case Op::kCall: return "call";
    case Op::kCallR: return "call*";
    case Op::kRet: return "ret";
    case Op::kPush: return "push";
    case Op::kPop: return "pop";
    case Op::kPushf: return "pushf";
    case Op::kPopf: return "popf";
    case Op::kHostCall: return "hostcall";
    case Op::kTrap: return "trap";
    case Op::kCount: return "count";
    case Op::kInvalid: case Op::kNumOps: break;
  }
  return "<bad>";
}

unsigned EncodedLength(Op op) {
  switch (LayoutOf(op)) {
    case Layout::kOpOnly: return 1;
    case Layout::kRR: return 2;
    case Layout::kR: return 2;
    case Layout::kRImm64: return 10;
    case Layout::kRImm32: return 6;
    case Layout::kRImm8: return 3;
    case Layout::kRMem: return 9;
    case Layout::kMemImm32: return 12;
    case Layout::kRel32: return 5;
    case Layout::kCcRel32: return 6;
    case Layout::kImm8: return 2;
    case Layout::kTrap: return 6;
    case Layout::kImm32: return 5;
  }
  REDFAT_FATAL("bad layout");
}

bool IsMemAccess(Op op) { return op == Op::kLoad || op == Op::kStoreR || op == Op::kStoreI; }

bool IsMemWrite(Op op) { return op == Op::kStoreR || op == Op::kStoreI; }

bool IsControlFlow(Op op) {
  switch (op) {
    case Op::kJmp:
    case Op::kJmpR:
    case Op::kJcc:
    case Op::kCall:
    case Op::kCallR:
    case Op::kRet:
    case Op::kHlt:
    case Op::kUd2:
      return true;
    default:
      return false;
  }
}

bool HasRel32(Op op) { return op == Op::kJmp || op == Op::kJcc || op == Op::kCall; }

bool WritesFlags(Op op) {
  switch (op) {
    case Op::kAddRR: case Op::kAddRI:
    case Op::kSubRR: case Op::kSubRI:
    case Op::kImulRR: case Op::kImulRI:
    case Op::kMulhRR:
    case Op::kAndRR: case Op::kAndRI:
    case Op::kOrRR: case Op::kOrRI:
    case Op::kXorRR: case Op::kXorRI:
    case Op::kShlRI: case Op::kShrRI: case Op::kSarRI:
    case Op::kShlRR: case Op::kShrRR:
    case Op::kCmpRR: case Op::kCmpRI:
    case Op::kTestRR:
    case Op::kPopf:
      return true;
    default:
      return false;
  }
}

bool ReadsFlags(Op op) { return op == Op::kJcc || op == Op::kPushf; }

namespace {

uint32_t MemRegs(const MemOperand& mem) { return RegBit(mem.base) | RegBit(mem.index); }

}  // namespace

uint32_t RegsRead(const Instruction& insn) {
  switch (insn.op) {
    case Op::kMovRR:
      return RegBit(insn.r1);
    case Op::kLoad:
    case Op::kLea:
    case Op::kStoreI:
      return MemRegs(insn.mem);
    case Op::kStoreR:
      return RegBit(insn.r0) | MemRegs(insn.mem);
    case Op::kAddRR: case Op::kSubRR: case Op::kImulRR: case Op::kMulhRR:
    case Op::kAndRR: case Op::kOrRR: case Op::kXorRR:
    case Op::kShlRR: case Op::kShrRR:
    case Op::kCmpRR: case Op::kTestRR:
      return RegBit(insn.r0) | RegBit(insn.r1);
    case Op::kAddRI: case Op::kSubRI: case Op::kImulRI:
    case Op::kAndRI: case Op::kOrRI: case Op::kXorRI:
    case Op::kShlRI: case Op::kShrRI: case Op::kSarRI:
    case Op::kCmpRI:
      return RegBit(insn.r0);
    case Op::kJmpR:
    case Op::kCallR:
    case Op::kPush:
      return RegBit(insn.r0) | RegBit(Reg::kRsp);
    case Op::kPop:
    case Op::kPushf:
    case Op::kPopf:
    case Op::kRet:
    case Op::kCall:
      return RegBit(Reg::kRsp);
    case Op::kHostCall:
    case Op::kTrap:
      // Conservative: the host may inspect any register / guest memory.
      return kAllGprs;
    default:
      return 0;
  }
}

uint32_t RegsWritten(const Instruction& insn) {
  switch (insn.op) {
    case Op::kMovRI: case Op::kMovRR: case Op::kLoad: case Op::kLea:
    case Op::kAddRR: case Op::kAddRI: case Op::kSubRR: case Op::kSubRI:
    case Op::kImulRR: case Op::kImulRI: case Op::kMulhRR:
    case Op::kAndRR: case Op::kAndRI: case Op::kOrRR: case Op::kOrRI:
    case Op::kXorRR: case Op::kXorRI:
    case Op::kShlRI: case Op::kShrRI: case Op::kSarRI:
    case Op::kShlRR: case Op::kShrRR:
      return RegBit(insn.r0);
    case Op::kPop:
      return RegBit(insn.r0) | RegBit(Reg::kRsp);
    case Op::kPush:
    case Op::kPushf:
    case Op::kPopf:
    case Op::kRet:
    case Op::kCall:
    case Op::kCallR:
    case Op::kJmpR:
      return RegBit(Reg::kRsp);
    case Op::kHostCall:
      return RegBit(Reg::kRax);
    default:
      return 0;
  }
}

unsigned Encode(const Instruction& insn, uint8_t* out) {
  uint8_t* p = out;
  *p++ = static_cast<uint8_t>(insn.op);
  switch (LayoutOf(insn.op)) {
    case Layout::kOpOnly:
      break;
    case Layout::kRR:
      REDFAT_CHECK(IsGpr(insn.r0) && IsGpr(insn.r1));
      *p++ = static_cast<uint8_t>((RegIndex(insn.r0) << 4) | RegIndex(insn.r1));
      break;
    case Layout::kR:
      REDFAT_CHECK(IsGpr(insn.r0));
      *p++ = static_cast<uint8_t>(RegIndex(insn.r0));
      break;
    case Layout::kRImm64:
      REDFAT_CHECK(IsGpr(insn.r0));
      *p++ = static_cast<uint8_t>(RegIndex(insn.r0));
      p = PutU64(p, static_cast<uint64_t>(insn.imm));
      break;
    case Layout::kRImm32:
      REDFAT_CHECK(IsGpr(insn.r0));
      *p++ = static_cast<uint8_t>(RegIndex(insn.r0));
      p = PutU32(p, static_cast<uint32_t>(insn.imm));
      break;
    case Layout::kRImm8:
      REDFAT_CHECK(IsGpr(insn.r0));
      *p++ = static_cast<uint8_t>(RegIndex(insn.r0));
      *p++ = static_cast<uint8_t>(insn.imm & 63);
      break;
    case Layout::kRMem:
      REDFAT_CHECK(IsGpr(insn.r0));
      *p++ = static_cast<uint8_t>(RegIndex(insn.r0));
      p = EncodeMem(insn.mem, p);
      break;
    case Layout::kMemImm32:
      p = EncodeMem(insn.mem, p);
      p = PutU32(p, static_cast<uint32_t>(insn.imm));
      break;
    case Layout::kRel32:
      p = PutU32(p, static_cast<uint32_t>(insn.imm));
      break;
    case Layout::kCcRel32:
      *p++ = static_cast<uint8_t>(insn.cond);
      p = PutU32(p, static_cast<uint32_t>(insn.imm));
      break;
    case Layout::kImm8:
      *p++ = static_cast<uint8_t>(insn.imm);
      break;
    case Layout::kTrap:
      *p++ = static_cast<uint8_t>(insn.imm & 0xff);
      p = PutU32(p, static_cast<uint32_t>(static_cast<uint64_t>(insn.imm) >> 8));
      break;
    case Layout::kImm32:
      p = PutU32(p, static_cast<uint32_t>(insn.imm));
      break;
  }
  const unsigned len = static_cast<unsigned>(p - out);
  REDFAT_CHECK(len == EncodedLength(insn.op));
  return len;
}

unsigned Encode(const Instruction& insn, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->resize(start + EncodedLength(insn.op));
  return Encode(insn, out->data() + start);
}

unsigned MemDispOffset(Op op) {
  switch (LayoutOf(op)) {
    case Layout::kRMem: return 5;      // [op][r0][base][index][ss][disp32]
    case Layout::kMemImm32: return 4;  // [op][base][index][ss][disp32][imm32]
    default: break;
  }
  REDFAT_FATAL("no memory operand");
}

Result<Decoded> Decode(const uint8_t* bytes, size_t size) {
  if (size == 0) {
    return Error("decode: empty buffer");
  }
  const uint8_t opb = bytes[0];
  if (opb == 0 || opb >= static_cast<uint8_t>(Op::kNumOps)) {
    return Error(StrFormat("decode: bad opcode byte 0x%02x", opb));
  }
  const Op op = static_cast<Op>(opb);
  const unsigned len = EncodedLength(op);
  if (size < len) {
    return Error(StrFormat("decode: truncated %s (need %u bytes, have %zu)", OpName(op), len,
                           size));
  }
  Decoded d;
  d.insn.op = op;
  d.length = len;
  const uint8_t* p = bytes + 1;
  switch (LayoutOf(op)) {
    case Layout::kOpOnly:
      break;
    case Layout::kRR: {
      const uint8_t r0 = p[0] >> 4;
      const uint8_t r1 = p[0] & 0x0f;
      d.insn.r0 = static_cast<Reg>(r0);
      d.insn.r1 = static_cast<Reg>(r1);
      break;
    }
    case Layout::kR:
      if (!ValidGpr(p[0])) {
        return Error("decode: bad register");
      }
      d.insn.r0 = static_cast<Reg>(p[0]);
      break;
    case Layout::kRImm64:
      if (!ValidGpr(p[0])) {
        return Error("decode: bad register");
      }
      d.insn.r0 = static_cast<Reg>(p[0]);
      d.insn.imm = static_cast<int64_t>(GetU64(p + 1));
      break;
    case Layout::kRImm32:
      if (!ValidGpr(p[0])) {
        return Error("decode: bad register");
      }
      d.insn.r0 = static_cast<Reg>(p[0]);
      d.insn.imm = static_cast<int32_t>(GetU32(p + 1));
      break;
    case Layout::kRImm8:
      if (!ValidGpr(p[0])) {
        return Error("decode: bad register");
      }
      d.insn.r0 = static_cast<Reg>(p[0]);
      d.insn.imm = p[1] & 63;
      break;
    case Layout::kRMem:
      if (!ValidGpr(p[0])) {
        return Error("decode: bad register");
      }
      d.insn.r0 = static_cast<Reg>(p[0]);
      if (!DecodeMem(p + 1, &d.insn.mem)) {
        return Error("decode: bad memory operand");
      }
      break;
    case Layout::kMemImm32:
      if (!DecodeMem(p, &d.insn.mem)) {
        return Error("decode: bad memory operand");
      }
      d.insn.imm = static_cast<int32_t>(GetU32(p + 7));
      break;
    case Layout::kRel32:
      d.insn.imm = static_cast<int32_t>(GetU32(p));
      break;
    case Layout::kCcRel32:
      if (p[0] > static_cast<uint8_t>(Cond::kSge)) {
        return Error("decode: bad condition code");
      }
      d.insn.cond = static_cast<Cond>(p[0]);
      d.insn.imm = static_cast<int32_t>(GetU32(p + 1));
      break;
    case Layout::kImm8:
      d.insn.imm = p[0];
      break;
    case Layout::kTrap:
      d.insn.imm =
          static_cast<int64_t>(static_cast<uint64_t>(p[0]) |
                               (static_cast<uint64_t>(GetU32(p + 1)) << 8));
      break;
    case Layout::kImm32:
      d.insn.imm = static_cast<int32_t>(GetU32(p));
      break;
  }
  return d;
}

std::string ToString(const MemOperand& mem) {
  std::string s = StrFormat("%d", mem.disp);
  s += "(";
  if (mem.has_base()) {
    s += "%";
    s += RegName(mem.base);
  }
  if (mem.has_index()) {
    s += StrFormat(",%%%s,%u", RegName(mem.index), mem.scale());
  }
  s += StrFormat("):%u", mem.access_size());
  return s;
}

std::string ToString(const Instruction& insn) {
  switch (LayoutOf(insn.op)) {
    case Layout::kOpOnly:
      return OpName(insn.op);
    case Layout::kRR:
      return StrFormat("%s %%%s, %%%s", OpName(insn.op), RegName(insn.r1), RegName(insn.r0));
    case Layout::kR:
      return StrFormat("%s %%%s", OpName(insn.op), RegName(insn.r0));
    case Layout::kRImm64:
    case Layout::kRImm32:
    case Layout::kRImm8:
      return StrFormat("%s $%lld, %%%s", OpName(insn.op),
                       static_cast<long long>(insn.imm), RegName(insn.r0));
    case Layout::kRMem:
      if (insn.op == Op::kStoreR) {
        return StrFormat("%s %%%s, %s", OpName(insn.op), RegName(insn.r0),
                         ToString(insn.mem).c_str());
      }
      return StrFormat("%s %s, %%%s", OpName(insn.op), ToString(insn.mem).c_str(),
                       RegName(insn.r0));
    case Layout::kMemImm32:
      return StrFormat("%s $%lld, %s", OpName(insn.op), static_cast<long long>(insn.imm),
                       ToString(insn.mem).c_str());
    case Layout::kRel32:
      return StrFormat("%s .%+lld", OpName(insn.op), static_cast<long long>(insn.imm));
    case Layout::kCcRel32:
      return StrFormat("j%s .%+lld", CondName(insn.cond), static_cast<long long>(insn.imm));
    case Layout::kImm8:
    case Layout::kImm32:
      return StrFormat("%s $%lld", OpName(insn.op), static_cast<long long>(insn.imm));
    case Layout::kTrap:
      return StrFormat("trap $%lld, $%lld", static_cast<long long>(insn.imm & 0xff),
                       static_cast<long long>(static_cast<uint64_t>(insn.imm) >> 8));
  }
  return "<bad>";
}

}  // namespace redfat
