#include "src/rw/rewriter.h"

#include <utility>

#include "src/support/check.h"
#include "src/support/str.h"

namespace redfat {

namespace {

constexpr unsigned kJmpLen = 5;  // EncodedLength(Op::kJmp)

// Re-emits a displaced instruction at the assembler's current position,
// fixing up position-dependent fields. `old_next` is the address of the
// instruction following the original copy.
void RelocateInsn(Assembler& as, const DisasmInsn& di) {
  const uint64_t old_next = di.end();
  Instruction insn = di.insn;
  switch (insn.op) {
    case Op::kJmp:
      as.JmpAbs(old_next + static_cast<uint64_t>(insn.imm));
      return;
    case Op::kJcc:
      as.JccAbs(insn.cond, old_next + static_cast<uint64_t>(insn.imm));
      return;
    case Op::kCall: {
      // Emulate: push the *original* return address, then jump. lea is used
      // for the stack adjust because it leaves the flags untouched.
      const uint64_t target = old_next + static_cast<uint64_t>(insn.imm);
      REDFAT_CHECK(old_next <= INT32_MAX);  // code lives in the low 2 GiB
      as.Lea(Reg::kRsp, MemAt(Reg::kRsp, -8));
      as.StoreI(MemAt(Reg::kRsp, 0), static_cast<int32_t>(old_next));
      as.JmpAbs(target);
      return;
    }
    case Op::kCallR: {
      REDFAT_CHECK(old_next <= INT32_MAX);
      as.Lea(Reg::kRsp, MemAt(Reg::kRsp, -8));
      as.StoreI(MemAt(Reg::kRsp, 0), static_cast<int32_t>(old_next));
      as.JmpR(insn.r0);
      return;
    }
    default:
      break;
  }
  if ((IsMemAccess(insn.op) || insn.op == Op::kLea) && insn.mem.rip_relative()) {
    as.EmitRipRelative(insn, old_next + static_cast<uint64_t>(int64_t{insn.mem.disp}));
    return;
  }
  as.Emit(insn);
}

// Emits one span's trampoline (payloads, relocated instructions, jump back)
// at the assembler's current position; returns the payloads applied.
size_t EmitSpanTrampoline(const Disassembly& dis, Assembler& as, const SpanPlan& span,
                          const RequestEmitter& payloads) {
  size_t applied = 0;
  for (size_t slot = 0; slot < span.num_insns; ++slot) {
    if (span.payloads[slot] != SIZE_MAX) {
      payloads(as, span.payloads[slot]);
      ++applied;
    }
    RelocateInsn(as, dis.insns[span.first_insn + slot]);
  }
  const DisasmInsn& last = dis.insns[span.last_insn()];
  const bool falls_through =
      !(last.insn.op == Op::kJmp || last.insn.op == Op::kJmpR || last.insn.op == Op::kRet ||
        last.insn.op == Op::kCall || last.insn.op == Op::kCallR ||
        last.insn.op == Op::kHlt);
  if (falls_through) {
    as.JmpAbs(last.end());
  }
  return applied;
}

}  // namespace

Result<std::vector<SpanPlan>> PlanSpans(const Disassembly& dis, const CfgInfo& cfg,
                                        const std::vector<uint64_t>& addrs,
                                        RewriteStats* stats) {
  REDFAT_CHECK(stats != nullptr);
  REDFAT_CHECK(cfg.is_jump_target.size() == dis.insns.size());
  stats->requested = addrs.size();

  // Requests by instruction index: spans probe a flat array, and a scan of
  // it visits the requests in address order.
  std::vector<size_t> request_at(dis.insns.size(), SIZE_MAX);
  for (size_t r = 0; r < addrs.size(); ++r) {
    const uint64_t addr = addrs[r];
    const size_t index = dis.IndexAt(addr);
    if (index == SIZE_MAX) {
      return Error(StrFormat("rewriter: request at 0x%llx is not an instruction boundary",
                             static_cast<unsigned long long>(addr)));
    }
    if (request_at[index] != SIZE_MAX) {
      return Error(StrFormat("rewriter: duplicate request at 0x%llx",
                             static_cast<unsigned long long>(addr)));
    }
    request_at[index] = r;
  }

  std::vector<SpanPlan> spans;
  size_t consumed_until = 0;  // requests below this index were merged into a prior span
  for (size_t start_index = 0; start_index < request_at.size(); ++start_index) {
    if (request_at[start_index] == SIZE_MAX || start_index < consumed_until) {
      continue;  // no request, or its payload is emitted inside the covering span
    }

    // Build the overwrite span: enough whole instructions to cover the jmp.
    SpanPlan span;
    span.addr = dis.insns[start_index].addr;
    span.first_insn = start_index;
    bool conflict_target = false;
    bool conflict_call = false;
    for (size_t i = start_index; span.span_len < kJmpLen; ++i) {
      if (i >= dis.insns.size()) {
        break;
      }
      const DisasmInsn& di = dis.insns[i];
      if (i != start_index) {
        if (cfg.is_jump_target[i] != 0) {
          conflict_target = true;
          break;
        }
        if (di.insn.op == Op::kCall || di.insn.op == Op::kCallR) {
          // Punning over a call is legal (we emulate it), but a call ends
          // with control leaving the trampoline: any span instructions after
          // it would be skipped. Only allow a call as the final span slot.
          conflict_call = true;
        }
      }
      span.payloads[span.num_insns++] = request_at[i];
      span.span_len += di.length;
      if (conflict_call && span.span_len < kJmpLen) {
        break;  // call mid-span: remaining slots unreachable
      }
    }
    if (conflict_target) {
      ++stats->skipped_target_conflict;
      continue;
    }
    if (conflict_call && span.span_len < kJmpLen) {
      ++stats->skipped_call_span;
      continue;
    }
    if (span.span_len < kJmpLen) {
      ++stats->skipped_section_end;
      continue;
    }
    consumed_until = span.last_insn() + 1;
    spans.push_back(std::move(span));
  }
  return spans;
}

TrampolineCode EmitTrampolines(const Disassembly& dis, std::span<const SpanPlan> spans,
                               const RequestEmitter& payloads, uint64_t trampoline_base,
                               RewriteStats* stats) {
  RewriteStats local;
  RewriteStats& st = stats != nullptr ? *stats : local;
  Assembler as(trampoline_base);
  TrampolineCode code;
  code.starts.reserve(spans.size());
  for (const SpanPlan& span : spans) {
    code.starts.push_back(as.Here());
    st.applied += EmitSpanTrampoline(dis, as, span, payloads);
  }
  code.bytes = as.Finish();
  st.trampolines = spans.size();
  st.trampoline_bytes = code.bytes.size();
  return code;
}

void PatchSpans(Section* text, const std::vector<SpanPlan>& spans,
                const std::vector<uint64_t>& tramp_starts) {
  REDFAT_CHECK(text != nullptr);
  REDFAT_CHECK(spans.size() == tramp_starts.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanPlan& span = spans[i];
    const uint64_t patch_off = span.addr - text->vaddr;
    const int64_t rel = static_cast<int64_t>(tramp_starts[i]) -
                        static_cast<int64_t>(span.addr + kJmpLen);
    REDFAT_CHECK(rel >= INT32_MIN && rel <= INT32_MAX);
    REDFAT_CHECK(patch_off + span.span_len <= text->bytes.size());
    Encode({.op = Op::kJmp, .imm = rel}, text->bytes.data() + patch_off);
    for (unsigned f = kJmpLen; f < span.span_len; ++f) {
      text->bytes[patch_off + f] = static_cast<uint8_t>(Op::kUd2);
    }
  }
}

Rewriter::Rewriter(const BinaryImage& image) : image_(image) {
  if (image_.FindSection(Section::Kind::kTrampoline) != nullptr) {
    error_ = "rewriter: image already contains a trampoline section";
    return;
  }
  Result<Disassembly> dis = DisassembleText(image_);
  if (!dis.ok()) {
    error_ = dis.error();
    return;
  }
  disasm_ = std::move(dis).value();
  cfg_ = RecoverCfg(disasm_, image_);
  ok_ = true;
}

Result<BinaryImage> Rewriter::Apply(const std::vector<PatchRequest>& requests,
                                    RewriteStats* stats, uint64_t trampoline_base) {
  REDFAT_CHECK(ok_);
  RewriteStats local;
  RewriteStats& st = stats != nullptr ? *stats : local;
  st = RewriteStats{};

  std::vector<uint64_t> addrs;
  addrs.reserve(requests.size());
  for (const PatchRequest& r : requests) {
    addrs.push_back(r.addr);
  }
  Result<std::vector<SpanPlan>> planned = PlanSpans(disasm_, cfg_, addrs, &st);
  if (!planned.ok()) {
    return Error(planned.error());
  }
  const std::vector<SpanPlan>& spans = planned.value();
  // The requests carry their own payload emitters.
  const auto payloads = [&requests](Assembler& as, size_t r) { requests[r].emit_payload(as); };
  const TrampolineCode code = EmitTrampolines(disasm_, spans, payloads, trampoline_base, &st);

  BinaryImage out = image_;
  Section* text = out.FindSection(Section::Kind::kText);
  REDFAT_CHECK(text != nullptr);
  PatchSpans(text, spans, code.starts);
  if (!code.bytes.empty()) {
    Section ts;
    ts.kind = Section::Kind::kTrampoline;
    ts.vaddr = trampoline_base;
    ts.bytes = code.bytes;
    out.sections.push_back(std::move(ts));
  }
  return out;
}

}  // namespace redfat
