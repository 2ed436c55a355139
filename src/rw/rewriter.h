// E9Patch-style trampoline-based static binary rewriting (paper §2.2).
//
// For each requested instrumentation point, the instruction at that address
// is overwritten with a 5-byte `jmp rel32` into a trampoline containing:
//
//     (1) the instrumentation payload (emitted by the caller),
//     (2) the displaced instruction(s), relocated, and
//     (3) a jump back to the instruction after the overwritten span.
//
// If the target instruction is shorter than 5 bytes, the jump "puns" over
// the following instruction(s); all overwritten instructions are relocated
// into the trampoline and the leftover bytes are filled with 1-byte ud2
// (like E9Patch's int3 filler). Punning is refused — and the site skipped,
// opportunistically — when a recovered jump target lands inside the span,
// or when a call would be displaced (its pushed return address must be
// emulated only for the first span slot).
//
// Relocation fixups: rel32 branches are re-anchored, rip-relative memory
// operands get their displacement adjusted, and displaced calls are
// emulated as push-return-address + jmp.
//
// Rewriting is exposed as three free-function stages over a shared
// disassembly (so the pass pipeline can reuse cached analyses, and time and
// parallelize each stage independently):
//   PlanSpans        — serial: overwrite-span construction + conflicts;
//   EmitTrampolines  — per-span code emission (payloads + relocations +
//                      jump back), in one pass: the spans are split into
//                      one contiguous chunk per worker, each chunk is
//                      emitted once by a relocatable Assembler at the
//                      blob's base (its payloads by an emitter made for
//                      that chunk), the chunks are laid out by prefix sum,
//                      and each is rebased to its final address and written
//                      into the blob — byte-identical to emitting every
//                      span in order at its final address;
//   PatchSpans       — overwrite the original text bytes.
// The Rewriter class composes the three over its own disassembly.
#ifndef REDFAT_SRC_RW_REWRITER_H_
#define REDFAT_SRC_RW_REWRITER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/asm/assembler.h"
#include "src/bin/image.h"
#include "src/rw/disasm.h"
#include "src/support/result.h"

namespace redfat {

// Emits payload code into the trampoline assembler. The payload must
// preserve all guest-visible state it does not own (the caller decides
// which registers/flags are dead via its own clobber analysis). Payload
// emitters run once per span and must be safe to invoke concurrently from
// the parallel emission stage. Position-dependent fields must go through
// the Assembler's recorded forms (labels, JmpAbs/JccAbs/CallAbs,
// EmitRipRelative), never through Here(): the code is rebased after
// emission.
using PayloadEmitter = std::function<void(Assembler&)>;

struct PatchRequest {
  uint64_t addr = 0;
  PayloadEmitter emit_payload;
};

// The payload emitter of one emission chunk: emits request `r`'s payload at
// the assembler's position, under the PayloadEmitter rules.
using ChunkEmitter = std::function<void(Assembler& as, size_t r)>;
// Makes a chunk's emitter. EmitTrampolines calls it on the thread that
// emits the chunk and drops the emitter with the chunk, so state kept in it
// (codegen's stencil table) needs no lock and does not outlive the rewrite.
using ChunkEmitterFactory = std::function<ChunkEmitter()>;

struct RewriteStats {
  size_t requested = 0;
  size_t applied = 0;                 // payload emitted (own jump or merged into a span)
  size_t skipped_target_conflict = 0; // recovered jump target inside the span
  size_t skipped_call_span = 0;       // span would displace a call mid-span
  size_t skipped_section_end = 0;     // not enough bytes before section end
  uint64_t trampoline_bytes = 0;
  size_t trampolines = 0;
  // Hot-tier spans emitted into the separate inline-check region (zero
  // without a tiering profile).
  uint64_t inline_bytes = 0;
  size_t inline_trampolines = 0;
};

// One accepted overwrite span: whole instructions covering the 5-byte jmp
// (at most 5, since every instruction takes a byte), plus which request (by
// index into the request vector) supplies the payload at each slot
// (SIZE_MAX = no payload at that slot).
struct SpanPlan {
  uint64_t addr = 0;                 // patch address (first instruction)
  unsigned span_len = 0;             // bytes overwritten in text
  size_t first_insn = 0;             // index of the first displaced instruction
  size_t num_insns = 0;              // instructions displaced, from first_insn on
  std::array<size_t, 5> payloads{};  // per displaced instruction

  size_t last_insn() const { return first_insn + num_insns - 1; }
};

// Stage 1: builds overwrite spans for the requests at `addrs` (validating
// addresses, counting skips into `stats`). Requests must be at unique
// instruction-boundary addresses inside the text section.
Result<std::vector<SpanPlan>> PlanSpans(const Disassembly& dis, const CfgInfo& cfg,
                                        const std::vector<uint64_t>& addrs,
                                        RewriteStats* stats);

// Stage 2: emits all span trampolines as one code blob based at
// `trampoline_base`, recording each span's start address. Every span is
// emitted exactly once: in one chunk serially, or in one chunk per worker
// that is rebased into place afterwards. The blob is byte-identical for
// every job count. Fills stats->applied/trampolines/trampoline_bytes.
struct TrampolineCode {
  std::vector<uint8_t> bytes;
  std::vector<uint64_t> starts;  // parallel to the span vector
};
TrampolineCode EmitTrampolines(const Disassembly& dis, std::span<const SpanPlan> spans,
                               const ChunkEmitterFactory& payloads,
                               uint64_t trampoline_base, unsigned jobs, RewriteStats* stats);

// Pool form: same chunked emission, but on the pipeline's persistent
// workers instead of a per-call pool (nullptr = one chunk, serial).
TrampolineCode EmitTrampolines(const Disassembly& dis, std::span<const SpanPlan> spans,
                               const ChunkEmitterFactory& payloads,
                               uint64_t trampoline_base, ThreadPool* pool,
                               RewriteStats* stats);

// Stage 3: overwrites each span's original bytes with `jmp rel32` into its
// trampoline plus 1-byte ud2 filler. Spans never overlap (PlanSpans merges
// or skips colliding sites), so with a pool each span patches its own
// disjoint text range in parallel.
void PatchSpans(Section* text, const std::vector<SpanPlan>& spans,
                const std::vector<uint64_t>& tramp_starts, ThreadPool* pool = nullptr);

class Rewriter {
 public:
  // The image must not already contain a trampoline section.
  explicit Rewriter(const BinaryImage& image);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  const Disassembly& disasm() const { return disasm_; }
  const CfgInfo& cfg() const { return cfg_; }

  // Applies all requests and returns the rewritten image. `trampoline_base`
  // places the new section (shared objects instrumented separately need
  // distinct, non-overlapping bases — §7.4). With `jobs > 1` the span
  // trampolines are emitted across a thread pool; the output is
  // byte-identical to `jobs == 1`.
  Result<BinaryImage> Apply(const std::vector<PatchRequest>& requests, RewriteStats* stats,
                            uint64_t trampoline_base = kTrampolineBase, unsigned jobs = 1);

 private:
  BinaryImage image_;
  Disassembly disasm_;
  CfgInfo cfg_;
  bool ok_ = false;
  std::string error_;
};

}  // namespace redfat

#endif  // REDFAT_SRC_RW_REWRITER_H_
