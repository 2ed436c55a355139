// Architecture-level ABI contracts shared by guest programs, the VM, the
// allocator runtimes and the RedFat instrumentation:
//
//   * host-call numbers (the "libc boundary": malloc/free/etc. — the moral
//     equivalent of PLT calls into an LD_PRELOADed runtime);
//   * trap codes (VM service requests emitted by instrumentation);
//   * the fixed virtual-address-space layout (low-fat regions, code, stack).
#ifndef REDFAT_SRC_ISA_ABI_H_
#define REDFAT_SRC_ISA_ABI_H_

#include <cstdint>

namespace redfat {

// ---------------------------------------------------------------------------
// Host calls (libc boundary)
// ---------------------------------------------------------------------------
// Arguments in rdi/rsi/rdx, result in rax (SysV-flavored). Which allocator
// implements kMalloc/kFree is a property of the VM runtime binding — exactly
// like swapping malloc via LD_PRELOAD in the paper.
enum class HostFn : uint8_t {
  kExit = 0,      // exit(rdi): stop the machine with status rdi
  kMalloc = 1,    // rax = malloc(rdi)
  kFree = 2,      // free(rdi)
  kMemset = 3,    // memset(rdi, rsi, rdx)  (byte value rsi)
  kMemcpy = 4,    // memcpy(rdi, rsi, rdx)
  kInputU64 = 5,  // rax = next attacker/benign input word (test harness)
  kOutputU64 = 6, // append rdi to the program's output stream
  kRandU64 = 7,   // rax = deterministic pseudo-random word (seeded per run)
  kNumHostFns,
};

// ---------------------------------------------------------------------------
// Traps (VM service requests)
// ---------------------------------------------------------------------------
// kTrap carries an 8-bit code and a 32-bit argument.
enum class TrapCode : uint8_t {
  // Instrumentation found a memory error. arg = (site_id << 4) | ErrorKind.
  // Under Policy::kHarden the VM aborts the run; under Policy::kLog it
  // records the report and resumes.
  kMemError = 1,
  // Profiling-phase events (Fig. 5 step 1): the low-fat component of the
  // check passed / failed at site arg. Execution always continues.
  kProfPass = 2,
  kProfFail = 3,
  // A workload self-check failed (guest assertion). Always fatal.
  kAssertFail = 4,
  // Forensics prologue to kMemError: arg names the guest register (Reg
  // cast to its ordinal) holding the faulting effective address. Emitted by
  // the check generator immediately before the kMemError trap on error
  // paths only, so passing checks cost nothing extra. The VM latches the
  // register's value and attaches it to the next kMemError report; a VM
  // that ignores the code would still see the same guest-visible run.
  kErrAddr = 5,
};

enum class ErrorKind : uint8_t {
  kBounds = 0,  // out-of-bounds (lower/upper, includes redzone access)
  kUaf = 1,     // use-after-free (separate only when checks are not merged)
  kMeta = 2,    // corrupted size metadata (size-hardening check, Fig. 4 l.23)
  // Free of an already-freed base pointer. Raised by the VM's forensics
  // interception or (with --rheap=prot-freelist) by the allocator's own
  // metadata validation, never by generated check code.
  kDoubleFree = 3,
  // Tampered allocator metadata: a forged/corrupted in-guest freelist or
  // quarantine link, or an invalid (overlapping/interior) free. Raised by
  // the hardened allocator under --rheap=prot-freelist; the faulting
  // address is the tampered link word, not a guest access site.
  kFreelistCorruption = 4,
};

inline uint32_t PackErrorArg(uint32_t site_id, ErrorKind kind) {
  return (site_id << 4) | static_cast<uint32_t>(kind);
}
inline uint32_t ErrorArgSite(uint32_t arg) { return arg >> 4; }
inline ErrorKind ErrorArgKind(uint32_t arg) { return static_cast<ErrorKind>(arg & 0xf); }

// ---------------------------------------------------------------------------
// Virtual address space layout (Fig. 2 of the paper)
// ---------------------------------------------------------------------------
// The guest address space is partitioned into 32 GiB regions. Region #0 is
// non-fat and holds code, globals, the runtime tables and the stack. Regions
// #1..#kNumSizeClasses hold the low-fat subheaps. One further region holds
// the legacy (glibc-like) heap used by baselines and by the huge-allocation
// fallback.
inline constexpr unsigned kRegionShift = 35;  // 32 GiB
inline constexpr uint64_t kRegionSize = uint64_t{1} << kRegionShift;
inline constexpr unsigned kNumRegions = 64;  // table size; addresses < 2 TiB

// Low-fat size classes: multiples of 16 bytes up to 512 (classes 1..32),
// then powers of two from 1 KiB up to 32 MiB (classes 33..48). Class i lives
// in region #i.
inline constexpr unsigned kNumSizeClasses = 48;
inline constexpr uint64_t kMinAllocSize = 16;
inline constexpr uint64_t kMaxLowFatSize = 32ull << 20;

// Returns the allocation size of low-fat size class c (1-based), or 0 for
// out-of-range classes.
constexpr uint64_t SizeClassBytes(unsigned c) {
  if (c >= 1 && c <= 32) {
    return 16ull * c;
  }
  if (c >= 33 && c <= kNumSizeClasses) {
    return 1024ull << (c - 33);
  }
  return 0;
}

// Region #0 layout (all non-fat).
inline constexpr uint64_t kRuntimeTableBase = 0x10000;   // SIZES/MAGICS/SHIFTS
inline constexpr uint64_t kCodeBase = 0x400000;          // like a non-PIE ELF
inline constexpr uint64_t kTrampolineBase = 0x400000 + 0x10000000;  // +256 MiB
// Hot-tier (inline) check code lands this far above the image's trampoline
// base: its own region so the VM can attribute inline-check cycles
// separately from trampoline cycles, still within rel32 reach of the text.
inline constexpr uint64_t kInlineCheckOffset = 0x4000000;  // +64 MiB
inline constexpr uint64_t kStackTop = uint64_t{16} << 30;  // 16 GiB: >2 GiB from heap
inline constexpr uint64_t kStackSize = 8ull << 20;         // 8 MiB

// Legacy / fallback heap region (non-fat).
inline constexpr unsigned kLegacyHeapRegion = kNumSizeClasses + 2;  // region 50
inline constexpr uint64_t kLegacyHeapBase =
    static_cast<uint64_t>(kLegacyHeapRegion) << kRegionShift;

// The redzone prepended by the hardened allocator (Fig. 3).
inline constexpr uint64_t kRedzoneSize = 16;

// Runtime tables: three u64[kNumRegions] arrays at fixed addresses, loaded
// by the check code with absolute addressing. SIZES[r] == 0 marks a non-fat
// region (the paper uses SIZE_MAX; 0 lets the check use a single test).
inline constexpr uint64_t kSizesTableAddr = kRuntimeTableBase;
inline constexpr uint64_t kMagicsTableAddr = kRuntimeTableBase + 8 * kNumRegions;
inline constexpr uint64_t kShiftsTableAddr = kRuntimeTableBase + 16 * kNumRegions;

// --- ASAN-style shadow memory (the §4.1 alternative redzone scheme) -------
// One shadow byte per 8-byte granule, at kGuestShadowBase + (addr >> 3),
// kept by src/shadow/shadow.h. Its users: the RedzoneImpl::kShadow
// ablation (whose check bodies read it in guest code), the debug tier and
// the Memcheck baseline (whose DBI observer reads it). The shadow area
// spans regions 55..62 (non-fat, far from every subheap).
inline constexpr uint64_t kGuestShadowBase = uint64_t{55} << kRegionShift;
enum class GuestShadow : uint8_t {
  kOk = 0,       // addressable (untouched shadow reads 0)
  kRedzone = 1,
  kFreed = 2,
};

}  // namespace redfat

#endif  // REDFAT_SRC_ISA_ABI_H_
