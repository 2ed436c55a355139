// Configuration of the RedFat instrumentation (paper §§4-6).
//
// The flags map 1:1 to the columns of Table 1:
//   unoptimized : elim/batch/merge all false
//   +elim       : elim
//   +batch      : elim + batch
//   +merge      : elim + batch + merge
//   -size       : ... + size_hardening=false
//   -reads      : ... + check_reads=false
#ifndef REDFAT_SRC_CORE_OPTIONS_H_
#define REDFAT_SRC_CORE_OPTIONS_H_

#include <cstdint>

#include "src/isa/abi.h"

namespace redfat {

struct TierProfile;  // core/plan.h

// How the (Redzone) component is implemented (§4.1):
//   kLowFatMetadata — the paper's scheme: state/size metadata stored inside
//     the 16-byte redzone, located via base(ptr). Shares machinery with the
//     (LowFat) component and checks exact malloc bounds (padding included).
//   kShadow — ASAN/Memcheck-style shadow bytes at kGuestShadowBase. Needs a
//     separate lookup, O(size) marking in the allocator, extra memory, and
//     cannot see overflows into allocation padding. Provided for the
//     redzone-implementation ablation; requires RuntimeKind::kRedFatShadow.
enum class RedzoneImpl { kLowFatMetadata, kShadow };

struct RedFatOptions {
  // What to instrument.
  bool check_reads = true;
  bool check_writes = true;

  RedzoneImpl redzone_impl = RedzoneImpl::kLowFatMetadata;

  // Check contents (Fig. 4).
  bool lowfat = true;          // allow the (LowFat) component at all
  bool size_hardening = true;  // metadata validation (lines 23-24)
  // Instrument ambiguous-pointer sites with a (Redzone)-only check. Off is
  // the fast hardening tier (core/policy.h): only unambiguous sites — the
  // population eligible for the full (Redzone)+(LowFat) check — are
  // instrumented, and ambiguous sites are left bare.
  bool redzone_only_sites = true;
  // Use the branchless merged lower/upper-bound check via u32 underflow
  // (§4.2 "Mergeable code"). Off = separate UAF/LB/UB compare+branch chain.
  bool merged_ub = true;

  // Optimizations (§6).
  bool elim = true;   // check elimination (provably non-heap operands)
  bool batch = true;  // check batching (one trampoline per reorderable group)
  bool merge = true;  // check merging (union range of same-shape operands)
  // Low-level: use dead registers/flags instead of save/restore pairs.
  bool clobber_analysis = true;

  // Profiling mode emits the Fig. 5 step-1 instrumentation: every site gets
  // the full check, failures are recorded (not reported) and passes counted.
  enum class Mode { kProduction, kProfile };
  Mode mode = Mode::kProduction;

  // Where this binary's trampoline section is placed. Executables use the
  // default; shared objects instrumented separately (§7.4) must pick a
  // non-overlapping address within rel32 reach of their own text.
  // Hot-tier trampolines land in a second (inline-check) region at
  // trampoline_base + kInlineCheckOffset.
  uint64_t trampoline_base = kTrampolineBase;

  // Profile-guided check tiering: a prior run's per-site cycle profile
  // (core/plan.h TierProfile), or null for untiered output — in which case
  // the tier pass is disabled and the image is byte-identical to a build
  // without tiering support. The pointee must outlive the instrumentation
  // run. `hot_threshold` is the fraction of total profiled trampoline
  // cycles the hot set must cover (sites ranked by cycles, descending).
  const TierProfile* tier_profile = nullptr;
  double hot_threshold = 0.9;

  // The Table-1 ablation columns. Defined in core/policy.cc through the
  // policy layer (AblationPolicy presets) so the option combinations are
  // not encoded by hand here.
  static RedFatOptions Unoptimized();
  static RedFatOptions Elim();
  static RedFatOptions Batch();
  static RedFatOptions Merge();
  static RedFatOptions NoSize();
  static RedFatOptions NoReads();
  static RedFatOptions Profile() {
    RedFatOptions o;
    o.mode = Mode::kProfile;
    return o;
  }
};

}  // namespace redfat

#endif  // REDFAT_SRC_CORE_OPTIONS_H_
