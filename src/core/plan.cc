#include "src/core/plan.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "src/support/check.h"
#include "src/support/parallel.h"

namespace redfat {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kWarm:
      return "warm";
    case Tier::kHot:
      return "hot";
    case Tier::kCold:
      return "cold";
  }
  return "?";
}

TierStats AssignSiteTiers(const TierProfile& profile, double hot_threshold,
                          std::vector<SiteRecord>* sites) {
  TierStats ts;
  // Resolve every profile entry to a current site index. With a sitemap the
  // join goes through the profiled image's instruction addresses and
  // requires the site shape (rw + check kind) to match — a profile from a
  // different binary resolves nothing and tiers nothing.
  std::unordered_map<uint64_t, size_t> by_addr;
  std::unordered_map<uint32_t, const SiteRecord*> prof_by_id;
  if (profile.sitemap != nullptr) {
    by_addr.reserve(sites->size());
    for (size_t i = 0; i < sites->size(); ++i) {
      by_addr[(*sites)[i].addr] = i;
    }
    prof_by_id.reserve(profile.sitemap->size());
    for (const SiteRecord& s : *profile.sitemap) {
      prof_by_id[s.id] = &s;
    }
  }
  std::vector<std::pair<size_t, uint64_t>> resolved;  // (site index, cycles)
  resolved.reserve(profile.cycles_by_site.size());
  for (const auto& [id, cycles] : profile.cycles_by_site) {
    if (profile.sitemap != nullptr) {
      const auto pit = prof_by_id.find(id);
      if (pit == prof_by_id.end()) {
        ++ts.unknown;
        continue;
      }
      const SiteRecord& prof = *pit->second;
      auto it = by_addr.find(prof.addr);
      if (it == by_addr.end()) {
        ++ts.mismatched;
        continue;
      }
      const SiteRecord& cur = (*sites)[it->second];
      if (cur.is_write != prof.is_write || cur.kind != prof.kind) {
        ++ts.mismatched;
        continue;
      }
      resolved.emplace_back(it->second, cycles);
    } else {
      if (id >= sites->size()) {
        ++ts.unknown;
        continue;
      }
      resolved.emplace_back(static_cast<size_t>(id), cycles);
    }
  }
  // Rank by cycles (site index breaks ties) so the hot prefix is a total
  // order — the map's iteration order never leaks into the result.
  std::sort(resolved.begin(), resolved.end(),
            [](const std::pair<size_t, uint64_t>& a, const std::pair<size_t, uint64_t>& b) {
              if (a.second != b.second) {
                return a.second > b.second;
              }
              return a.first < b.first;
            });
  uint64_t total = 0;
  for (const auto& [idx, cycles] : resolved) {
    (*sites)[idx].tier = Tier::kCold;
    total += cycles;
  }
  ts.cold = resolved.size();
  if (total > 0) {
    uint64_t cum = 0;
    for (const auto& [idx, cycles] : resolved) {
      if (cycles == 0) {
        break;  // the zero-cycle tail can never be hot
      }
      (*sites)[idx].tier = Tier::kHot;
      ++ts.hot;
      --ts.cold;
      cum += cycles;
      if (static_cast<double>(cum) >= hot_threshold * static_cast<double>(total)) {
        break;
      }
    }
  }
  return ts;
}

bool IsEliminable(const MemOperand& mem) {
  if (mem.has_index()) {
    return false;
  }
  // No index register, and the base (if any) provably stays >= 2 GiB away
  // from low-fat heap regions: absolute operands (|disp| < 2 GiB, region 0),
  // stack-relative (stack top is 16 GiB, heap starts at 32 GiB) and
  // rip-relative (code in the low 2 GiB).
  return !mem.has_base() || mem.base == Reg::kRsp || mem.base == Reg::kRip;
}

bool HasUnambiguousPointer(const MemOperand& mem) {
  return mem.has_base() && mem.base != Reg::kRsp && mem.base != Reg::kRip;
}

namespace {

// `written` is a GPR mask (RegBit); a rip base is never written.
bool OperandRegsUnmodified(const MemOperand& mem, uint32_t written) {
  return ((RegBit(mem.base) | RegBit(mem.index)) & written) == 0;
}

// Merging key: operands sharing segment/base/index/scale and check kind are
// candidates for one union-range check (§6). rip-relative operands are
// excluded (their displacement is anchored per-instruction).
using MergeKey = std::tuple<uint8_t, uint8_t, uint8_t, uint8_t>;

MergeKey KeyOf(const PlannedCheck& c) {
  return MergeKey{static_cast<uint8_t>(c.mem.base), static_cast<uint8_t>(c.mem.index),
                  c.mem.scale_log2, static_cast<uint8_t>(c.kind)};
}

// A batch barrier: the instruction may free objects or change any register.
bool IsBatchBarrier(Op op) {
  return IsControlFlow(op) || op == Op::kHostCall || op == Op::kTrap;
}

// How many ranges to shard a per-instruction scan into. A few per worker
// balances skewed per-range costs; the range boundaries depend only on
// (n, jobs), and every sharded algorithm below is a prefix-sum or
// order-insensitive reduction, so results never depend on the schedule.
size_t ShardRanges(size_t n, const ThreadPool& pool) {
  return std::min<size_t>(static_cast<size_t>(pool.jobs()) * 4, n);
}

OperandClass ClassifyOne(const DisasmInsn& di, const RedFatOptions& opts,
                         size_t* mem_operands, size_t* considered) {
  if (!IsMemAccess(di.insn.op)) {
    return OperandClass::kNone;
  }
  ++*mem_operands;
  const bool is_write = IsMemWrite(di.insn.op);
  if (!(is_write ? opts.check_writes : opts.check_reads)) {
    return OperandClass::kFiltered;
  }
  ++*considered;
  if (IsEliminable(di.insn.mem)) {
    return OperandClass::kEliminable;
  }
  return HasUnambiguousPointer(di.insn.mem) ? OperandClass::kUnambiguous
                                            : OperandClass::kAmbiguous;
}

}  // namespace

std::vector<OperandClass> ClassifyOperands(const Disassembly& dis, const RedFatOptions& opts,
                                           PlanStats* stats, ThreadPool* pool) {
  const size_t n = dis.insns.size();
  std::vector<OperandClass> classes(n, OperandClass::kNone);
  if (pool != nullptr && pool->jobs() > 1 && n >= 1024) {
    const size_t ranges = ShardRanges(n, *pool);
    std::vector<size_t> mem_operands(ranges, 0);
    std::vector<size_t> considered(ranges, 0);
    pool->ParallelFor(ranges, [&](size_t r) {
      const size_t begin = r * n / ranges;
      const size_t end = (r + 1) * n / ranges;
      for (size_t i = begin; i < end; ++i) {
        classes[i] = ClassifyOne(dis.insns[i], opts, &mem_operands[r], &considered[r]);
      }
    });
    for (size_t r = 0; r < ranges; ++r) {
      stats->mem_operands += mem_operands[r];
      stats->considered += considered[r];
    }
    return classes;
  }
  for (size_t i = 0; i < n; ++i) {
    classes[i] = ClassifyOne(dis.insns[i], opts, &stats->mem_operands, &stats->considered);
  }
  return classes;
}

namespace {

// Phase-1 output of SelectSites for one instruction range: candidates with
// their check kinds decided but site ids unassigned.
struct RangeSelection {
  std::vector<SiteCandidate> candidates;
  size_t eliminated = 0;
  size_t redzone_dropped = 0;
};

void SelectSitesInRange(const Disassembly& dis, const std::vector<OperandClass>& classes,
                        const RedFatOptions& opts, const AllowList* allow, bool apply_elim,
                        size_t begin, size_t end, RangeSelection* out) {
  for (size_t i = begin; i < end; ++i) {
    switch (classes[i]) {
      case OperandClass::kNone:
      case OperandClass::kFiltered:
        continue;
      case OperandClass::kEliminable:
        if (apply_elim) {
          ++out->eliminated;
          continue;
        }
        break;
      case OperandClass::kAmbiguous:
      case OperandClass::kUnambiguous:
        break;
    }
    const DisasmInsn& di = dis.insns[i];
    const bool is_write = IsMemWrite(di.insn.op);

    // Decide the check kind (§3 "opportunistic hardening"). In profiling
    // mode, and in "full-on" mode (no allow-list given), every
    // unambiguous-pointer site gets the full check.
    CheckKind kind = CheckKind::kRedzoneOnly;
    if (opts.lowfat && classes[i] == OperandClass::kUnambiguous) {
      const bool allowed = opts.mode == RedFatOptions::Mode::kProfile || allow == nullptr ||
                           allow->Contains(di.addr);
      if (allowed) {
        kind = CheckKind::kFull;
      }
    }
    // The fast hardening tier (core/policy.h) leaves ambiguous sites bare:
    // only the (LowFat)-checkable population is instrumented.
    if (kind == CheckKind::kRedzoneOnly && !opts.redzone_only_sites) {
      ++out->redzone_dropped;
      continue;
    }
    SiteCandidate cand;
    cand.insn_index = i;
    cand.check.mem = di.insn.mem;
    cand.check.access_len = di.insn.mem.access_size();
    cand.check.kind = kind;
    cand.check.is_write = is_write;
    cand.check.anchor_next = di.end();
    out->candidates.push_back(std::move(cand));
  }
}

}  // namespace

std::vector<SiteCandidate> SelectSites(const Disassembly& dis,
                                       const std::vector<OperandClass>& classes,
                                       const RedFatOptions& opts, const AllowList* allow,
                                       bool apply_elim, PlanStats* stats,
                                       std::vector<SiteRecord>* sites, ThreadPool* pool) {
  REDFAT_CHECK(classes.size() == dis.insns.size());
  const size_t n = dis.insns.size();
  // Phase 1: discover candidates and decide kinds per instruction range.
  // The kind depends only on the instruction itself, not on the site id.
  std::vector<RangeSelection> selected(1);
  if (pool != nullptr && pool->jobs() > 1 && n >= 1024) {
    const size_t ranges = ShardRanges(n, *pool);
    selected.resize(ranges);
    pool->ParallelFor(ranges, [&](size_t r) {
      SelectSitesInRange(dis, classes, opts, allow, apply_elim, r * n / ranges,
                         (r + 1) * n / ranges, &selected[r]);
    });
  } else {
    SelectSitesInRange(dis, classes, opts, allow, apply_elim, 0, n, &selected[0]);
  }
  // Phase 2 (serial): assign sequential site ids in address order — ranges
  // are address-ordered, so concatenation numbers sites exactly like the
  // serial scan.
  std::vector<SiteCandidate> candidates;
  size_t total = 0;
  for (const RangeSelection& sel : selected) {
    total += sel.candidates.size();
  }
  candidates.reserve(total);
  sites->reserve(sites->size() + total);
  for (RangeSelection& sel : selected) {
    stats->eliminated += sel.eliminated;
    stats->redzone_dropped += sel.redzone_dropped;
    for (SiteCandidate& cand : sel.candidates) {
      const uint32_t site_id = static_cast<uint32_t>(sites->size());
      sites->push_back(SiteRecord{site_id, dis.insns[cand.insn_index].addr,
                                  cand.check.is_write, cand.check.kind});
      if (cand.check.kind == CheckKind::kFull) {
        ++stats->full_sites;
      } else {
        ++stats->redzone_sites;
      }
      cand.check.member_sites.push_back(site_id);
      candidates.push_back(std::move(cand));
    }
  }
  return candidates;
}

std::vector<PlannedTrampoline> SingletonTrampolines(const Disassembly& dis,
                                                    std::vector<SiteCandidate> candidates,
                                                    ThreadPool* pool) {
  std::vector<PlannedTrampoline> out(candidates.size());
  const auto fill_one = [&](size_t i) {
    SiteCandidate& cand = candidates[i];
    PlannedTrampoline& tramp = out[i];
    tramp.addr = dis.insns[cand.insn_index].addr;
    tramp.insn_index = cand.insn_index;
    tramp.checks.push_back(std::move(cand.check));
  };
  if (pool != nullptr && pool->jobs() > 1 && candidates.size() >= 1024) {
    pool->ParallelFor(candidates.size(), fill_one);
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) {
      fill_one(i);
    }
  }
  return out;
}

namespace {

// The serial batching scan over the candidate sub-range [c_begin, c_end),
// starting the instruction walk at the first candidate's index. Batches
// never cross basic blocks and `written` only matters while a batch is
// open, so a scan started at a block-aligned candidate partition reproduces
// the corresponding slice of the full serial scan exactly.
std::vector<PlannedTrampoline> BatchCandidateRange(const Disassembly& dis, const CfgInfo& cfg,
                                                   std::vector<PlannedTrampoline>& singles,
                                                   size_t c_begin, size_t c_end) {
  std::vector<PlannedTrampoline> out;
  if (c_begin >= c_end) {
    return out;
  }
  PlannedTrampoline current;
  bool open = false;
  uint32_t written = 0;  // GPRs written since the leader
  uint32_t current_block = 0;
  // Induction tracking for tiered (hot/cold) leaders: the constant offset
  // each register has accumulated since the leader via add/sub-immediate,
  // and whether the register's value is still leader-value + delta. Only
  // maintained while a tiered batch is open; with every tier kWarm the scan
  // below is exactly the pre-tiering algorithm.
  int64_t delta[kNumGprs] = {};
  bool delta_known[kNumGprs] = {};

  auto reset_deltas = [&]() {
    std::fill(delta, delta + kNumGprs, 0);
    std::fill(delta_known, delta_known + kNumGprs, true);
  };

  auto close = [&]() {
    if (open && !current.checks.empty()) {
      out.push_back(std::move(current));
    }
    current = PlannedTrampoline{};
    open = false;
    written = 0;
  };

  // Rebase `check` so that evaluating it at the leader yields the address
  // the operand resolves to at its own instruction: every operand register
  // must have a known constant delta, and the shifted displacement must
  // still encode. Returns false (caller closes the batch) otherwise.
  auto try_fold = [&](PlannedCheck* check) {
    int64_t shift = 0;
    if (check->mem.has_base() && check->mem.base != Reg::kRip) {
      const size_t b = RegIndex(check->mem.base);
      if (!delta_known[b]) {
        return false;
      }
      shift += delta[b];
    }
    if (check->mem.has_index()) {
      const size_t x = RegIndex(check->mem.index);
      if (!delta_known[x]) {
        return false;
      }
      shift += delta[x] << check->mem.scale_log2;
    }
    const int64_t nd = static_cast<int64_t>(check->mem.disp) + shift;
    if (nd < INT32_MIN || nd > INT32_MAX) {
      return false;
    }
    check->mem.disp = static_cast<int32_t>(nd);
    return true;
  };

  size_t next = c_begin;
  const size_t first_insn = singles[c_begin].insn_index;
  for (size_t i = first_insn; i < dis.insns.size(); ++i) {
    if (next == c_end) {
      break;  // no candidates left; membership of the open batch is fixed
    }
    const DisasmInsn& di = dis.insns[i];
    if (i == first_insn || cfg.block_id[i] != current_block || cfg.is_jump_target[i] != 0) {
      close();
      current_block = cfg.block_id[i];
    }

    if (next < c_end && singles[next].insn_index == i) {
      const Tier cand_tier = singles[next].tier;
      PlannedCheck check = std::move(singles[next].checks.front());
      ++next;
      if (open && !OperandRegsUnmodified(check.mem, written)) {
        const bool folded = current.tier != Tier::kWarm && !check.mem.rip_relative() &&
                            try_fold(&check);
        if (!folded) {
          close();
        }
      }
      if (!open) {
        current.addr = di.addr;
        current.insn_index = i;
        current.tier = cand_tier;
        open = true;
        written = 0;  // relevant writes start at the leader
        reset_deltas();
      }
      current.checks.push_back(std::move(check));
    }

    const uint32_t regs = RegsWritten(di.insn);
    written |= regs;
    if (open && current.tier != Tier::kWarm) {
      if ((di.insn.op == Op::kAddRI || di.insn.op == Op::kSubRI) && IsGpr(di.insn.r0)) {
        const size_t r = RegIndex(di.insn.r0);
        delta[r] += di.insn.op == Op::kAddRI ? di.insn.imm : -di.insn.imm;
      } else {
        for (int r = 0; r < kNumGprs; ++r) {
          if ((regs >> r & 1u) != 0) {
            delta_known[r] = false;
          }
        }
      }
    }
    if (IsBatchBarrier(di.insn.op)) {
      close();
    }
  }
  close();
  return out;
}

}  // namespace

std::vector<PlannedTrampoline> BatchTrampolines(const Disassembly& dis, const CfgInfo& cfg,
                                                std::vector<PlannedTrampoline> singles,
                                                ThreadPool* pool) {
  if (pool == nullptr || pool->jobs() <= 1 || singles.size() < 1024) {
    return BatchCandidateRange(dis, cfg, singles, 0, singles.size());
  }
  // Partition the candidate list at basic-block changes: a batch never
  // crosses a block boundary, so batching each partition independently and
  // concatenating is byte-identical to the full serial scan. Partition
  // boundaries are derived from (candidate count, jobs) and the block ids —
  // never from the schedule.
  const size_t parts_target = ShardRanges(singles.size(), *pool);
  std::vector<size_t> bounds;
  bounds.push_back(0);
  for (size_t p = 1; p < parts_target; ++p) {
    size_t idx = p * singles.size() / parts_target;
    while (idx < singles.size() &&
           cfg.block_id[singles[idx].insn_index] ==
               cfg.block_id[singles[idx - 1].insn_index]) {
      ++idx;
    }
    if (idx > bounds.back() && idx < singles.size()) {
      bounds.push_back(idx);
    }
  }
  bounds.push_back(singles.size());
  const size_t parts = bounds.size() - 1;
  std::vector<std::vector<PlannedTrampoline>> shards(parts);
  pool->ParallelFor(parts, [&](size_t p) {
    shards[p] = BatchCandidateRange(dis, cfg, singles, bounds[p], bounds[p + 1]);
  });
  std::vector<PlannedTrampoline> out;
  size_t total = 0;
  for (const std::vector<PlannedTrampoline>& shard : shards) {
    total += shard.size();
  }
  out.reserve(total);
  for (std::vector<PlannedTrampoline>& shard : shards) {
    for (PlannedTrampoline& tramp : shard) {
      out.push_back(std::move(tramp));
    }
  }
  return out;
}

void MergeTrampolineChecks(PlannedTrampoline* tramp) {
  std::map<MergeKey, std::vector<PlannedCheck>> groups;
  std::vector<PlannedCheck> keep;
  for (PlannedCheck& c : tramp->checks) {
    if (c.mem.rip_relative()) {
      keep.push_back(std::move(c));
    } else {
      groups[KeyOf(c)].push_back(std::move(c));
    }
  }
  std::vector<PlannedCheck> merged;
  for (auto& [key, list] : groups) {
    (void)key;
    // The merged range must be computed in 64 bits: disp is int32 and
    // access_len is uint32, so `disp + access_len` wraps through unsigned
    // arithmetic for negative displacements (e.g. rsp-relative checks that
    // survive --no-elim).
    int64_t lo = list.front().mem.disp;
    int64_t hi = lo + static_cast<int64_t>(list.front().access_len);
    for (size_t i = 1; i < list.size(); ++i) {
      const int64_t cl = list[i].mem.disp;
      const int64_t ch = cl + static_cast<int64_t>(list[i].access_len);
      lo = std::min(lo, cl);
      hi = std::max(hi, ch);
    }
    // Codegen narrows the merged access_len through int32, so INT32_MAX is
    // the widest span a single merged check can encode. Groups within the
    // bound merge exactly as before (member order preserved — output bytes
    // are unchanged for every previously-working plan); wider groups are
    // split by displacement into the fewest in-bound merged checks.
    if (hi - lo <= INT32_MAX) {
      PlannedCheck m = list.front();
      for (size_t i = 1; i < list.size(); ++i) {
        const PlannedCheck& c = list[i];
        m.is_write = m.is_write || c.is_write;
        m.member_sites.insert(m.member_sites.end(), c.member_sites.begin(),
                              c.member_sites.end());
      }
      m.mem.disp = static_cast<int32_t>(lo);
      m.access_len = static_cast<uint32_t>(hi - lo);
      merged.push_back(std::move(m));
      continue;
    }
    std::stable_sort(list.begin(), list.end(),
                     [](const PlannedCheck& a, const PlannedCheck& b) {
                       return a.mem.disp < b.mem.disp;
                     });
    size_t i = 0;
    while (i < list.size()) {
      PlannedCheck m = std::move(list[i]);
      int64_t slo = m.mem.disp;
      int64_t shi = slo + static_cast<int64_t>(m.access_len);
      size_t j = i + 1;
      for (; j < list.size(); ++j) {
        const PlannedCheck& c = list[j];
        const int64_t ch =
            static_cast<int64_t>(c.mem.disp) + static_cast<int64_t>(c.access_len);
        if (ch - slo > INT32_MAX) {
          break;
        }
        shi = std::max(shi, ch);
        m.is_write = m.is_write || c.is_write;
        m.member_sites.insert(m.member_sites.end(), c.member_sites.begin(),
                              c.member_sites.end());
      }
      m.mem.disp = static_cast<int32_t>(slo);
      m.access_len = static_cast<uint32_t>(shi - slo);
      merged.push_back(std::move(m));
      i = j;
    }
  }
  tramp->checks.clear();
  for (auto& c : merged) {
    tramp->checks.push_back(std::move(c));
  }
  for (auto& c : keep) {
    tramp->checks.push_back(std::move(c));
  }
}

InstrumentPlan BuildPlan(const Disassembly& dis, const CfgInfo& cfg, const RedFatOptions& opts,
                         const AllowList* allow) {
  InstrumentPlan plan;
  const std::vector<OperandClass> classes = ClassifyOperands(dis, opts, &plan.stats);
  std::vector<SiteCandidate> candidates =
      SelectSites(dis, classes, opts, allow, opts.elim, &plan.stats, &plan.sites);
  plan.trampolines = SingletonTrampolines(dis, std::move(candidates));
  if (opts.batch) {
    plan.trampolines = BatchTrampolines(dis, cfg, std::move(plan.trampolines));
  }
  for (PlannedTrampoline& tramp : plan.trampolines) {
    if (opts.merge) {
      MergeTrampolineChecks(&tramp);
    }
    plan.stats.checks_emitted += tramp.checks.size();
  }
  plan.stats.trampolines = plan.trampolines.size();
  return plan;
}

}  // namespace redfat
