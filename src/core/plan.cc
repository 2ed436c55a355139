#include "src/core/plan.h"

#include <algorithm>
#include <tuple>

#include "src/support/check.h"

namespace redfat {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kWarm:
      return "warm";
    case Tier::kHot:
      return "hot";
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
    total += cycles;
  }
  if (total > 0) {
    uint64_t cum = 0;
    for (const auto& [idx, cycles] : resolved) {
      if (cycles == 0) {
        break;  // the zero-cycle tail can never be hot
      }
      (*sites)[idx].tier = Tier::kHot;
      ++ts.hot;
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
                                           PlanStats* stats) {
  const size_t n = dis.insns.size();
  std::vector<OperandClass> classes(n, OperandClass::kNone);
  for (size_t i = 0; i < n; ++i) {
    classes[i] = ClassifyOne(dis.insns[i], opts, &stats->mem_operands, &stats->considered);
  }
  return classes;
}

std::vector<SiteCandidate> SelectSites(const Disassembly& dis,
                                       const std::vector<OperandClass>& classes,
                                       const RedFatOptions& opts, const AllowList* allow,
                                       bool apply_elim, PlanStats* stats,
                                       std::vector<SiteRecord>* sites) {
  REDFAT_CHECK(classes.size() == dis.insns.size());
  std::vector<SiteCandidate> candidates;
  for (size_t i = 0; i < dis.insns.size(); ++i) {
    switch (classes[i]) {
      case OperandClass::kNone:
      case OperandClass::kFiltered:
        continue;
      case OperandClass::kEliminable:
        if (apply_elim) {
          ++stats->eliminated;
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
      ++stats->redzone_dropped;
      continue;
    }
    // Site ids are sequential in address order.
    const uint32_t site_id = static_cast<uint32_t>(sites->size());
    sites->push_back(SiteRecord{site_id, di.addr, is_write, kind});
    if (kind == CheckKind::kFull) {
      ++stats->full_sites;
    } else {
      ++stats->redzone_sites;
    }
    SiteCandidate cand;
    cand.insn_index = i;
    cand.check.mem = di.insn.mem;
    cand.check.access_len = di.insn.mem.access_size();
    cand.check.kind = kind;
    cand.check.is_write = is_write;
    cand.check.anchor_next = di.end();
    cand.check.member_sites.push_back(site_id);
    candidates.push_back(std::move(cand));
  }
  return candidates;
}

std::vector<PlannedTrampoline> SingletonTrampolines(const Disassembly& dis,
                                                    std::vector<SiteCandidate> candidates) {
  std::vector<PlannedTrampoline> out(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    SiteCandidate& cand = candidates[i];
    PlannedTrampoline& tramp = out[i];
    tramp.addr = dis.insns[cand.insn_index].addr;
    tramp.insn_index = cand.insn_index;
    tramp.checks.push_back(std::move(cand.check));
  }
  return out;
}

std::vector<PlannedTrampoline> BatchTrampolines(const Disassembly& dis, const CfgInfo& cfg,
                                                std::vector<PlannedTrampoline> singles) {
  std::vector<PlannedTrampoline> out;
  if (singles.empty()) {
    return out;
  }
  PlannedTrampoline current;
  bool open = false;
  uint32_t written = 0;  // GPRs written since the leader
  uint32_t current_block = 0;
  // Induction tracking for hot leaders: the constant offset each register
  // has accumulated since the leader via add/sub-immediate, and whether the
  // register's value is still leader-value + delta. Only maintained while a
  // hot batch is open; with every tier kWarm the scan below is exactly the
  // pre-tiering algorithm.
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

  size_t next = 0;
  const size_t first_insn = singles.front().insn_index;
  for (size_t i = first_insn; i < dis.insns.size(); ++i) {
    if (next == singles.size()) {
      break;  // no candidates left; membership of the open batch is fixed
    }
    const DisasmInsn& di = dis.insns[i];
    if (i == first_insn || cfg.block_id[i] != current_block || cfg.is_jump_target[i] != 0) {
      close();
      current_block = cfg.block_id[i];
    }

    if (singles[next].insn_index == i) {
      const Tier cand_tier = singles[next].tier;
      PlannedCheck check = std::move(singles[next].checks.front());
      ++next;
      if (open && !OperandRegsUnmodified(check.mem, written)) {
        const bool folded = current.tier == Tier::kHot && !check.mem.rip_relative() &&
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
    if (open && current.tier == Tier::kHot) {
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

void MergeTrampolineChecks(PlannedTrampoline* tramp) {
  if (tramp->checks.size() < 2) {
    return;  // a lone check merges into itself (and std::stable_sort allocates)
  }
  // Groups in place: rip-relative checks go last in their order, the rest
  // are stably sorted by key, so each group keeps its members' order and
  // groups come out in key order. Each group folds into the check at `out`,
  // which never passes the group being read.
  std::vector<PlannedCheck>& checks = tramp->checks;
  const auto rip = std::stable_partition(checks.begin(), checks.end(), [](const PlannedCheck& c) {
    return !c.mem.rip_relative();
  });
  std::stable_sort(checks.begin(), rip, [](const PlannedCheck& a, const PlannedCheck& b) {
    return KeyOf(a) < KeyOf(b);
  });
  auto out = checks.begin();
  const auto fold = [&out](auto first, auto last, int64_t lo, int64_t hi) {
    PlannedCheck m = std::move(*first);
    for (auto c = first + 1; c != last; ++c) {
      m.is_write = m.is_write || c->is_write;
      m.member_sites.insert(m.member_sites.end(), c->member_sites.begin(),
                            c->member_sites.end());
    }
    m.mem.disp = static_cast<int32_t>(lo);
    m.access_len = static_cast<uint32_t>(hi - lo);
    *out++ = std::move(m);
  };
  for (auto group = checks.begin(); group != rip;) {
    const auto end = std::find_if(group, rip, [&](const PlannedCheck& c) {
      return KeyOf(c) != KeyOf(*group);
    });
    // The merged range must be computed in 64 bits: disp is int32 and
    // access_len is uint32, so `disp + access_len` wraps through unsigned
    // arithmetic for negative displacements (e.g. rsp-relative checks that
    // survive --no-elim).
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (auto c = group; c != end; ++c) {
      lo = std::min<int64_t>(lo, c->mem.disp);
      hi = std::max(hi, c->mem.disp + static_cast<int64_t>(c->access_len));
    }
    // Codegen narrows the merged access_len through int32, so INT32_MAX is
    // the widest span a single merged check can encode. Groups within the
    // bound merge whole; wider groups are split by displacement into the
    // fewest in-bound merged checks.
    if (hi - lo <= INT32_MAX) {
      fold(group, end, lo, hi);
      group = end;
      continue;
    }
    std::stable_sort(group, end, [](const PlannedCheck& a, const PlannedCheck& b) {
      return a.mem.disp < b.mem.disp;
    });
    while (group != end) {
      const int64_t slo = group->mem.disp;
      int64_t shi = slo + static_cast<int64_t>(group->access_len);
      auto next = group + 1;
      for (; next != end; ++next) {
        const int64_t ch = next->mem.disp + static_cast<int64_t>(next->access_len);
        if (ch - slo > INT32_MAX) {
          break;
        }
        shi = std::max(shi, ch);
      }
      fold(group, next, slo, shi);
      group = next;
    }
  }
  checks.erase(out, rip);  // moves the rip-relative tail down
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
