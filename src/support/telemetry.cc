#include "src/support/telemetry.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/json.h"
#include "src/support/str.h"

namespace redfat {

const char* SiteEventName(SiteEvent ev) {
  switch (ev) {
    case SiteEvent::kChecks: return "checks";
    case SiteEvent::kRedzoneHits: return "redzone_hits";
    case SiteEvent::kLowFatPasses: return "lowfat_passes";
    case SiteEvent::kLowFatFails: return "lowfat_fails";
    case SiteEvent::kTrampCycles: return "tramp_cycles";
    case SiteEvent::kInlineCycles: return "inline_check_cycles";
  }
  REDFAT_FATAL("bad site event");
}

// --- TelemetryShard --------------------------------------------------------

TelemetryShard::~TelemetryShard() {
  for (std::atomic<Block*>& b : blocks_) {
    delete b.load(std::memory_order_relaxed);
  }
}

void TelemetryShard::AddSite(uint32_t site, SiteEvent ev, uint64_t delta) {
  const size_t block_index = site / kBlockSites;
  if (block_index >= kMaxBlocks) {
    overflow_.fetch_add(delta, std::memory_order_relaxed);
    return;
  }
  Block* block = blocks_[block_index].load(std::memory_order_relaxed);
  if (block == nullptr) {
    // Only the owning thread allocates, so no CAS race to handle; release
    // publishes the zeroed block to concurrent Snapshot() readers.
    block = new Block();
    blocks_[block_index].store(block, std::memory_order_release);
  }
  const size_t slot =
      (site % kBlockSites) * kNumSiteEvents + static_cast<size_t>(ev);
  block->v[slot].fetch_add(delta, std::memory_order_relaxed);
}

// --- HistogramData ---------------------------------------------------------

uint64_t HistogramData::Count() const {
  uint64_t n = 0;
  for (const auto& [index, count] : buckets) {
    n += count;
  }
  return n;
}

uint64_t HistogramData::Percentile(double q) const {
  const uint64_t n = Count();
  if (n == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 100) {
    q = 100;
  }
  // The q-th percentile is the rank-ceil(q/100*n) sample (1-based), never
  // below rank 1: a pure function of the bucket counts, so two snapshots
  // with equal buckets always report equal percentiles.
  uint64_t rank = static_cast<uint64_t>(q / 100.0 * static_cast<double>(n));
  if (static_cast<double>(rank) * 100.0 < q * static_cast<double>(n)) {
    ++rank;
  }
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cum = 0;
  for (const auto& [index, count] : buckets) {
    cum += count;
    if (cum >= rank) {
      return HistogramBucketLowerBound(index);
    }
  }
  return HistogramBucketLowerBound(buckets.rbegin()->first);
}

double HistogramData::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

// --- TelemetrySnapshot -----------------------------------------------------

const SiteTelemetry* TelemetrySnapshot::FindSite(uint32_t id) const {
  const auto it = std::lower_bound(
      sites.begin(), sites.end(), id,
      [](const SiteTelemetry& s, uint32_t key) { return s.site < key; });
  return (it != sites.end() && it->site == id) ? &*it : nullptr;
}

uint64_t TelemetrySnapshot::TotalSiteEvents(SiteEvent ev) const {
  uint64_t total = 0;
  for (const SiteTelemetry& s : sites) {
    total += s.counts[static_cast<size_t>(ev)];
  }
  return total;
}

const HistogramData* TelemetrySnapshot::FindHistogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it != histograms.end() ? &it->second : nullptr;
}

std::string TelemetrySnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += StrFormat("%s\"%s\":%llu", first ? "" : ",", JsonEscape(name).c_str(),
                     static_cast<unsigned long long>(value));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += StrFormat("%s\"%s\":%.17g", first ? "" : ",", JsonEscape(name).c_str(), value);
    first = false;
  }
  out += "}";
  // The two newer sections appear only when non-empty, so snapshots that
  // predate them serialize byte-identically to older builds.
  if (!gauge_seq.empty()) {
    out += ",\"gauge_seq\":{";
    first = true;
    for (const auto& [name, seq] : gauge_seq) {
      out += StrFormat("%s\"%s\":%llu", first ? "" : ",", JsonEscape(name).c_str(),
                       static_cast<unsigned long long>(seq));
      first = false;
    }
    out += "}";
  }
  if (!histograms.empty()) {
    out += ",\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms) {
      out += StrFormat("%s\"%s\":{\"sum\":%llu,\"buckets\":{", first ? "" : ",",
                       JsonEscape(name).c_str(), static_cast<unsigned long long>(h.sum));
      bool bfirst = true;
      for (const auto& [index, count] : h.buckets) {
        out += StrFormat("%s\"%u\":%llu", bfirst ? "" : ",", index,
                         static_cast<unsigned long long>(count));
        bfirst = false;
      }
      out += "}}";
      first = false;
    }
    out += "}";
  }
  out += ",\"sites\":[";
  for (size_t i = 0; i < sites.size(); ++i) {
    const SiteTelemetry& s = sites[i];
    out += StrFormat("%s{\"id\":%u", i == 0 ? "" : ",", s.site);
    for (size_t e = 0; e < kNumSiteEvents; ++e) {
      out += StrFormat(",\"%s\":%llu", SiteEventName(static_cast<SiteEvent>(e)),
                       static_cast<unsigned long long>(s.counts[e]));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

template <typename T>
bool ReadNumberMap(JsonReader& r, std::map<std::string, T>* out) {
  return r.Object([&](const std::string& name) { return r.Number(&(*out)[name]); });
}

bool ReadHistogram(JsonReader& r, HistogramData* h) {
  return r.Object([&](const std::string& field) {
    if (field == "sum") {
      return r.Number(&h->sum);
    }
    if (field == "buckets") {
      return r.Object([&](const std::string& key) {
        uint64_t index = 0;
        return r.KeyUint(key, kNumHistogramBuckets - 1, &index) &&
               r.Number(&h->buckets[static_cast<uint32_t>(index)]);
      });
    }
    return r.Fail("unknown histogram field '" + field + "'");
  });
}

bool ReadSite(JsonReader& r, SiteTelemetry* site) {
  bool saw_id = false;
  const bool ok = r.Object([&](const std::string& key) {
    if (key == "id") {
      saw_id = true;
      return r.Number(&site->site);
    }
    for (size_t e = 0; e < kNumSiteEvents; ++e) {
      if (key == SiteEventName(static_cast<SiteEvent>(e))) {
        return r.Number(&site->counts[e]);
      }
    }
    double ignored = 0;
    return r.Number(&ignored);
  });
  return ok && (saw_id || r.Fail("site object without \"id\""));
}

}  // namespace

Result<TelemetrySnapshot> TelemetrySnapshotFromJson(const std::string& json) {
  JsonReader r(json, "metrics json");
  TelemetrySnapshot snap;
  r.Object([&](const std::string& key) {
    if (key == "counters") {
      return ReadNumberMap(r, &snap.counters);
    }
    if (key == "gauges") {
      return ReadNumberMap(r, &snap.gauges);
    }
    if (key == "gauge_seq") {
      return ReadNumberMap(r, &snap.gauge_seq);
    }
    if (key == "histograms") {
      // A repeated name replaces the earlier histogram instead of adding to it.
      return r.Object([&](const std::string& name) {
        return ReadHistogram(r, &(snap.histograms[name] = HistogramData{}));
      });
    }
    if (key == "sites") {
      return r.Array([&] { return ReadSite(r, &snap.sites.emplace_back()); });
    }
    return r.Fail("unknown key '" + key + "'");
  });
  if (const Status st = r.Finish(); !st.ok()) {
    return Error(st.error());
  }
  return snap;
}

TelemetrySnapshot MergeTelemetrySnapshots(const std::vector<TelemetrySnapshot>& snapshots) {
  TelemetrySnapshot out;
  std::map<uint32_t, SiteTelemetry> merged;
  for (const TelemetrySnapshot& snap : snapshots) {
    for (const SiteTelemetry& s : snap.sites) {
      SiteTelemetry& dst = merged[s.site];
      dst.site = s.site;
      for (size_t e = 0; e < kNumSiteEvents; ++e) {
        dst.counts[e] += s.counts[e];
      }
    }
    for (const auto& [name, value] : snap.counters) {
      out.counters[name] += value;
    }
    for (const auto& [name, value] : snap.gauges) {
      // Highest sequence stamp wins; an absent stamp reads as 0, so merging
      // unstamped legacy snapshots degrades to last-writer-wins (>=) exactly
      // as before. Out-of-order epoch shards now merge correctly: the final
      // sample carries the highest stamp no matter the input order.
      const auto sit = snap.gauge_seq.find(name);
      const uint64_t seq = sit != snap.gauge_seq.end() ? sit->second : 0;
      const auto oit = out.gauge_seq.find(name);
      const uint64_t best = oit != out.gauge_seq.end() ? oit->second : 0;
      if (out.gauges.find(name) == out.gauges.end() || seq >= best) {
        out.gauges[name] = value;
        if (sit != snap.gauge_seq.end()) {
          out.gauge_seq[name] = seq;
        } else if (oit != out.gauge_seq.end()) {
          out.gauge_seq.erase(name);  // an unstamped later writer wins the tie
        }
      }
    }
    for (const auto& [name, h] : snap.histograms) {
      HistogramData& dst = out.histograms[name];
      dst.sum += h.sum;
      for (const auto& [index, count] : h.buckets) {
        dst.buckets[index] += count;
      }
    }
  }
  out.sites.reserve(merged.size());
  for (auto& [site, st] : merged) {
    out.sites.push_back(st);
  }
  return out;
}

TelemetrySnapshot DeltaTelemetrySnapshot(const TelemetrySnapshot& cur,
                                         const TelemetrySnapshot& prev) {
  TelemetrySnapshot out;
  for (const SiteTelemetry& s : cur.sites) {
    const SiteTelemetry* p = prev.FindSite(s.site);
    SiteTelemetry d;
    d.site = s.site;
    bool any = false;
    for (size_t e = 0; e < kNumSiteEvents; ++e) {
      d.counts[e] = s.counts[e] - (p != nullptr ? p->counts[e] : 0);
      any = any || d.counts[e] != 0;
    }
    if (any) {
      out.sites.push_back(d);  // cur.sites is sorted, so out stays sorted
    }
  }
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev.counters.find(name);
    const uint64_t d = value - (it != prev.counters.end() ? it->second : 0);
    // A zero delta is kept when the counter is new this epoch (e.g. a
    // zero-valued vm.mem_errors): merged epochs must reproduce the one-shot
    // snapshot's key set, not just its sums.
    if (d != 0 || it == prev.counters.end()) {
      out.counters[name] = d;
    }
  }
  // Gauges are point samples, not accumulators: the epoch reports cur's
  // values (and stamps) as-is, and merge keeps the highest-stamped sample.
  out.gauges = cur.gauges;
  out.gauge_seq = cur.gauge_seq;
  for (const auto& [name, h] : cur.histograms) {
    const HistogramData* p = nullptr;
    const auto pit = prev.histograms.find(name);
    if (pit != prev.histograms.end()) {
      p = &pit->second;
    }
    HistogramData d;
    d.sum = h.sum - (p != nullptr ? p->sum : 0);
    for (const auto& [index, count] : h.buckets) {
      uint64_t prev_count = 0;
      if (p != nullptr) {
        const auto bit = p->buckets.find(index);
        if (bit != p->buckets.end()) {
          prev_count = bit->second;
        }
      }
      if (count != prev_count) {
        d.buckets[index] = count - prev_count;
      }
    }
    if (d.sum != 0 || !d.buckets.empty()) {
      out.histograms[name] = std::move(d);
    }
  }
  return out;
}

// --- TelemetryRegistry -----------------------------------------------------

namespace {
std::atomic<uint64_t> g_registry_gen{1};
}  // namespace

TelemetryRegistry::TelemetryRegistry()
    : id_(g_registry_gen.fetch_add(1, std::memory_order_relaxed)) {}

TelemetryShard* TelemetryRegistry::shard() {
  // Per-thread cache keyed by (address, id): the id guard makes a stale
  // entry for a destroyed registry whose address was reused miss instead of
  // returning the old (freed) shard.
  struct CacheEntry {
    const TelemetryRegistry* registry;
    uint64_t id;
    TelemetryShard* shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.registry == this && e.id == id_) {
      return e.shard;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<TelemetryShard>());
  TelemetryShard* s = shards_.back().get();
  cache.push_back(CacheEntry{this, id_, s});
  return s;
}

void TelemetryRegistry::AddCounter(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void TelemetryRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
  gauge_seqs_[name] = ++gauge_seq_next_;
}

HistogramCell* TelemetryRegistry::histogram(const std::string& name) {
  struct CacheEntry {
    const TelemetryRegistry* registry;
    uint64_t id;
    std::string name;
    HistogramCell* cell;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.registry == this && e.id == id_ && e.name == name) {
      return e.cell;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_ptr<HistogramCell>>& cells = histograms_[name];
  cells.push_back(std::make_unique<HistogramCell>());
  HistogramCell* cell = cells.back().get();
  cache.push_back(CacheEntry{this, id_, name, cell});
  return cell;
}

TelemetrySnapshot TelemetryRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TelemetrySnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  snap.gauge_seq = gauge_seqs_;
  for (const auto& [name, cells] : histograms_) {
    HistogramData merged_h;
    for (const std::unique_ptr<HistogramCell>& cell : cells) {
      merged_h.sum += cell->sum_.load(std::memory_order_relaxed);
      for (uint32_t b = 0; b < kNumHistogramBuckets; ++b) {
        const uint64_t v = cell->buckets_[b].load(std::memory_order_relaxed);
        if (v != 0) {
          merged_h.buckets[b] += v;
        }
      }
    }
    // A registered-but-never-recorded histogram stays out of the snapshot,
    // mirroring the all-zero-site rule.
    if (merged_h.sum != 0 || !merged_h.buckets.empty()) {
      snap.histograms[name] = std::move(merged_h);
    }
  }

  // Merge the shards' blocks into a dense, sorted site list.
  std::map<uint32_t, SiteTelemetry> merged;
  uint64_t overflow = 0;
  for (const std::unique_ptr<TelemetryShard>& shard : shards_) {
    overflow += shard->overflow_events();
    for (size_t b = 0; b < TelemetryShard::kMaxBlocks; ++b) {
      const TelemetryShard::Block* block =
          shard->blocks_[b].load(std::memory_order_acquire);
      if (block == nullptr) {
        continue;
      }
      for (size_t s = 0; s < TelemetryShard::kBlockSites; ++s) {
        const uint32_t site = static_cast<uint32_t>(b * TelemetryShard::kBlockSites + s);
        for (size_t e = 0; e < kNumSiteEvents; ++e) {
          const uint64_t v =
              block->v[s * kNumSiteEvents + e].load(std::memory_order_relaxed);
          if (v != 0) {
            SiteTelemetry& st = merged[site];
            st.site = site;
            st.counts[e] += v;
          }
        }
      }
    }
  }
  snap.sites.reserve(merged.size());
  for (auto& [site, st] : merged) {
    snap.sites.push_back(st);
  }
  if (overflow != 0) {
    snap.counters["telemetry.site_events_dropped"] += overflow;
  }
  return snap;
}

}  // namespace redfat
