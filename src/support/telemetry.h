// Unified runtime telemetry: one registry for everything the repo can
// observe while code *runs* — per-instrumented-site counters from the VM,
// named counters from any layer, and gauges sampled from the allocators.
//
// The registry complements the rewriter's static PipelineStats: the
// pipeline says what was instrumented, the registry says what actually
// executed and what it cost. `rfrun --report` joins the two per site id.
//
// Concurrency model: the hot path (per-site increments) goes through
// per-thread shards. A thread obtains its shard once
// (TelemetryRegistry::shard(), mutex-guarded registration) and is then the
// only writer of its relaxed atomics, so an increment is a relaxed load
// plus a relaxed store (OwnerAdd) — no lock prefix, no contention, no false
// sharing between threads. Snapshot() merges all shards with relaxed
// loads; counts from threads still running are allowed to be slightly
// stale, never torn. The single-writer rule is what makes the plain store
// safe: a second writer to one shard or cell would lose counts silently.
// (TelemetryTest.SnapshotWhileOwnersRecord runs owners against a
// snapshotting thread, under TSan in CI.) Named counters and gauges are
// cold (per-run, not per-event) and live behind the registry mutex.
//
// When no registry is attached (the default everywhere), producers hold a
// null pointer and skip all of this: disabled telemetry costs one branch.
//
// Histograms follow the counter contract: a producer obtains a per-thread
// HistogramCell once (TelemetryRegistry::histogram(), mutex-guarded
// registration) and then records into relaxed atomics it exclusively
// writes, with the same OwnerAdd. The bucket layout is fixed (log-linear,
// two sub-exponent bits), so Merge/Delta/JSON round-trips stay bit-exact —
// a histogram is just 252 monotonic counters plus a monotonic sum. A
// producer may also batch records: the VM adds a trace's per-lap
// vm.superblock_len records before its epoch hook, when it drops its
// traces and at the end of Vm::Run, so a snapshot from another thread in
// between may lag by those laps.
#ifndef REDFAT_SRC_SUPPORT_TELEMETRY_H_
#define REDFAT_SRC_SUPPORT_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/result.h"

namespace redfat {

// Per-site runtime events. Site ids are the ones the planner assigns
// (SiteRecord::id), so every count joins back to a SiteRecord.
enum class SiteEvent : uint8_t {
  kChecks = 0,      // check executions (the trampoline's Count instruction)
  kRedzoneHits,     // memory errors reported at the site (any ErrorKind)
  kLowFatPasses,    // profiling mode: (LowFat) component passed
  kLowFatFails,     // profiling mode: (LowFat) component failed
  kTrampCycles,     // modeled cycles spent in the site's trampoline code
  // Modeled cycles spent in the site's hot-tier (inline-check region) code.
  // Appended last so older snapshots round-trip: absent keys read as 0.
  kInlineCycles,
};
inline constexpr size_t kNumSiteEvents = 6;
const char* SiteEventName(SiteEvent ev);

// Multi-image runs (§7.4: an executable plus its shared objects) would
// otherwise merge every image's planner ids into one counter space. Keyed
// site ids pack a small image ordinal above the plain site id: image 0
// (the usual single-image case) keeps plain ids, so single-image consumers
// see no change; images 1..15 shift into the upper bits and still fit the
// shard's addressable range (site ids < 2^20).
inline constexpr uint32_t kImageSiteShift = 16;
inline constexpr uint32_t kMaxKeyedImages = 16;   // ordinals 0..15
inline constexpr uint32_t kMaxKeyedSite = (1u << kImageSiteShift) - 1;

inline uint32_t ImageSiteKey(uint32_t image, uint32_t site) {
  return image == 0 ? site : (image << kImageSiteShift) | site;
}
inline uint32_t ImageOfSiteKey(uint32_t key) { return key >> kImageSiteShift; }
inline uint32_t SiteOfSiteKey(uint32_t key) { return key & kMaxKeyedSite; }

// Adds `delta` to a counter that only the calling thread writes. Readers
// on other threads load it relaxed and see the old or the new value, never
// a torn one; a second writer would lose counts, so only owners call this.
inline void OwnerAdd(std::atomic<uint64_t>& counter, uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

// One thread's private accumulation buffer. Obtained from
// TelemetryRegistry::shard(); AddSite must only be called by the owning
// thread. Storage grows in fixed blocks so a concurrent Snapshot() never
// observes a reallocation.
class TelemetryShard {
 public:
  TelemetryShard() = default;
  ~TelemetryShard();
  TelemetryShard(const TelemetryShard&) = delete;
  TelemetryShard& operator=(const TelemetryShard&) = delete;

  void AddSite(uint32_t site, SiteEvent ev, uint64_t delta = 1);

  // Events for site ids beyond the addressable range (never silent).
  uint64_t overflow_events() const { return overflow_.load(std::memory_order_relaxed); }

 private:
  friend class TelemetryRegistry;

  static constexpr size_t kBlockSites = 256;
  static constexpr size_t kMaxBlocks = 4096;  // site ids < 1,048,576
  struct Block {
    std::atomic<uint64_t> v[kBlockSites * kNumSiteEvents] = {};
  };

  // Written only by the owning thread (release); read by Snapshot (acquire).
  std::atomic<Block*> blocks_[kMaxBlocks] = {};
  std::atomic<uint64_t> overflow_{0};
};

// --- histograms ------------------------------------------------------------

// Fixed log-linear bucket layout: values 0..3 get their own bucket; above
// that each power-of-two octave splits into 4 sub-buckets keyed by the two
// bits below the leading bit (~19% relative error at the bucket boundary).
// The layout is part of the snapshot format — changing it would break
// merge/delta telescoping across versions — so it is frozen here:
//   v < 4            -> index v
//   else e = 63 - clz(v), m = (v >> (e - 2)) & 3
//                    -> index ((e - 1) << 2) + m
// e in [2, 63], m in [0, 3] => max index (62 << 2) + 3 = 251.
inline constexpr uint32_t kNumHistogramBuckets = 252;

inline uint32_t HistogramBucketIndex(uint64_t v) {
  if (v < 4) {
    return static_cast<uint32_t>(v);
  }
  const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
  const unsigned m = static_cast<unsigned>((v >> (e - 2)) & 3);
  return ((e - 1) << 2) + m;
}

// Smallest value that lands in bucket `index` (the value percentile queries
// report, so percentiles are deterministic and never overstate).
inline uint64_t HistogramBucketLowerBound(uint32_t index) {
  if (index < 4) {
    return index;
  }
  const unsigned e = (index >> 2) + 1;
  const unsigned m = index & 3;
  return (uint64_t{1} << e) + (static_cast<uint64_t>(m) << (e - 2));
}

// A merged histogram in a snapshot: monotonic sum + sparse bucket counts.
// No min/max — those would not telescope through DeltaTelemetrySnapshot.
struct HistogramData {
  uint64_t sum = 0;
  std::map<uint32_t, uint64_t> buckets;  // bucket index -> count, non-zero only

  uint64_t Count() const;
  // Lower bound of the bucket containing the q-th percentile (q in [0,100]);
  // 0 when empty. Deterministic: a pure function of the bucket counts.
  uint64_t Percentile(double q) const;
  double Mean() const;
};

// One thread's private recording buffer for one named histogram. Obtained
// from TelemetryRegistry::histogram(); Record must only be called by the
// owning thread. Snapshot() reads the atomics with relaxed loads (same
// staleness contract as TelemetryShard).
class HistogramCell {
 public:
  void Record(uint64_t value) { RecordN(value, 1); }
  // `n` records of one value at once, as n Record(value) calls would add.
  void RecordN(uint64_t value, uint64_t n) {
    OwnerAdd(buckets_[HistogramBucketIndex(value)], n);
    OwnerAdd(sum_, n * value);
  }

 private:
  friend class TelemetryRegistry;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kNumHistogramBuckets] = {};
};

// --- snapshots -------------------------------------------------------------

struct SiteTelemetry {
  uint32_t site = 0;
  uint64_t counts[kNumSiteEvents] = {};

  uint64_t checks() const { return counts[0]; }
  uint64_t redzone_hits() const { return counts[1]; }
  uint64_t lowfat_passes() const { return counts[2]; }
  uint64_t lowfat_fails() const { return counts[3]; }
  uint64_t tramp_cycles() const { return counts[4]; }
  uint64_t inline_cycles() const { return counts[5]; }
};

// A merged, point-in-time view of a registry. Serializes to the single-line
// `--metrics` JSON (names escaped by JsonEscape).
struct TelemetrySnapshot {
  std::vector<SiteTelemetry> sites;                // sorted by id, non-zero only
  std::map<std::string, uint64_t> counters;        // monotonic named counts
  std::map<std::string, double> gauges;            // sampled absolute values
  // Per-gauge sequence stamp: the registry-wide SetGauge ordinal of the
  // sample in `gauges`. Merge keeps the highest-stamped sample per gauge, so
  // merging per-epoch shards out of order no longer silently replaces the
  // final sample with an earlier one. Absent entries read as stamp 0, which
  // preserves the legacy last-writer-wins behaviour for old snapshots.
  std::map<std::string, uint64_t> gauge_seq;
  // Named log-linear distributions (see HistogramData). Monotonic like
  // counters: merge adds bucket counts, delta subtracts them.
  std::map<std::string, HistogramData> histograms;

  const SiteTelemetry* FindSite(uint32_t id) const;
  uint64_t TotalSiteEvents(SiteEvent ev) const;
  const HistogramData* FindHistogram(const std::string& name) const;
  std::string ToJson() const;
};

// Reads `--metrics` JSON back through the shared JsonReader (support/json.h):
// counts are exact unsigned integers, a bucket index must be below
// kNumHistogramBuckets, unknown top-level keys are errors and unknown numeric
// keys in a site object are ignored.
Result<TelemetrySnapshot> TelemetrySnapshotFromJson(const std::string& json);

// Sums snapshots from several runs/processes into one profile: per-site
// counts are added per (keyed) site id, named counters and histogram
// buckets are added, and each gauge keeps the sample with the highest
// sequence stamp (ties — including unstamped legacy snapshots, which read
// as stamp 0 — resolve to the later input, i.e. last-writer-wins). The
// aggregation step of the profile -> re-rewrite loop
// (`redfat --merge-metrics`).
TelemetrySnapshot MergeTelemetrySnapshots(const std::vector<TelemetrySnapshot>& snapshots);

// cur - prev for the monotonic parts (per-site counts, named counters and
// histogram buckets; entries that delta to all-zero are dropped), while
// gauges keep cur's absolute values and sequence stamps (they are samples,
// not accumulators). Streaming epochs
// (`rfrun --metrics-epoch`) chain these so that merging every epoch file
// with MergeTelemetrySnapshots reproduces the one-shot snapshot exactly:
// counts telescope, and last-writer-wins leaves the final gauge sample.
TelemetrySnapshot DeltaTelemetrySnapshot(const TelemetrySnapshot& cur,
                                         const TelemetrySnapshot& prev);

// --- the registry ----------------------------------------------------------

class TelemetryRegistry {
 public:
  TelemetryRegistry();
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  // The calling thread's shard (registered on first use, then cached
  // thread-locally; the returned pointer stays valid for the registry's
  // lifetime and must only be used from the calling thread).
  TelemetryShard* shard();

  // Cold-path named counters (accumulating) and gauges (each write also
  // advances the gauge's registry-wide sequence stamp, see
  // TelemetrySnapshot::gauge_seq).
  void AddCounter(const std::string& name, uint64_t delta);
  void SetGauge(const std::string& name, double value);

  // The calling thread's recording cell for the named histogram (registered
  // on first use, then cached thread-locally; same ownership and lifetime
  // rules as shard()). Hot-path producers fetch the cell once and Record
  // into it lock-free.
  HistogramCell* histogram(const std::string& name);

  TelemetrySnapshot Snapshot() const;

 private:
  const uint64_t id_;  // distinguishes address-reused registries in TLS caches
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TelemetryShard>> shards_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, uint64_t> gauge_seqs_;
  uint64_t gauge_seq_next_ = 0;
  std::map<std::string, std::vector<std::unique_ptr<HistogramCell>>> histograms_;
};

}  // namespace redfat

#endif  // REDFAT_SRC_SUPPORT_TELEMETRY_H_
