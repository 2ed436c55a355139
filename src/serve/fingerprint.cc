#include "src/serve/fingerprint.h"

#include <algorithm>
#include <cstring>

#include "src/serve/protocol.h"
#include "src/support/str.h"

namespace redfat {

// If this fires, a field was added to (or removed from) RedFatOptions:
// extend CanonicalOptionsBlob/OptionsFromBlob below, bump kOptionsBlobVersion,
// and add the field to the perturbation list in tests/daemon_test.cc. The
// whole point of the fingerprint is that *every* field lands in the hash —
// a field the blob misses would alias two different configurations onto one
// cache key and serve stale images.
static_assert(sizeof(RedFatOptions) == 48,
              "RedFatOptions changed: update CanonicalOptionsBlob, bump "
              "kOptionsBlobVersion, and extend the fingerprint unit test");

namespace {

constexpr uint8_t kOptionsBlobVersion = 1;

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

}  // namespace

uint64_t Fnv1a64(const uint8_t* data, size_t len, uint64_t seed) {
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<uint8_t> CanonicalOptionsBlob(const RedFatOptions& o) {
  std::vector<uint8_t> b;
  b.reserve(40);
  PutU8(&b, kOptionsBlobVersion);
  PutU8(&b, o.check_reads ? 1 : 0);
  PutU8(&b, o.check_writes ? 1 : 0);
  PutU8(&b, static_cast<uint8_t>(o.redzone_impl));
  PutU8(&b, o.lowfat ? 1 : 0);
  PutU8(&b, o.size_hardening ? 1 : 0);
  PutU8(&b, o.redzone_only_sites ? 1 : 0);
  PutU8(&b, o.merged_ub ? 1 : 0);
  PutU8(&b, o.elim ? 1 : 0);
  PutU8(&b, o.batch ? 1 : 0);
  PutU8(&b, o.merge ? 1 : 0);
  PutU8(&b, o.clobber_analysis ? 1 : 0);
  // Bytes 12-15 once held a per-rewrite thread count; they stay, always 0,
  // so the blob keeps its version and every cache key stays put.
  PutU32(&b, 0);
  PutU8(&b, static_cast<uint8_t>(o.mode));
  PutU64(&b, o.trampoline_base);
  PutU8(&b, o.tier_profile != nullptr ? 1 : 0);
  PutF64(&b, o.hot_threshold);
  return b;
}

Result<RedFatOptions> OptionsFromBlob(const std::vector<uint8_t>& b) {
  // 1 version + 11 flag bytes + 4 unused + 1 mode + 8 base + 1 profile flag +
  // 8 threshold.
  constexpr size_t kBlobLen = 34;
  if (b.size() != kBlobLen) {
    return Error(StrFormat("options blob: expected %zu bytes, got %zu", kBlobLen,
                           b.size()));
  }
  if (b[0] != kOptionsBlobVersion) {
    return Error(StrFormat("options blob: unknown version %u", b[0]));
  }
  const auto u64_at = [&](size_t at) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | b[at + static_cast<size_t>(i)];
    }
    return v;
  };
  RedFatOptions o;
  o.check_reads = b[1] != 0;
  o.check_writes = b[2] != 0;
  if (b[3] > static_cast<uint8_t>(RedzoneImpl::kShadow)) {
    return Error("options blob: bad redzone_impl");
  }
  o.redzone_impl = static_cast<RedzoneImpl>(b[3]);
  o.lowfat = b[4] != 0;
  o.size_hardening = b[5] != 0;
  o.redzone_only_sites = b[6] != 0;
  o.merged_ub = b[7] != 0;
  o.elim = b[8] != 0;
  o.batch = b[9] != 0;
  o.merge = b[10] != 0;
  o.clobber_analysis = b[11] != 0;
  // b[12..15]: unused, ignored.
  if (b[16] > static_cast<uint8_t>(RedFatOptions::Mode::kProfile)) {
    return Error("options blob: bad mode");
  }
  o.mode = static_cast<RedFatOptions::Mode>(b[16]);
  o.trampoline_base = u64_at(17);
  // b[25]: tier-profile-attached flag. The pointee never crosses the wire;
  // the daemon re-attaches the profile it received separately.
  o.tier_profile = nullptr;
  uint64_t bits = u64_at(26);
  std::memcpy(&o.hot_threshold, &bits, sizeof(bits));
  return o;
}

uint64_t OptionsFingerprint(const RedFatOptions& opts) {
  return Fnv1a64(CanonicalOptionsBlob(opts));
}

uint64_t TierProfileFingerprint(const TierProfile& profile) {
  std::vector<std::pair<uint32_t, uint64_t>> entries(profile.cycles_by_site.begin(),
                                                     profile.cycles_by_site.end());
  std::sort(entries.begin(), entries.end());
  std::vector<uint8_t> b;
  b.reserve(16 + entries.size() * 12);
  PutU64(&b, entries.size());
  for (const auto& [site, cycles] : entries) {
    PutU32(&b, site);
    PutU64(&b, cycles);
  }
  PutU8(&b, profile.sitemap != nullptr ? 1 : 0);
  if (profile.sitemap != nullptr) {
    PutU64(&b, profile.sitemap->size());
    for (const SiteRecord& s : *profile.sitemap) {
      PutU32(&b, s.id);
      PutU64(&b, s.addr);
      PutU8(&b, s.is_write ? 1 : 0);
      PutU8(&b, static_cast<uint8_t>(s.kind));
      PutU8(&b, static_cast<uint8_t>(s.tier));
    }
  }
  return Fnv1a64(b);
}

std::string CacheKey::ToString() const {
  return StrFormat("%016llx-%016llx-%016llx",
                   static_cast<unsigned long long>(image_hash),
                   static_cast<unsigned long long>(options_fp),
                   static_cast<unsigned long long>(profile_fp));
}

}  // namespace redfat
