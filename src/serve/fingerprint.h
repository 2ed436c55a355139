// Content-addressed cache keys for the rewrite service.
//
// A daemon request is fully described by (what binary, which knobs, which
// profile): identical triples must produce byte-identical outputs — the
// pipeline is deterministic — so the service fronts the pipeline with a
// content-addressed result cache keyed by
//
//   CacheKey = (image_hash, options_fp, profile_fp)
//
// where image_hash covers the raw request bytes of the input image,
// options_fp is OptionsFingerprint() over *every* RedFatOptions field (a
// canonical fixed-width serialization hashed with FNV-1a; a sizeof guard in
// fingerprint.cc forces this file to be revisited whenever a new option
// lands, so a stale fingerprint can never alias two different
// configurations), and profile_fp covers the tiering profile's content
// (0 = no profile; the *base* key of an image). The same canonical options
// blob doubles as the wire encoding of RedFatOptions in the daemon
// protocol, so "what the client hashed" and "what the daemon runs" cannot
// drift apart.
#ifndef REDFAT_SRC_SERVE_FINGERPRINT_H_
#define REDFAT_SRC_SERVE_FINGERPRINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/core/plan.h"
#include "src/support/result.h"

namespace redfat {

// FNV-1a over a byte range; the one hash used for all fingerprints.
uint64_t Fnv1a64(const uint8_t* data, size_t len, uint64_t seed = 0xcbf29ce484222325ULL);
inline uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}
inline uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

// Canonical fixed-width serialization of every RedFatOptions field except
// the tier-profile pointee (profiles are fingerprinted separately via
// TierProfileFingerprint; the blob records only whether one is attached).
// Stable across processes and releases of the same version byte.
std::vector<uint8_t> CanonicalOptionsBlob(const RedFatOptions& opts);

// Parses a canonical blob back into options (tier_profile always null: the
// profile travels separately). Rejects unknown versions and short blobs.
Result<RedFatOptions> OptionsFromBlob(const std::vector<uint8_t>& blob);

// Stable 64-bit hash of every option field (FNV-1a over the canonical
// blob). Guaranteed by unit test to change when any field changes.
uint64_t OptionsFingerprint(const RedFatOptions& opts);

// Content hash of a tiering profile: the sorted (site, cycles) pairs plus,
// when a join sitemap is attached, its record contents. Stable across JSON
// formatting differences of the snapshot it was parsed from.
uint64_t TierProfileFingerprint(const TierProfile& profile);

struct CacheKey {
  uint64_t image_hash = 0;
  uint64_t options_fp = 0;
  uint64_t profile_fp = 0;  // 0 = no tiering profile (the base key)

  // The base key shares the entry whose warm analysis a profile upload
  // re-tiers against.
  CacheKey Base() const { return CacheKey{image_hash, options_fp, 0}; }

  bool operator==(const CacheKey& o) const {
    return image_hash == o.image_hash && options_fp == o.options_fp &&
           profile_fp == o.profile_fp;
  }

  // "ihash-ofp-pfp", three zero-padded lowercase hex words (the
  // `redfat --print-cache-key` output format).
  std::string ToString() const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = k.image_hash;
    h = h * 0x100000001b3ULL ^ k.options_fp;
    h = h * 0x100000001b3ULL ^ k.profile_fp;
    return static_cast<size_t>(h);
  }
};

}  // namespace redfat

#endif  // REDFAT_SRC_SERVE_FINGERPRINT_H_
