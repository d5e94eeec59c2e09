// Blocked Bloom filter over precomputed row-key hashes.
//
// The join/semijoin kernels already compute one 64-bit hash per build-side
// row (KeyBlock); this filter folds those hashes into one
// cache-line-sized block each, so a probe costs a single memory access
// before the hash-chain walk. A probe that misses the filter provably has
// no build-side match *for that hash*, so the kernel can skip the chain
// walk (and its per-candidate work charges are never incurred in the first
// place — the filter is built before any probing, identically at every
// thread count, which keeps output and meters byte-identical). False
// positives fall through to the ordinary chain walk + RowKeysEqual, so
// they cost time, never correctness.
//
// Layout: power-of-two array of 64-bit words at ~kBitsPerKey bits per key;
// the word index comes from the hash's high bits, two bit positions within
// the word from independent low fields. With 8 bits/key and 2 probes the
// false-positive rate is a few percent — plenty to skip the bulk of
// non-matching probes in selective semijoins.

#ifndef HTQO_UTIL_BLOOM_H_
#define HTQO_UTIL_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace htqo {

class BlockedBloomFilter {
 public:
  static constexpr std::size_t kBitsPerKey = 8;

  explicit BlockedBloomFilter(std::size_t expected_keys) {
    std::size_t words = 1;
    while (words * 64 < expected_keys * kBitsPerKey) words <<= 1;
    words_.assign(words, 0);
  }

  void Add(std::size_t hash) {
    const uint64_t h = static_cast<uint64_t>(hash);
    words_[WordIndex(h)] |= MaskOf(h);
  }

  bool MayContain(std::size_t hash) const {
    const uint64_t h = static_cast<uint64_t>(hash);
    const uint64_t mask = MaskOf(h);
    return (words_[WordIndex(h)] & mask) == mask;
  }

  std::size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  // ORs `other`'s bits into this filter. Both filters must share geometry
  // (same expected-key sizing); the result is exactly the filter that one
  // builder inserting both key sets would produce — the property the
  // sharded exchange relies on to merge per-piece filters into an
  // S-invariant link summary.
  void MergeFrom(const BlockedBloomFilter& other) {
    HTQO_CHECK(words_.size() == other.words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

 private:
  // Word index from hash bits 12.., disjoint from the 12 mask bits below
  // (for filters past 2^52 words the fields would overlap — far beyond any
  // build side this engine materializes).
  std::size_t WordIndex(uint64_t h) const {
    return (h >> 12) & (words_.size() - 1);
  }
  // Two bits per key from independent 6-bit fields of the hash's low bits.
  static uint64_t MaskOf(uint64_t h) {
    return (uint64_t{1} << (h & 63)) | (uint64_t{1} << ((h >> 6) & 63));
  }

  std::vector<uint64_t> words_;
};

}  // namespace htqo

#endif  // HTQO_UTIL_BLOOM_H_
