// Differential test: blk::MergeIndex against the std::unordered_map it
// replaced, on random find/emplace/erase/clear streams.
#include "blk/merge_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace iosim::blk {
namespace {

using iosched::Request;

/// splitmix64 step.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Drive both tables with one random stream. Keys come from a pool of
/// `key_space` values, so duplicates and erases of absent keys are common.
/// Stores the largest size the oracle reached in `*peak`.
void run_stream(std::uint64_t seed, int ops, std::uint64_t key_space, int clear_every,
                int erase_weight, std::size_t* peak = nullptr) {
  std::vector<Request> rqs(64);
  MergeIndex idx;
  std::unordered_map<disk::Lba, Request*> oracle;
  std::uint64_t rng = seed;
  std::size_t largest = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = mix(rng);
    // Sector-aligned, request-sized strides like real end LBAs, plus a
    // scattering of arbitrary values.
    const auto key = static_cast<disk::Lba>(
        (r >> 8) % 4 == 0 ? (r >> 16) % (key_space * 1024) : ((r >> 16) % key_space) * 88);
    Request* rq = &rqs[(r >> 40) % rqs.size()];
    const int kind = static_cast<int>(r % 16);
    if (clear_every > 0 && op % clear_every == clear_every - 1) {
      idx.clear();
      oracle.clear();
    } else if (kind < erase_weight) {
      const bool erased = idx.erase(key);
      ASSERT_EQ(erased, oracle.erase(key) == 1) << "op " << op << " key " << key;
    } else if (kind < 10) {
      const bool inserted = idx.emplace(key, rq);
      ASSERT_EQ(inserted, oracle.emplace(key, rq).second) << "op " << op << " key " << key;
    } else {
      auto it = oracle.find(key);
      ASSERT_EQ(idx.find(key), it == oracle.end() ? nullptr : it->second)
          << "op " << op << " key " << key;
    }
    ASSERT_EQ(idx.size(), oracle.size());
    largest = std::max(largest, oracle.size());
  }
  if (peak != nullptr) *peak = largest;
  // Every key the oracle holds maps to the same request.
  for (const auto& [key, rq] : oracle) EXPECT_EQ(idx.find(key), rq) << key;
}

TEST(MergeIndex, MatchesUnorderedMapOnSmallKeySpace) {
  // Few keys: almost every emplace hits a duplicate, almost every erase is
  // live, and probe runs wrap around the small table.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_stream(seed, 4000, 24, 0, 5);
  }
}

TEST(MergeIndex, MatchesUnorderedMapThroughGrowth) {
  // Emplace-heavy with a large key space: the table grows from its minimum
  // through several doublings while erases (mostly of absent keys) and
  // finds interleave.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::size_t peak = 0;
    run_stream(seed, 20000, 1 << 20, 0, 2, &peak);
    EXPECT_GT(peak, 1000u) << "the stream must drive several resizes";
  }
}

TEST(MergeIndex, MatchesUnorderedMapAcrossClears) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    run_stream(seed, 6000, 256, 500, 4);
  }
}

TEST(MergeIndex, FirstWriterWins) {
  Request a;
  Request b;
  MergeIndex idx;
  EXPECT_TRUE(idx.emplace(100, &a));
  EXPECT_FALSE(idx.emplace(100, &b));
  EXPECT_EQ(idx.find(100), &a);
  // erase removes whoever holds the key.
  EXPECT_TRUE(idx.erase(100));
  EXPECT_EQ(idx.find(100), nullptr);
  EXPECT_FALSE(idx.erase(100));
}

TEST(MergeIndex, GrowsThenReusesCapacity) {
  std::vector<Request> rqs(1000);
  MergeIndex idx;
  for (int i = 0; i < 1000; ++i) idx.emplace(i * 512, &rqs[static_cast<std::size_t>(i)]);
  const std::size_t cap = idx.capacity();
  EXPECT_GE(cap, 2000u);  // at most half full
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(idx.erase(i * 512));
  EXPECT_EQ(idx.size(), 0u);
  for (int i = 0; i < 1000; ++i) idx.emplace(i * 88, &rqs[static_cast<std::size_t>(i)]);
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.capacity(), cap);
  EXPECT_EQ(idx.find(0), nullptr);
}

TEST(MergeIndex, CountsFindsAndTheirProbes) {
  std::vector<Request> rqs(3);
  MergeIndex idx;
  EXPECT_EQ(idx.find(0), nullptr);  // empty: a lookup, no probe
  EXPECT_EQ(idx.finds(), 1u);
  EXPECT_EQ(idx.find_probes(), 0u);
  // One home slot per 128 sectors: a stream's consecutive end keys fill
  // neighbouring slots, and a key one table width on shares a home.
  ASSERT_TRUE(idx.emplace(0, &rqs[0]));  // home 0
  const auto wrap = static_cast<disk::Lba>(128 * idx.capacity());
  ASSERT_TRUE(idx.emplace(128, &rqs[1]));   // home 1
  ASSERT_TRUE(idx.emplace(wrap, &rqs[2]));  // home 0, lands in slot 2
  EXPECT_EQ(idx.find(0), &rqs[0]);          // 1 probe
  EXPECT_EQ(idx.find(128), &rqs[1]);        // 1 probe
  EXPECT_EQ(idx.find(wrap), &rqs[2]);       // slots 0, 1, 2
  EXPECT_EQ(idx.find(256 + 64), nullptr);   // home 2: slot 2, then empty 3
  EXPECT_EQ(idx.finds(), 5u);
  EXPECT_EQ(idx.find_probes(), 1u + 1u + 3u + 2u);
}

}  // namespace
}  // namespace iosim::blk
