// Tests for ChunkPool (chunk_pool.hpp): objects come sixteen to a chunk,
// a released object is the next one out, and the pool hands objects back
// as they were released. Block-layer requests and I/O streams live in it,
// so a pool that handed out one object twice would merge two live requests.
#include "sim/chunk_pool.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace iosim::sim {
namespace {

struct Item {
  int value = 0;
};

TEST(ChunkPool, HandsOutDistinctObjectsSixteenToAChunk) {
  ChunkPool<Item> pool;
  std::vector<Item*> got;
  for (std::size_t i = 0; i < 2 * ChunkPool<Item>::kChunk + 1; ++i) got.push_back(pool.acquire());
  EXPECT_EQ(std::set<Item*>(got.begin(), got.end()).size(), got.size());
  // One chunk is one array, handed out in address order.
  for (std::size_t i = 1; i < ChunkPool<Item>::kChunk; ++i) EXPECT_EQ(got[i], got[0] + i);
  for (std::size_t i = 1; i < ChunkPool<Item>::kChunk; ++i) {
    EXPECT_EQ(got[ChunkPool<Item>::kChunk + i], got[ChunkPool<Item>::kChunk] + i);
  }
}

TEST(ChunkPool, ReleasedObjectsComeBackLastInFirstOutAsReleased) {
  ChunkPool<Item> pool;
  Item* a = pool.acquire();
  Item* b = pool.acquire();
  a->value = 1;
  b->value = 2;
  pool.release(a);
  pool.release(b);
  Item* first = pool.acquire();
  Item* second = pool.acquire();
  EXPECT_EQ(first, b);
  EXPECT_EQ(second, a);
  // Resetting is the owner's business: the pool keeps what it was given.
  EXPECT_EQ(first->value, 2);
  EXPECT_EQ(second->value, 1);
  // The rest of the first chunk is still fresh.
  EXPECT_EQ(pool.acquire()->value, 0);
}

}  // namespace
}  // namespace iosim::sim
