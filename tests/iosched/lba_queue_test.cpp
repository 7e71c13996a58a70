// Differential test: iosched::LbaQueue against the std::multimap<Lba,
// Request*> it replaced in the elevators. Random insert / lower_bound /
// wrapped-lower_bound / erase-by-iterator / erase-by-request / clear
// streams over a small LBA space (so equal keys are common) must agree
// entry for entry, and fixed cases pin the tie rules the elevators rely on.
#include "iosched/lba_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace iosim::iosched {
namespace {

using Oracle = std::multimap<Lba, Request*>;

std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Request*> contents(const LbaQueue& q) {
  std::vector<Request*> out;
  for (const LbaQueue::Entry& e : q) {
    EXPECT_EQ(e.lba, e.rq->lba);
    out.push_back(e.rq);
  }
  return out;
}

std::vector<Request*> contents(const Oracle& m) {
  std::vector<Request*> out;
  for (const auto& [lba, rq] : m) out.push_back(rq);
  return out;
}

Request* make(std::vector<std::unique_ptr<Request>>& pool, Lba lba) {
  pool.push_back(std::make_unique<Request>());
  pool.back()->id = pool.size();
  pool.back()->lba = lba;
  return pool.back().get();
}

TEST(LbaQueue, EqualKeysKeepArrivalOrder) {
  std::vector<std::unique_ptr<Request>> pool;
  LbaQueue q;
  Request* a = make(pool, 100);
  Request* b = make(pool, 50);
  Request* c = make(pool, 100);
  Request* d = make(pool, 100);
  for (Request* rq : {a, b, c, d}) q.insert(rq);
  EXPECT_EQ(contents(q), (std::vector<Request*>{b, a, c, d}));
  EXPECT_EQ(q.lower_bound(100)->rq, a);
  EXPECT_EQ(q.lower_bound(51)->rq, a);
  EXPECT_EQ(q.lower_bound(101), q.end());
  EXPECT_EQ(q.lower_bound_wrap(101)->rq, b);  // wrap to the lowest LBA

  // Erase the middle one of three equal keys: the others keep their order.
  q.erase(c);
  EXPECT_EQ(contents(q), (std::vector<Request*>{b, a, d}));
  q.erase(q.lower_bound(100));
  EXPECT_EQ(contents(q), (std::vector<Request*>{b, d}));

  // Clear and reuse: a cleared queue behaves as a fresh one.
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.lower_bound(0), q.end());
  q.insert(d);
  q.insert(a);
  EXPECT_EQ(contents(q), (std::vector<Request*>{d, a}));
  EXPECT_EQ(q.size(), 2u);
}

TEST(LbaQueue, MatchesMultimapOnRandomStreams) {
  int erased_middle = 0;  // erase-by-request hits with an equal key before it
  int wraps = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<std::unique_ptr<Request>> pool;
    LbaQueue q;
    Oracle m;
    std::uint64_t rng = seed;
    const std::uint64_t space = seed % 2 == 0 ? 16 : 4096;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t r = mix(rng);
      const auto lba = static_cast<Lba>((r >> 8) % space) * 8;
      const int kind = static_cast<int>(r % 100);
      if (kind < 45) {
        Request* rq = make(pool, lba);
        q.insert(rq);
        m.emplace(lba, rq);
      } else if (kind < 60) {
        // The elevators' one-way scan: take the first request at or after
        // the position, wrapping to the lowest LBA.
        if (m.empty()) continue;
        auto mit = m.lower_bound(lba);
        if (mit == m.end()) {
          mit = m.begin();
          ++wraps;
        }
        const auto qit = q.lower_bound_wrap(lba);
        ASSERT_EQ(qit->rq, mit->second) << "seed " << seed << " op " << op;
        q.erase(qit);
        m.erase(mit);
      } else if (kind < 85) {
        // Erase a random queued request by pointer (deadline and AS remove
        // expired FIFO heads from the middle of the sorted queue).
        if (m.empty()) continue;
        auto mit = m.begin();
        std::advance(mit, static_cast<long>((r >> 40) % m.size()));
        if (mit != m.begin() && std::prev(mit)->first == mit->first) ++erased_middle;
        q.erase(mit->second);
        m.erase(mit);
      } else if (kind < 99) {
        const auto mit = m.lower_bound(lba);
        const auto qit = q.lower_bound(lba);
        ASSERT_EQ(qit == q.end(), mit == m.end()) << "seed " << seed << " op " << op;
        if (mit != m.end()) {
          ASSERT_EQ(qit->rq, mit->second);
        }
      } else {
        q.clear();
        m.clear();
      }
      ASSERT_EQ(q.size(), m.size());
      ASSERT_EQ(q.empty(), m.empty());
      if (op % 64 == 0) {
        ASSERT_EQ(contents(q), contents(m)) << "seed " << seed;
      }
    }
    ASSERT_EQ(contents(q), contents(m)) << "seed " << seed;
  }
  EXPECT_GT(erased_middle, 1000);
  EXPECT_GT(wraps, 100);
}

}  // namespace
}  // namespace iosim::iosched
