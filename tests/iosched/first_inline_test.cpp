// iosched::FirstInline: the first element inline, the rest in a vector,
// with vector order, back() on the last element and a clear() that
// destroys what the inline element held.
#include "iosched/first_inline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "iosched/request.hpp"

namespace iosim::iosched {
namespace {

std::vector<std::uint32_t> items(const FirstInline<std::uint32_t>& c) {
  return {c.begin(), c.end()};
}

TEST(FirstInline, KeepsInsertionOrderAcrossTheInlineSlot) {
  FirstInline<std::uint32_t> c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.begin(), c.end());
  c.push_back(7);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.front(), 7u);
  EXPECT_EQ(c.back(), 7u);
  c.push_back(8);
  c.push_back(9);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.front(), 7u);
  EXPECT_EQ(c.back(), 9u);
  EXPECT_EQ(items(c), (std::vector<std::uint32_t>{7, 8, 9}));
  c.back() += 1;
  EXPECT_EQ(items(c), (std::vector<std::uint32_t>{7, 8, 10}));
}

TEST(FirstInline, ClearEmptiesAndRefills) {
  FirstInline<std::uint32_t> c;
  for (std::uint32_t i = 0; i < 5; ++i) c.push_back(i);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  c.push_back(42);
  EXPECT_EQ(items(c), (std::vector<std::uint32_t>{42}));
}

TEST(FirstInline, ClearDestroysTheCallbacksCaptures) {
  // A completion entry's captures die at clear(), inline or not, the way
  // they died when the request's entry vector was cleared.
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  FirstInline<CompletionEntry> c;
  c.push_back({[a](Time, IoStatus) {}, 1});
  c.push_back({[b](Time, IoStatus) {}, 1});
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 2);
  c.clear();
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
}

TEST(FirstInline, CountedEntriesCallOncePerEntry) {
  int calls = 0;
  std::uint32_t bios = 0;
  FirstInline<CompletionEntry> c;
  c.push_back({[&](Time, IoStatus, std::uint32_t n) {
                 ++calls;
                 bios += n;
               },
               3});
  c.back().bios += 2;
  c.push_back({[&](Time, IoStatus) { ++bios; }, 4});
  for (const CompletionEntry& e : c) e.fn(Time::zero(), IoStatus::kOk, e.bios);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bios, 5u + 4u);
}

}  // namespace
}  // namespace iosim::iosched
