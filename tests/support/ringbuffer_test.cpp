#include "ars/support/ringbuffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace {

using ars::support::RingBuffer;

// The windowed sensor reads binary-search a ring, which is only O(log n)
// for an iterator the standard library treats as random access.
static_assert(std::random_access_iterator<RingBuffer<int>::const_iterator>);
static_assert(std::random_access_iterator<
              RingBuffer<std::string>::const_iterator>);

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0U);
  EXPECT_EQ(ring.capacity(), 0U);
  EXPECT_EQ(ring.begin(), ring.end());
}

TEST(RingBuffer, PushBackPreservesFifoOrder) {
  RingBuffer<int> ring;
  for (int i = 0; i < 20; ++i) {
    ring.push_back(i);
  }
  ASSERT_EQ(ring.size(), 20U);
  EXPECT_EQ(ring.front(), 0);
  EXPECT_EQ(ring.back(), 19);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i));
  }
}

TEST(RingBuffer, CapacityIsPowerOfTwo) {
  RingBuffer<int> ring;
  ring.push_back(1);
  EXPECT_EQ(ring.capacity(), 8U);
  for (int i = 0; i < 8; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.capacity(), 16U);
  EXPECT_EQ(ring.capacity() & (ring.capacity() - 1), 0U);
}

TEST(RingBuffer, WrapsWithoutGrowingWhenPruned) {
  RingBuffer<int> ring;
  for (int i = 0; i < 8; ++i) {
    ring.push_back(i);
  }
  const std::size_t capacity = ring.capacity();
  // Steady state: pop one, push one, many times around the ring.
  for (int i = 8; i < 1000; ++i) {
    ring.pop_front();
    ring.push_back(i);
    ASSERT_EQ(ring.size(), 8U);
    ASSERT_EQ(ring.front(), i - 7);
    ASSERT_EQ(ring.back(), i);
  }
  EXPECT_EQ(ring.capacity(), capacity);
}

TEST(RingBuffer, GrowReordersWrappedContents) {
  RingBuffer<int> ring;
  for (int i = 0; i < 8; ++i) {
    ring.push_back(i);
  }
  for (int i = 0; i < 5; ++i) {
    ring.pop_front();
  }
  // head is physically mid-array; pushing past capacity must relinearize.
  for (int i = 8; i < 20; ++i) {
    ring.push_back(i);
  }
  ASSERT_EQ(ring.size(), 15U);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 5);
  }
}

TEST(RingBuffer, PopFrontReleasesOwnedResources) {
  RingBuffer<std::shared_ptr<int>> ring;
  auto value = std::make_shared<int>(42);
  std::weak_ptr<int> watch = value;
  ring.push_back(std::move(value));
  ring.pop_front();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(watch.expired()) << "pop_front must not pin the element";
}

TEST(RingBuffer, IterationMatchesIndexing) {
  RingBuffer<std::string> ring;
  for (int i = 0; i < 10; ++i) {
    ring.push_back("v" + std::to_string(i));
  }
  ring.pop_front();
  ring.pop_front();
  std::vector<std::string> seen;
  for (const std::string& s : ring) {
    seen.push_back(s);
  }
  ASSERT_EQ(seen.size(), ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(seen[i], ring[i]);
  }
  EXPECT_EQ(seen.front(), "v2");
  EXPECT_EQ(seen.back(), "v9");
}

TEST(RingBuffer, IteratorArithmeticFollowsLogicalOrder) {
  RingBuffer<int> ring;
  for (int i = 0; i < 8; ++i) {
    ring.push_back(i);
  }
  for (int i = 0; i < 5; ++i) {
    ring.pop_front();
  }
  for (int i = 8; i < 12; ++i) {
    ring.push_back(i);  // wraps: the head sits mid-array
  }
  ASSERT_EQ(ring.size(), 7U);
  const auto first = ring.begin();
  const auto last = ring.end();
  EXPECT_EQ(last - first, 7);
  EXPECT_EQ(first[3], 8);
  EXPECT_EQ(*(first + 6), 11);
  EXPECT_EQ(*(6 + first), 11);
  EXPECT_EQ(*(last - 1), 11);
  auto it = last;
  it -= 2;
  EXPECT_EQ(*it, 10);
  EXPECT_EQ(*it--, 10);
  EXPECT_EQ(*it, 9);
  EXPECT_TRUE(first < it);
  EXPECT_TRUE(it <= it);
  EXPECT_TRUE(last > it);
  EXPECT_TRUE(last >= last);
  EXPECT_FALSE(it < first);
  // The search the sensors run: first element not below a key.
  const auto found = std::partition_point(
      first, last, [](int value) { return value < 9; });
  EXPECT_EQ(found - first, 4);
  EXPECT_EQ(*found, 9);
  EXPECT_EQ(std::lower_bound(first, last, 100), last);
  EXPECT_EQ(std::ranges::lower_bound(ring, 5), first);
}

TEST(RingBuffer, ClearResetsToEmpty) {
  RingBuffer<int> ring;
  for (int i = 0; i < 12; ++i) {
    ring.push_back(i);
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push_back(7);
  EXPECT_EQ(ring.front(), 7);
  EXPECT_EQ(ring.back(), 7);
}

}  // namespace
