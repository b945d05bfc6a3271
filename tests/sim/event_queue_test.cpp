#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace ppssd::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue<int> q;
  q.push(30, 3);
  q.push(10, 1);
  q.push(20, 2);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomizedHeapProperty) {
  EventQueue<std::uint64_t> q;
  Rng rng(3);
  std::vector<SimTime> times;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = rng.next_below(1'000'000);
    times.push_back(t);
    q.push(t, t);
  }
  std::sort(times.begin(), times.end());
  for (const SimTime expected : times) {
    EXPECT_EQ(q.pop().time, expected);
  }
}

TEST(EventQueue, DrainUntil) {
  EventQueue<int> q;
  for (int i = 1; i <= 10; ++i) {
    q.push(static_cast<SimTime>(i * 100), i);
  }
  int drained = 0;
  q.drain_until(500, [&](const auto& ev) {
    ++drained;
    EXPECT_LE(ev.time, 500u);
  });
  EXPECT_EQ(drained, 5);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.top().time, 600u);
}

TEST(EventQueue, DrainUntilInclusive) {
  EventQueue<int> q;
  q.push(100, 1);
  int drained = 0;
  q.drain_until(100, [&](const auto&) { ++drained; });
  EXPECT_EQ(drained, 1);
}

TEST(EventQueue, DuplicateTimestampsPopInInsertionOrder) {
  // Stable ordering: equal-time events come back in push order, so
  // replayed simulations are bit-reproducible regardless of heap layout.
  EventQueue<int> q;
  q.push(100, 1);
  q.push(50, 0);
  q.push(100, 2);
  q.push(100, 3);
  EXPECT_EQ(q.pop().payload, 0);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
}

TEST(EventQueue, DrainUntilBelowTopIsNoOp) {
  EventQueue<int> q;
  q.push(100, 1);
  int drained = 0;
  q.drain_until(99, [&](const auto&) { ++drained; });
  EXPECT_EQ(drained, 0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.top().time, 100u);
}

TEST(EventQueue, RandomizedStableOrderMatchesReference) {
  // Property check against a reference model: interleave pushes with
  // partial drains; every drained batch must come out sorted by time and,
  // within a time, in insertion order. Few distinct timestamps force many
  // ties so the seq tiebreak actually gets exercised.
  EventQueue<std::uint32_t> q;
  Rng rng(11);
  std::vector<std::pair<SimTime, std::uint32_t>> reference;  // insertion order
  std::vector<std::uint32_t> popped;
  std::vector<std::uint32_t> expected;
  std::uint32_t serial = 0;
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + static_cast<int>(rng.next_below(20));
    for (int i = 0; i < pushes; ++i) {
      const SimTime t = rng.next_below(100);
      q.push(t, serial);
      reference.emplace_back(t, serial);
      ++serial;
    }
    const SimTime cutoff = rng.next_below(120);
    q.drain_until(cutoff,
                  [&](const auto& ev) { popped.push_back(ev.payload); });
    std::vector<std::pair<SimTime, std::uint32_t>> due;
    std::vector<std::pair<SimTime, std::uint32_t>> rest;
    for (const auto& e : reference) {
      (e.first <= cutoff ? due : rest).push_back(e);
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& e : due) expected.push_back(e.second);
    reference = std::move(rest);
    ASSERT_EQ(popped, expected) << "diverged in round " << round;
  }
}

TEST(EventQueueDeathTest, PopEmptyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventQueue<int> q;
  EXPECT_DEATH(q.pop(), "");
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue<int> q;
  q.push(5, 5);
  q.push(1, 1);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(3, 3);
  q.push(7, 7);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_EQ(q.pop().payload, 5);
  EXPECT_EQ(q.pop().payload, 7);
}

// The stable-merge property the host completion queue rests on: events
// pushed with equal timestamps pop in push order, regardless of how the
// push sequence interleaves times.
TEST(EventQueueStability, EqualTimesPopInPushOrderRandomized) {
  Rng rng(1234);
  EventQueue<std::uint64_t> q;
  std::vector<std::pair<SimTime, std::uint64_t>> pushed;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const SimTime t = static_cast<SimTime>(rng.next_below(40));  // dense ties
    q.push(t, i);
    pushed.emplace_back(t, i);
  }
  // The oracle: stable sort by time only — FIFO within a timestamp.
  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t k = 0;
  q.drain_until(kNoTime, [&](const auto& ev) {
    ASSERT_EQ(ev.time, pushed[k].first) << "event " << k;
    ASSERT_EQ(ev.payload, pushed[k].second) << "event " << k;
    ++k;
  });
  EXPECT_EQ(k, pushed.size());
}

}  // namespace
}  // namespace ppssd::sim
