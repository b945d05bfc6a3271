// Time-ordered min-heap of (time, payload) events with stable ordering:
// events that carry the same timestamp pop in push (FIFO) order. Stability
// is what makes replays bit-reproducible — the host completion queue and
// multi-stream trace merges must not depend on heap internals to break
// timestamp ties.
//
// The Ssd's host completion queue is one: the replayer harvests request
// completions from it in simulation-time order against arrivals
// (out-of-order host completions, device queue-depth statistics).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ppssd::sim {

template <typename T>
class EventQueue {
 public:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // push order; breaks timestamp ties FIFO
    T payload;
  };

  void push(SimTime time, T payload) {
    heap_.push_back(Event{time, next_seq_++, std::move(payload)});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  [[nodiscard]] const Event& top() const {
    PPSSD_CHECK(!heap_.empty());
    return heap_.front();
  }

  Event pop() {
    PPSSD_CHECK(!heap_.empty());
    Event out = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return out;
  }

  /// Pop every event with time <= cutoff, invoking fn(event).
  template <typename Fn>
  void drain_until(SimTime cutoff, Fn&& fn) {
    while (!heap_.empty() && heap_.front().time <= cutoff) {
      fn(pop());
    }
  }

 private:
  [[nodiscard]] static bool before(const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && before(heap_[l], heap_[smallest])) smallest = l;
      if (r < n && before(heap_[r], heap_[smallest])) smallest = r;
      if (smallest == i) break;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ppssd::sim
