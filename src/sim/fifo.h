// A FIFO queue in one ring buffer.
//
// std::deque allocates a node every few elements once the elements are
// 100-byte records (libstdc++ packs 512-byte nodes), so a queue that is
// steadily pushed and popped allocates and frees forever. Fifo keeps its
// elements in one vector used as a ring with a power-of-two capacity:
// pop_front resets the front slot and advances the head, and push_back
// doubles the ring only when it is full. A queue at steady state therefore
// reuses its capacity, allocates nothing and never moves a live element.
//
// Every element also has an absolute index: the number of elements pushed
// before it, minus those taken back with pop_back. Its slot is the index
// modulo the capacity, so the index stays valid across growth until the
// element is popped, and an index can stand in for a pointer that growth
// would invalidate.

#ifndef TCSIM_SRC_SIM_FIFO_H_
#define TCSIM_SRC_SIM_FIFO_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tcsim {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == end_; }
  size_t size() const { return static_cast<size_t>(end_ - head_); }

  T& front() {
    assert(!empty());
    return slot(head_);
  }
  const T& front() const {
    assert(!empty());
    return slot(head_);
  }
  T& back() {
    assert(!empty());
    return slot(end_ - 1);
  }

  void push_back(T value) {
    if (size() == ring_.size()) {
      Grow();
    }
    slot(end_) = std::move(value);
    ++end_;
  }

  void pop_front() {
    assert(!empty());
    slot(head_) = T();
    ++head_;
  }

  void pop_back() {
    assert(!empty());
    --end_;
    slot(end_) = T();
  }

  void clear() {
    while (!empty()) {
      pop_front();
    }
  }

  // Absolute indices: front() is at front_index(), back() at end_index() - 1.
  uint64_t front_index() const { return head_; }
  uint64_t end_index() const { return end_; }
  T& at_index(uint64_t index) {
    assert(index >= head_ && index < end_);
    return slot(index);
  }
  const T& at_index(uint64_t index) const {
    assert(index >= head_ && index < end_);
    return slot(index);
  }

 private:
  T& slot(uint64_t index) { return ring_[index & (ring_.size() - 1)]; }
  const T& slot(uint64_t index) const {
    return ring_[index & (ring_.size() - 1)];
  }

  // Doubles the capacity, moving each live element to its index's slot in
  // the larger ring.
  void Grow() {
    std::vector<T> larger(ring_.empty() ? 1 : 2 * ring_.size());
    for (uint64_t i = head_; i < end_; ++i) {
      larger[i & (larger.size() - 1)] = std::move(slot(i));
    }
    ring_.swap(larger);
  }

  std::vector<T> ring_;  // capacity: 0 or a power of two
  uint64_t head_ = 0;    // absolute index of front()
  uint64_t end_ = 0;     // absolute index one past back()
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_FIFO_H_
