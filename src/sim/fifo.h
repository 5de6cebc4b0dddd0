// A FIFO queue in one vector.
//
// std::deque allocates a node every few elements once the elements are
// 100-byte records (libstdc++ packs 512-byte nodes), so a queue that is
// steadily pushed and popped allocates and frees forever. Fifo keeps its
// elements in one vector: pop_front advances a head index, and the dead
// prefix is erased once it reaches half the vector, so a queue at steady
// state reuses its capacity and allocates nothing, at an amortized O(1) move
// per element.
//
// Every element also has an absolute index: the number of elements pushed
// before it, minus those taken back with pop_back. The index stays valid
// across compaction until the element is popped, so an index can stand in
// for a pointer that compaction would invalidate.

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
  using const_iterator = typename std::vector<T>::const_iterator;

  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  T& front() {
    assert(!empty());
    return items_[head_];
  }
  const T& front() const {
    assert(!empty());
    return items_[head_];
  }
  T& back() {
    assert(!empty());
    return items_.back();
  }

  void push_back(T value) { items_.push_back(std::move(value)); }

  void pop_front() {
    assert(!empty());
    ++head_;
    if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      base_ += head_;
      head_ = 0;
    }
  }

  void pop_back() {
    assert(!empty());
    items_.pop_back();
  }

  void clear() {
    base_ += items_.size();
    items_.clear();
    head_ = 0;
  }

  // Live elements, front to back.
  const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const { return items_.end(); }

  // Absolute indices: front() is at front_index(), back() at end_index() - 1.
  uint64_t front_index() const { return base_ + head_; }
  uint64_t end_index() const { return base_ + items_.size(); }
  T& at_index(uint64_t index) {
    assert(index >= front_index() && index < end_index());
    return items_[index - base_];
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;    // items_[0, head_) are popped
  uint64_t base_ = 0;  // absolute index of items_[0]
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_FIFO_H_
