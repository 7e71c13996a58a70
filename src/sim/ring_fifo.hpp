// iosim: a FIFO over a power-of-two ring buffer.
//
// Construction allocates nothing and the buffer only grows (clear() keeps
// it), so once a queue has reached its peak backlog pushes and pops
// allocate nothing either; a std::deque allocates whenever a push or pop
// crosses a block boundary, for as long as it lives. Noop's request queue,
// CFQ's round-robin list and the blkfront ring's return queues use it.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace iosim::sim {

template <class T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The `i`-th element from the front (0 = oldest).
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  T& back() {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }
  T pop_front() {
    assert(size_ > 0);
    const T v = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace iosim::sim
