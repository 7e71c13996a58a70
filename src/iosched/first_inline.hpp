// iosim: a sequence whose first element lives inline, the rest in a vector.
//
// A block-layer request nearly always carries exactly one completion entry
// and at most one attribution handle; only Dom0 requests that absorbed
// segments of several guest requests carry more. Keeping the first element
// inside the request puts the common case in the request's own memory, with
// no separate buffer to fetch; the vector behind it is touched only from
// the second element on. clear() keeps the vector's capacity, so a recycled
// request allocates nothing in steady state.
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace iosim::iosched {

template <class T>
class FirstInline {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator(const FirstInline* c, std::size_t i) : c_(c), i_(i) {}
    const T& operator*() const { return i_ == 0 ? c_->first_ : c_->rest_[i_ - 1]; }
    const T* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const FirstInline* c_;
    std::size_t i_;
  };

  bool empty() const { return !has_first_; }
  std::size_t size() const { return has_first_ ? 1 + rest_.size() : 0; }

  void push_back(T&& v) {
    if (!has_first_) {
      first_ = std::move(v);
      has_first_ = true;
    } else {
      rest_.push_back(std::move(v));
    }
  }
  void push_back(const T& v) { push_back(T(v)); }

  const T& front() const { return first_; }
  T& back() { return rest_.empty() ? first_ : rest_.back(); }

  /// Empty again: the inline element goes back to T{} (destroying what it
  /// held), the vector keeps its capacity.
  void clear() {
    first_ = T{};
    has_first_ = false;
    rest_.clear();
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  T first_{};
  bool has_first_ = false;
  std::vector<T> rest_;
};

}  // namespace iosim::iosched
