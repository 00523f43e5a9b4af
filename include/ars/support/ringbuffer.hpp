#pragma once
// Power-of-two ring buffer for the monitoring hot paths.
//
// The trailing-window structures (net::FlowMeter traffic segments,
// host::CpuModel busy periods) share one access pattern: push at the
// back, prune from the front, iterate a recent window.
// `std::deque` serves that pattern through chunk maps and per-chunk
// indirection; this ring serves it from one contiguous power-of-two array,
// so position math is a single mask (no modulo, no chunk lookup) and a
// pruned-and-refilled steady state never allocates.  Its const_iterator
// is random access, so a ring kept in time order is binary-searched
// (std::partition_point) for the start of a window.
//
// T must be default-constructible and move-assignable.  Capacity grows by
// doubling when push_back catches the head; bounded uses pop_front first.

#include <compare>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace ars::support {

template <typename T>
class RingBuffer {
 public:
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const RingBuffer* ring, std::size_t pos)
        : ring_(ring), pos_(pos) {}

    reference operator*() const { return (*ring_)[pos_]; }
    pointer operator->() const { return &(*ring_)[pos_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++pos_;
      return old;
    }
    const_iterator& operator--() {
      --pos_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator old = *this;
      --pos_;
      return old;
    }
    const_iterator& operator+=(difference_type n) {
      pos_ += static_cast<std::size_t>(n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      pos_ -= static_cast<std::size_t>(n);
      return *this;
    }
    reference operator[](difference_type n) const { return *(*this + n); }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend std::strong_ordering operator<=>(const const_iterator& a,
                                            const const_iterator& b) {
      return a.pos_ <=> b.pos_;
    }

   private:
    const RingBuffer* ring_ = nullptr;
    std::size_t pos_ = 0;  // logical index: 0 is the oldest element
  };

  RingBuffer() = default;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Physical capacity (a power of two; grows on demand).
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.size(); }

  /// Logical index 0 is the oldest element, size()-1 the newest.
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[(head_ + i) & mask_];
  }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return data_[(head_ + i) & mask_];
  }

  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] T& front() noexcept { return (*this)[0]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[count_ - 1]; }
  [[nodiscard]] T& back() noexcept { return (*this)[count_ - 1]; }

  void push_back(T value) {
    if (count_ == data_.size()) {
      grow();
    }
    data_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  void pop_front() noexcept {
    data_[head_] = T{};  // release any owned resources eagerly
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() noexcept {
    while (count_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, count_);
  }

 private:
  void grow() {
    const std::size_t next_capacity = data_.empty() ? 8 : data_.size() * 2;
    std::vector<T> next(next_capacity);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(data_[(head_ + i) & mask_]);
    }
    data_ = std::move(next);
    mask_ = next_capacity - 1;
    head_ = 0;
  }

  std::vector<T> data_;   // size is zero or a power of two
  std::size_t mask_ = 0;  // data_.size() - 1 once allocated
  std::size_t head_ = 0;  // physical index of the oldest element
  std::size_t count_ = 0;
};

}  // namespace ars::support
