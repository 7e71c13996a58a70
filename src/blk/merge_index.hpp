// iosim: the block layer's back-merge index — end LBA -> queued request.
//
// A flat open-addressed table (linear probing, power-of-two capacity,
// backward-shift deletion, no tombstones). The home slot is the key's
// 64 KiB LBA block modulo the capacity, so consecutive end keys of one
// stream sit in neighbouring slots. It replaces an
// `std::unordered_map<Lba, Request*>` and keeps exactly the map semantics
// the pinned digests depend on:
//   * emplace() of a key already present keeps the existing entry — the
//     first writer wins, the newcomer gets no entry;
//   * erase(key) removes whichever request holds the key;
//   * clear() empties the table (capacity is kept).
// The index is never iterated, so slot order is free to differ from the
// map's bucket order. Steady state allocates nothing: the table only grows,
// and only when it would pass half full.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "iosched/request.hpp"

namespace iosim::blk {

class MergeIndex {
 public:
  using Lba = disk::Lba;
  using Request = iosched::Request;

  /// The request whose entry has key `key`, or nullptr.
  Request* find(Lba key) const {
    ++finds_;
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      ++find_probes_;
      const Slot& s = slots_[i];
      if (s.rq == nullptr) return nullptr;
      if (s.key == key) return s.rq;
    }
  }

  /// Insert `key -> rq` unless `key` is present. Returns false (and leaves
  /// the existing entry untouched) when it is.
  bool emplace(Lba key, Request* rq) {
    assert(rq != nullptr);
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.rq == nullptr) {
        s = {key, rq};
        ++size_;
        return true;
      }
      if (s.key == key) return false;
    }
  }

  /// Remove the entry with key `key`, whoever holds it. Returns false when
  /// there is none.
  bool erase(Lba key) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    for (;; i = next(i)) {
      if (slots_[i].rq == nullptr) return false;
      if (slots_[i].key == key) break;
    }
    // Backward-shift: pull later members of the probe run into the hole
    // unless that would move one before its home slot.
    for (std::size_t j = next(i);; j = next(j)) {
      Slot& s = slots_[j];
      if (s.rq == nullptr) break;
      const std::size_t h = home(s.key);
      // `s` may fill hole i iff h is not cyclically inside (i, j].
      const bool in_run = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (!in_run) {
        slots_[i] = s;
        i = j;
      }
    }
    slots_[i] = {};
    --size_;
    return true;
  }

  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s = {};
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  /// Slot count (tests: growth happens, steady state does not allocate).
  std::size_t capacity() const { return slots_.size(); }
  /// find() calls so far, and the slots they visited: deterministic work
  /// counts that judge the home-slot function without wall-clock noise.
  std::uint64_t finds() const { return finds_; }
  std::uint64_t find_probes() const { return find_probes_; }

 private:
  struct Slot {
    Lba key = 0;
    Request* rq = nullptr;  // nullptr marks an empty slot
  };

  static constexpr std::size_t kMinSlots = 16;
  /// log2 of the LBA sectors one home slot covers (DESIGN.md §8.9).
  static constexpr unsigned kHomeShift = 7;

  std::size_t home(Lba key) const {
    // Stream-local: one slot per 64 KiB of LBA (kHomeShift), wrapped by
    // the table size. A stream's next end key lands in the slot of its
    // last one or a neighbour, four slots to a cache line.
    return static_cast<std::size_t>(key >> kHomeShift) & (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(n, Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.rq != nullptr) emplace(s.key, s.rq);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  mutable std::uint64_t finds_ = 0;
  mutable std::uint64_t find_probes_ = 0;
};

}  // namespace iosim::blk
