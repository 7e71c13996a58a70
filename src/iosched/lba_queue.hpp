// iosim: the LBA-sorted queue behind every elevator's one-way scan.
//
// A flat vector of (lba, request) pairs in ascending LBA order. CFQ's
// per-context queues and the per-direction queues of deadline and AS
// (iosched/expiry_queues.hpp) all use it. It behaves exactly as a
// `std::multimap<Lba, Request*>` would where the pinned digests depend on
// it:
//   * insert() goes after every equal key, so equal LBAs stay in arrival
//     order (multimap insertion at the upper bound);
//   * lower_bound() is the first entry at or after an LBA, and
//     lower_bound_wrap() falls back to begin() when there is none — the
//     one-way scan with wrap;
//   * erase() takes an iterator, or a request: a binary search on
//     `rq->lba`, then a scan over the equal keys (the request's LBA must
//     not have changed since it was inserted; back-merges grow a request
//     at its end, never at its start);
//   * iteration runs in LBA order (drain).
// Elevator queues hold tens to a few hundred requests, and streams mostly
// insert at or near the back, so shifting the tail costs less than a tree
// node. Capacity is kept across erase and clear, so in steady state the
// queue allocates nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "iosched/request.hpp"

namespace iosim::iosched {

class LbaQueue {
 public:
  struct Entry {
    Lba lba;
    Request* rq;
  };
  using const_iterator = std::vector<Entry>::const_iterator;

  /// Insert after every entry with an LBA <= rq->lba: shift the larger
  /// ones up by one, scanning from the back, where streams insert.
  void insert(Request* rq) {
    q_.push_back(Entry{rq->lba, rq});
    std::size_t i = q_.size() - 1;
    for (; i > 0 && q_[i - 1].lba > rq->lba; --i) q_[i] = q_[i - 1];
    q_[i] = Entry{rq->lba, rq};
  }

  const_iterator lower_bound(Lba lba) const {
    return std::lower_bound(q_.begin(), q_.end(), lba,
                            [](const Entry& e, Lba l) { return e.lba < l; });
  }
  /// lower_bound(lba), or begin() when every entry lies below `lba`.
  const_iterator lower_bound_wrap(Lba lba) const {
    const auto it = lower_bound(lba);
    return it == q_.end() ? q_.begin() : it;
  }

  void erase(const_iterator it) { q_.erase(it); }
  void erase(const Request* rq) {
    for (auto it = lower_bound(rq->lba);; ++it) {
      assert(it != q_.end() && it->lba == rq->lba);
      if (it->rq == rq) {
        q_.erase(it);
        return;
      }
    }
  }

  const_iterator begin() const { return q_.begin(); }
  const_iterator end() const { return q_.end(); }
  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  void clear() { q_.clear(); }

 private:
  std::vector<Entry> q_;
};

}  // namespace iosim::iosched
