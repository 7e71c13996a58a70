// iosim: the queue structure shared by the deadline and AS elevators.
//
// Per direction: an LBA-sorted tree (the one-way scan) and a FIFO in
// arrival order with an absolute deadline per request (the expiry check).
// The FIFO is intrusive and each request remembers its tree entry
// (Request::elv), so add and remove do no hash lookup and allocate no FIFO
// node. Equal LBAs keep arrival order in the tree, as multimap insertion
// at the upper bound guarantees.
#pragma once

#include <cassert>
#include <cstddef>
#include <map>
#include <vector>

#include "iosched/request.hpp"

namespace iosim::iosched {

class ExpiryQueues {
 public:
  using Sorted = std::multimap<Lba, Request*>;

  void add(Request* rq, Time expire) {
    const int d = idx(rq->dir);
    rq->elv.expire = expire;
    rq->elv.sorted = sorted_[d].emplace(rq->lba, rq);
    Fifo& f = fifo_[d];
    rq->elv.prev = f.tail;
    rq->elv.next = nullptr;
    (f.tail != nullptr ? f.tail->elv.next : f.head) = rq;
    f.tail = rq;
    ++count_;
  }

  void remove(Request* rq) {
    const int d = idx(rq->dir);
    assert(rq->elv.sorted->second == rq);
    sorted_[d].erase(rq->elv.sorted);
    Fifo& f = fifo_[d];
    (rq->elv.prev != nullptr ? rq->elv.prev->elv.next : f.head) = rq->elv.next;
    (rq->elv.next != nullptr ? rq->elv.next->elv.prev : f.tail) = rq->elv.prev;
    --count_;
  }

  /// Remove every request, appending them to `out` in FIFO order, reads
  /// first.
  void drain_into(std::vector<Request*>& out) {
    for (int d = 0; d < kNumDirs; ++d) {
      for (Request* rq = fifo_[d].head; rq != nullptr; rq = rq->elv.next) {
        out.push_back(rq);
      }
      fifo_[d] = {};
      sorted_[d].clear();
    }
    count_ = 0;
  }

  const Sorted& sorted(Dir d) const { return sorted_[idx(d)]; }
  bool empty(Dir d) const { return sorted_[idx(d)].empty(); }
  /// Oldest queued request of direction `d` (nullptr when none).
  Request* oldest(Dir d) const { return fifo_[idx(d)].head; }
  std::size_t size() const { return count_; }

 private:
  struct Fifo {
    Request* head = nullptr;
    Request* tail = nullptr;
  };

  static int idx(Dir d) { return static_cast<int>(d); }

  Sorted sorted_[kNumDirs];
  Fifo fifo_[kNumDirs];
  std::size_t count_ = 0;
};

}  // namespace iosim::iosched
