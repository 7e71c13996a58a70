// iosim: a free list of reusable objects, made in chunks.
//
// Objects are default-constructed sixteen at a time (one allocation per
// chunk) and handed out most-recently-released first, so the next one out
// is cache-warm. The pool grows to its owner's peak number of live objects,
// rounded up to a whole chunk, never shrinks, and allocates nothing once it
// is there. It hands objects back as they were released: resetting them is
// the owner's business. Block-layer requests and I/O streams use it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace iosim::sim {

template <class T>
class ChunkPool {
 public:
  static constexpr std::size_t kChunk = 16;

  T* acquire() {
    if (free_.empty()) {
      T* chunk = chunks_.emplace_back(std::make_unique<T[]>(kChunk)).get();
      for (std::size_t i = kChunk; i-- > 1;) free_.push_back(&chunk[i]);
      return &chunk[0];
    }
    T* t = free_.back();
    free_.pop_back();
    return t;
  }
  void release(T* t) { free_.push_back(t); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
};

}  // namespace iosim::sim
