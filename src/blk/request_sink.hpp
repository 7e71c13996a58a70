// iosim: downstream consumer of dispatched requests.
//
// A BlockLayer dispatches into a RequestSink. Two sinks exist:
//   * DiskDevice — the physical drive (capacity 1: no NCQ, 2.6.22-era SATA),
//   * BlkfrontRing (in virt/) — a Xen-style bounded ring that forwards guest
//     requests into the Dom0 block layer.
#pragma once

#include "iosched/request.hpp"
#include "sim/event_fn.hpp"

namespace iosim::blk {

using iosched::Request;
using sim::Time;

class RequestSink {
 public:
  virtual ~RequestSink() = default;

  /// True when the sink can take one more request right now.
  virtual bool can_accept() const = 0;

  /// Hand over a dispatched request. Only valid when can_accept() is true.
  /// Ownership stays with the originating BlockLayer; the sink reports
  /// completion through the handler below.
  virtual void submit(Request* rq, Time now) = 0;

  /// Completion/ready callbacks installed by the owning BlockLayer.
  /// `on_complete` fires once per request. `on_ready` fires after the sink
  /// freed capacity, when it can accept again (so the layer can dispatch
  /// more); a sink that is still full skips it, because the layer's kick()
  /// would return without touching anything. Both are small-buffer
  /// callables: the layer's `[this]` captures stay inline, so a completion
  /// is one indirect call with no allocator behind it.
  using CompleteFn = sim::SmallFn<void(Request*, Time)>;
  using ReadyFn = sim::SmallFn<void(Time)>;
  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }
  void set_on_ready(ReadyFn fn) { on_ready_ = std::move(fn); }

 protected:
  void complete(Request* rq, Time now) {
    if (on_complete_) on_complete_(rq, now);
  }
  void ready(Time now) {
    if (on_ready_) on_ready_(now);
  }

 private:
  CompleteFn on_complete_;
  ReadyFn on_ready_;
};

}  // namespace iosim::blk
