// Test-only view of a block layer's request traffic: a RequestSink that sits
// between a layer and its real sink and reports every request crossing it.
//
//   DiskDevice disk(...);
//   RecordingSink rec(disk, [&](SinkEvent e, const Request& rq, Time now) {...});
//   BlockLayer layer(simr, rec, cfg);
//
// A dispatch is reported just before the request is forwarded to the inner
// sink (`rq.dispatch` is already stamped); a completion just before the
// layer's completion handler runs, so the request still carries its merged
// size, bio count and status, and its callbacks have not fired yet.
#pragma once

#include <functional>

#include "blk/request_sink.hpp"

namespace iosim::blk::test {

enum class SinkEvent { kDispatch, kComplete };

class RecordingSink final : public RequestSink {
 public:
  using Record = std::function<void(SinkEvent, const Request&, Time)>;

  explicit RecordingSink(RequestSink& inner, Record record = {})
      : inner_(inner), record_(std::move(record)) {
    inner_.set_on_complete([this](Request* rq, Time now) {
      if (record_) record_(SinkEvent::kComplete, *rq, now);
      complete(rq, now);
    });
    inner_.set_on_ready([this](Time now) { ready(now); });
  }
  RecordingSink(const RecordingSink&) = delete;
  RecordingSink& operator=(const RecordingSink&) = delete;

  /// Replace the callback; an empty one records nothing.
  void set_record(Record record) { record_ = std::move(record); }

  bool can_accept() const override { return inner_.can_accept(); }

  void submit(Request* rq, Time now) override {
    if (record_) record_(SinkEvent::kDispatch, *rq, now);
    inner_.submit(rq, now);
  }

 private:
  RequestSink& inner_;
  Record record_;
};

}  // namespace iosim::blk::test
