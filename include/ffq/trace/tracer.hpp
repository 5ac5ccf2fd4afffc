// tracer.hpp — the trace record emitter of the observer policy.
//
// `queue_tracer` is what a queue or fabric observer holds under the
// `observe::trace` policy: a 2-byte queue id (assigned by the trace
// registry at construction) plus inline emit helpers that push packed
// records into the calling thread's ring. One record per completed
// operation — the begin timestamp is captured into a register with
// `now()` and folded into the record at the end — so the hot path pays
// one rdtsc, one thread_local lookup, and six atomic stores per traced
// operation, and nothing on the miss paths it does not take.
//
// The hooks that decide which record each event becomes are those of
// observe::queue_observer / fabric_observer (observe/observer.hpp).
#pragma once

#include <cstdint>

#include "ffq/runtime/timing.hpp"
#include "ffq/trace/event.hpp"
#include "ffq/trace/registry.hpp"

namespace ffq::trace {

class queue_tracer {
 public:
  explicit queue_tracer(const char* kind)
      : id_(registry::instance().register_queue(kind)) {}

  /// Begin-of-operation timestamp, kept in a register by the caller.
  static std::uint64_t now() noexcept { return ffq::runtime::rdtsc(); }

  /// Operation completed: one duration record.
  void span(event_type t, std::uint64_t t0, std::int64_t rank) const noexcept {
    const std::uint32_t dur = saturate_dur(now() - t0);
    registry::instance().ring_for_this_thread().push(t, id_, rank, t0, dur);
  }

  /// A zero-duration record stamped now.
  void instant(event_type t, std::int64_t arg) const noexcept {
    registry::instance().ring_for_this_thread().push(t, id_, arg, now(), 0);
  }

 private:
  std::uint16_t id_;
};

}  // namespace ffq::trace
