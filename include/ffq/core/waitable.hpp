// waitable.hpp — kernel-assisted blocking on top of the FFQ SPSC queue.
//
// FFQ's dequeue spins: right for the paper's dedicated-core setting,
// wasteful when a consumer may be idle for long stretches. The paper's
// own framework solves this with an application-level scheduler ("an OS
// thread inside of the enclave will yield the processor ... and sleeps
// on the outside only if it has no application thread to execute", §I);
// this wrapper is the kernel-only equivalent: spin briefly, then park on
// a futex-backed event count until the producer signals.
//
// The producer's hot path gains exactly one relaxed load (the "any
// waiters?" check inside notify_one); the consumer's fast path is
// unchanged. Offered for the SPSC variant, whose consumer-private head
// makes a non-committal try_dequeue possible — which the park/re-check
// protocol requires. (An SPMC consumer commits to a rank before it can
// observe emptiness, so it cannot abandon the wait; parking SPMC
// consumers needs the scheduler-integration approach instead.)
#pragma once

#include <cstdint>

#include "ffq/check/yield.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/eventcount.hpp"

namespace ffq::core {

// Packed by default, like the spsc_queue it wraps.
template <typename T, typename Layout = layout_compact,
          typename Observer = ffq::observe::default_observer>
class waitable_spsc_queue {
 public:
  using value_type = T;
  using layout_type = Layout;
  using observer_type = Observer;
  static constexpr const char* kName = "ffq-spsc-waitable";

  /// Spins this many light rounds before parking (covers the common
  /// "producer is one store away" case without a syscall).
  static constexpr int kSpinRounds = 256;

  explicit waitable_spsc_queue(std::size_t capacity) : q_(capacity) {}

  /// Producer only. Wait-free (plus one relaxed load for the wake check).
  void enqueue(T value) noexcept {
    q_.enqueue(std::move(value));
    FFQ_CHECK_YIELD();  // window between publication and the wake signal
    count_wake();
    ec_.notify_one();
  }

  /// Producer only. Bulk enqueue with one tail publication and one wake
  /// check per batch (DESIGN.md §5.8).
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    q_.enqueue_bulk(first, n);
    FFQ_CHECK_YIELD();  // window between publication and the wake signal
    count_wake();
    ec_.notify_one();
  }

  /// Consumer only; never blocks.
  bool try_dequeue(T& out) noexcept { return q_.try_dequeue(out); }

  /// Consumer only; never blocks. Returns the count taken (possibly 0).
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return q_.try_dequeue_bulk(out, max_n);
  }

  /// Consumer only. Parks in the kernel while the queue is empty;
  /// returns false once closed and drained.
  bool dequeue(T& out) noexcept {
    return take_or_park([&] { return q_.try_dequeue(out); });
  }

  /// Consumer only. Bulk variant of dequeue(): parks in the kernel while
  /// the queue is empty; returns ≥ 1 items, or 0 once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    if (max_n == 0) return 0;
    return take_or_park([&] { return q_.try_dequeue_bulk(out, max_n); });
  }

  /// Producer side: end the stream and wake any parked consumer.
  void close() noexcept {
    q_.close();
    FFQ_CHECK_YIELD();  // window between the closed flag and the wake
    count_wake();
    ec_.notify_all();
  }

  bool closed() const noexcept { return q_.closed(); }
  std::size_t capacity() const noexcept { return q_.capacity(); }
  std::int64_t approx_size() const noexcept { return q_.approx_size(); }

  /// Diagnostic: waiters currently parked (racy).
  std::uint32_t approx_waiters() const noexcept { return ec_.approx_waiters(); }

  /// Watchdog introspection, forwarded to the inner queue.
  std::int64_t head_rank() const noexcept { return q_.head_rank(); }
  std::int64_t tail_rank() const noexcept { return q_.tail_rank(); }
  auto inspect_rank(std::int64_t rank) const noexcept {
    return q_.inspect_rank(rank);
  }

  /// One unified counter block for the whole stack: park/wake events are
  /// folded into the inner queue's observer.
  const ffq::observe::queue_observer<Observer>& telemetry() const noexcept {
    return q_.telemetry();
  }

 private:
  /// The consumer's wait, around one non-blocking take (true or a
  /// count > 0 on success): spin briefly, then park until the take
  /// succeeds or the queue is closed and drained.
  template <typename Take>
  auto take_or_park(Take take) noexcept {
    for (int i = 0; i < kSpinRounds; ++i) {
      if (const auto got = take()) return got;
      ffq::runtime::cpu_relax();
    }
    for (;;) {
      const auto key = ec_.prepare_wait();
      // Re-check under the announced wait: a producer that enqueued
      // after our last poll either sees our waiter count (and will
      // notify) or we see its item here.
      if (const auto got = take()) {
        ec_.cancel_wait();
        return got;
      }
      if (q_.closed()) {
        ec_.cancel_wait();
        // Drain anything between the closed flag and the last publish.
        return take();
      }
      q_.obs_.on_park();
      ec_.wait(key);
    }
  }

  /// Count a wake-up only when a consumer is (racily) parked — mirroring
  /// when notify_one/notify_all actually issue a futex wake.
  void count_wake() noexcept {
    if constexpr (Observer::kEnabled) {
      if (ec_.approx_waiters() > 0) q_.obs_.on_wake();
    }
  }

  spsc_queue<T, Layout, Observer> q_;
  ffq::runtime::eventcount ec_;
};

}  // namespace ffq::core
