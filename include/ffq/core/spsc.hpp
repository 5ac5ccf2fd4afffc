// spsc.hpp — FFQ SPSC specialization.
//
// "The SPSC variant of FFQ removes the need for an atomic increment
// operation" (paper §V-G): with a single consumer, `head` becomes a
// consumer-private counter — no fetch-and-increment, no shared head line.
// Cells keep the (rank, gap) protocol because the producer can still wrap
// around onto a cell whose item the consumer has not consumed yet (the
// buffer-full edge), in which case it skips and announces a gap exactly
// like the SPMC variant. Both halves are the shared ring (ring.hpp): the
// producer runs detail::ring::publish, and the consumer runs the ring's
// one rank-resolve, detail::ring::resolve_rank, non-blocking, over its
// private head. Only that scan lives here.
//
// Used by the application framework (paper §V-A) for the per-consumer
// response queues, and by Fig. 3 (queue-size sweep) and Fig. 8 (SPSC
// single-thread reference line).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"

namespace ffq::core {

template <typename T, typename Layout, typename Observer>
class waitable_spsc_queue;

// Packed by default: one producer, one consumer draining in order, so
// neighbouring cells never pass between threads (DESIGN.md §6 "Cell layout").
template <typename T, typename Layout = layout_compact,
          typename Observer = ffq::observe::default_observer>
class spsc_queue
    : public detail::ring<detail::spmc_cell<T, Layout::kCacheAligned>,
                          std::int64_t, Layout, Observer> {
  using base = typename spsc_queue::ring;

 public:
  using value_type = T;
  using layout_type = Layout;
  using observer_type = Observer;
  static constexpr const char* kName = "ffq-spsc";

  explicit spsc_queue(std::size_t capacity) : base(capacity, kName) {}

  /// Producer thread only. Identical protocol to spmc_queue::enqueue.
  void enqueue(T value) noexcept { this->publish(&value, 1); }

  /// Producer thread only. Enqueue `n` items from `first` with a single
  /// `tail` store for the whole batch (DESIGN.md §5.8). Blocks only in
  /// the full-ring regime.
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    obs_.on_bulk(n);
    this->publish(first, n);
  }

  /// Consumer thread only. Non-blocking: false when no item is ready.
  /// Safe because `head` is consumer-private — an abandoned poll consumes
  /// no rank.
  bool try_dequeue(T& out) noexcept { return take(&out, 1) == 1; }

  /// Consumer thread only. Blocking variant; returns false only after
  /// close() once everything produced has been drained.
  bool dequeue(T& out) noexcept { return wait_take(&out, 1) == 1; }

  /// Consumer thread only. Take up to `max_n` ready items; never waits.
  /// The consumer-private head makes the claim non-committal, so a
  /// partial (or empty) batch abandons nothing.
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return this->counted_bulk(take(out, max_n));
  }

  /// Consumer thread only. Blocking bulk dequeue: returns ≥ 1 items, or
  /// 0 only once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    if (max_n == 0) return 0;
    return this->counted_bulk(wait_take(out, max_n));
  }

 private:
  // The waitable wrapper funnels its park/wake events into this queue's
  // observer so one telemetry() call covers the whole stack.
  friend class waitable_spsc_queue<T, Layout, Observer>;

  using typename base::rank_state;
  using base::closed_tail_;
  using base::head_;
  using base::obs_;

  /// Scan forward from the private head, taking up to `max_n` published
  /// items and stepping over gap ranks: one non-blocking resolve_rank per
  /// rank, with no fetch-and-add and no read of `tail`. Stops at the
  /// first rank not published yet.
  template <typename OutIt>
  std::size_t take(OutIt out, std::size_t max_n) noexcept {
    std::uint64_t it0 = obs_.now();  // per-item begin timestamp
    std::int64_t h = (*head_);
    std::size_t taken = 0;
    while (taken < max_n) {
      const auto s = this->template resolve_rank<false>(h, it0, [&](T&& v) {
        *out = std::move(v);
        ++out;
      });
      if (s == rank_state::pending) break;
      ++h;  // taken, or skipped: our rank was a gap
      if (s == rank_state::taken && ++taken < max_n) it0 = obs_.now();
    }
    (*head_) = h;  // remember progress past consumed gaps
    return taken;
  }

  /// take() with back-off while nothing is ready: ≥ 1 items, or 0 once
  /// closed and drained. Shared by dequeue and dequeue_bulk.
  template <typename OutIt>
  std::size_t wait_take(OutIt out, std::size_t max_n) noexcept {
    detail::waiter wait(obs_);
    for (;;) {
      const std::size_t n = take(out, max_n);
      if (n > 0) return n;
      const std::int64_t closed = closed_tail_.load(std::memory_order_acquire);
      if (closed >= 0 && (*head_) >= closed) return 0;
      wait.pause();
    }
  }
};

}  // namespace ffq::core
