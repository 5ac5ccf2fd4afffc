// spmc.hpp — FFQ^s: the single-producer/multiple-consumer FIFO queue
// (paper Algorithm 1).
//
// Operating principles (paper §III-A):
//  * A bounded circular array of cells, each holding (data, rank, gap).
//    `rank` is the monotonically-increasing insertion number of the item
//    in the cell (-1 when the cell is free); `gap` announces ranks the
//    producer skipped.
//  * The producer owns `tail`; it enqueues at rank `tail` if the mapped
//    cell is free, otherwise it announces a gap and moves on. Wait-free
//    under the paper's standing assumption that the array never fills
//    (Proposition 1).
//  * Consumers draw unique ranks from the shared `head` with
//    fetch-and-increment and then synchronize only through the cell:
//    rank == mine → take it; gap ≥ mine (and rank ≠ mine on re-check) →
//    my rank was skipped, draw a new one; otherwise the producer is still
//    writing → back off. Lock-free (Proposition 2).
//
// Both halves are the shared ring protocol (ring.hpp): enqueue runs
// detail::ring::publish, every dequeue entry point runs
// detail::ring::claim_run. This header only binds them to FFQ^s.
//
// Library extension beyond the paper (DESIGN.md §5.6): `close()` lets
// consumers parked on a never-to-be-produced rank return false instead of
// spinning forever. The check sits only on the back-off path.
//
// Batched operations (DESIGN.md §5.8): `enqueue_bulk` publishes each cell
// individually (consumers synchronize through cells, not tail) but stores
// `tail` once per batch; `dequeue_bulk` claims a *run* of ranks with a
// single fetch-and-add on `head`. Gap ranks inside a claimed run are
// dropped in place without a fresh fetch-and-add.
#pragma once

#include <atomic>
#include <cstdint>

#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"

namespace ffq::core {

/// FFQ^s. `T` must be nothrow-move-constructible; `Layout` is one of the
/// policies in layout.hpp. Capacity must be a power of two and must
/// exceed the maximum number of in-flight items (the paper's implicit
/// flow-control assumption) for enqueue to stay wait-free. Packed by
/// default: one producer writes neighbouring cells and bulk consumers
/// claim them in runs; pass layout_aligned when many scalar consumers
/// park on neighbouring ranks (paper Fig. 2, DESIGN.md §6 "Cell layout").
template <typename T, typename Layout = layout_compact,
          typename Observer = ffq::observe::default_observer>
class spmc_queue
    : public detail::ring<detail::spmc_cell<T, Layout::kCacheAligned>,
                          std::atomic<std::int64_t>, Layout, Observer> {
  using base = typename spmc_queue::ring;

 public:
  using value_type = T;
  using layout_type = Layout;
  using observer_type = Observer;
  static constexpr const char* kName = "ffq-spmc";

  explicit spmc_queue(std::size_t capacity) : base(capacity, kName) {}

  /// Enqueue one item (producer thread only). Wait-free while the queue
  /// has free cells; skips occupied cells, announcing gaps.
  void enqueue(T value) noexcept { this->publish(&value, 1); }

  /// Enqueue `n` items from `first` (producer thread only): each item is
  /// published on its own cell, `tail` is stored once for the batch.
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    this->obs_.on_bulk(n);
    this->publish(first, n);
  }

  /// Dequeue one item (any number of consumer threads). Blocks (spinning
  /// with back-off) while the queue is empty; returns false only after
  /// close() once this consumer's rank is past the final tail.
  bool dequeue(T& out) noexcept {
    return this->template claim_run<true>(&out, 1) == 1;
  }

  /// Non-blocking dequeue. Returns false immediately when no published
  /// work is claimable, instead of committing to a rank and spinning.
  bool try_dequeue(T& out) noexcept {
    return this->template claim_run<false>(&out, 1) == 1;
  }

  /// Non-blocking bulk dequeue: up to `max_n` items from one run claim,
  /// or 0 immediately when nothing is published — the primitive the
  /// shard fabric's drain scheduler polls with.
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return this->template claim_bulk<false>(out, max_n);
  }

  /// Dequeue up to `max_n` items with one head fetch-and-add. Returns the
  /// count taken (≥ 1), blocking like dequeue() while the queue is empty;
  /// returns 0 only once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return this->template claim_bulk<true>(out, max_n);
  }
};

}  // namespace ffq::core
