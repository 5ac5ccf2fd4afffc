// mpmc.hpp — FFQ^m: the multi-producer extension (paper Algorithm 2).
//
// Differences from FFQ^s (§III-B):
//  * `tail` becomes a shared fetch-and-add ticket dispenser, like `head`.
//  * Producers must exclude one another on a cell. A producer wins a free
//    cell by double-word CAS of the adjacent (rank, gap) pair from
//    (-1, g) to (-2, g): the -2 reservation keeps consumers out (they
//    look for rank == mine ≥ 0) while preventing another producer from
//    claiming the cell or moving `gap` — which closes both races the
//    paper describes (lost update by a sleeping producer; "enqueue in the
//    past" past a moved gap).
//  * Gap announcements also go through the DWCAS, (r, g) → (r, rank), so
//    a gap can never move backwards and can never be installed over a
//    concurrent claim.
//  * Progress: enqueue is lock-free (not wait-free) under the
//    free-slot assumption; dequeue is no longer lock-free because a
//    stalled producer holding a -2 reservation can make consumers of that
//    rank wait (paper §III-B, last paragraph).
//
// The consumer side is unchanged from FFQ^s: every dequeue entry point
// runs the shared detail::ring::claim_run (ring.hpp), which reads a -2
// reservation as "producer still writing" and waits for it. This header
// adds only the producer protocol.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/dwcas.hpp"

namespace ffq::core {

template <typename T, typename Layout = layout_aligned,
          typename Observer = ffq::observe::default_observer>
class mpmc_queue
    : public detail::ring<detail::mpmc_cell<T, Layout::kCacheAligned>,
                          std::atomic<std::int64_t>, Layout, Observer> {
  using base = typename mpmc_queue::ring;

 public:
  using value_type = T;
  using layout_type = Layout;
  using observer_type = Observer;
  static constexpr const char* kName = "ffq-mpmc";

  explicit mpmc_queue(std::size_t capacity) : base(capacity, kName) {}

  /// Enqueue one item (any number of producer threads). Lock-free while
  /// the queue has free cells.
  void enqueue(T value) noexcept {
    assert(closed_tail_.load(std::memory_order_relaxed) < 0 &&
           "enqueue after close()");
    std::size_t gaps_this_call = 0;
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: before the rank draw
      const std::int64_t rank = tail_->fetch_add(1, std::memory_order_relaxed);
      if (place_at_rank(rank, value, gaps_this_call)) return;
    }
  }

  /// Enqueue `n` items from `first` (any number of producer threads).
  /// Acquires a *block* of ranks with a single fetch-and-add of `tail`
  /// instead of one per item, then resolves each rank against its cell
  /// with the same DWCAS protocol as enqueue(). Ranks that die inside the
  /// block (another producer's gap covers them, or this call turns them
  /// into gaps) are dropped in place; a fresh block is drawn only when
  /// the current one is exhausted, so the common case pays one FAA per
  /// batch.
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    assert(closed_tail_.load(std::memory_order_relaxed) < 0 &&
           "enqueue after close()");
    obs_.on_bulk(n);
    std::size_t gaps_this_call = 0;
    std::size_t remaining = n;
    std::int64_t next = 0;
    std::int64_t block_end = 0;  // empty block: forces the first FAA
    while (remaining > 0) {
      T item = std::move(*first);  // place_at_rank keeps it on failure
      for (;;) {
        FFQ_CHECK_YIELD();  // scheduling point: before each rank attempt
        if (next == block_end) {
          next = tail_->fetch_add(static_cast<std::int64_t>(remaining),
                                  std::memory_order_relaxed);
          block_end = next + static_cast<std::int64_t>(remaining);
          obs_.on_rank_block_faa();
        }
        const std::int64_t rank = next++;
        if (place_at_rank(rank, item, gaps_this_call)) break;
      }
      ++first;
      --remaining;
    }
  }

  /// Dequeue one item (any number of consumer threads). Same protocol as
  /// spmc_queue::dequeue; a -2 reservation reads as "producer still
  /// writing" and is awaited.
  bool dequeue(T& out) noexcept {
    return this->template claim_run<true>(&out, 1) == 1;
  }

  /// Non-blocking dequeue: returns false immediately when nothing is
  /// claimable (tail ≤ head) instead of committing a rank and spinning.
  /// Unlike the SPMC variant, a claimed rank below tail can still be
  /// mid-write (-2 reservation) — the wait for the reserving producer is
  /// the same one dequeue() performs.
  bool try_dequeue(T& out) noexcept {
    return this->template claim_run<false>(&out, 1) == 1;
  }

  /// Non-blocking bulk dequeue: returns 0 immediately when nothing is
  /// claimable (tail ≤ head), but may wait for a reserving producer
  /// exactly as try_dequeue does — never for an empty queue.
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return this->template claim_bulk<false>(out, max_n);
  }

  /// Dequeue up to `max_n` items: one head fetch-and-add claims the whole
  /// run (see spmc_queue::dequeue_bulk). Returns the count taken (≥ 1);
  /// 0 only once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return this->template claim_bulk<true>(out, max_n);
  }

 private:
  using base::cap_;
  using base::cell_at;
  using base::closed_tail_;
  using base::tail_;
  using base::obs_;

  /// Try to install `value` at `rank` (Algorithm 2's per-cell races).
  /// True: value moved into the cell and published. False: the rank died
  /// — covered by another producer's gap, or turned into a gap by this
  /// call — and the caller must draw a fresh rank for the same value.
  bool place_at_rank(std::int64_t rank, T& value,
                     std::size_t& gaps_this_call) noexcept {
    const std::uint64_t t0 = obs_.now();
    auto& c = cell_at(rank);
    ffq::runtime::yielding_backoff backoff;
    // Spin counts accumulate in registers and flush once per
    // return — one RMW per episode, not one per pause. The wait loops
    // below also flush every kFlushEvery pauses so a producer stuck on a
    // full ring stays visible to live snapshots.
    std::uint64_t stalls = 0, pauses = 0, retries = 0;
    bool stall_traced = false;
    const auto flush_waits = [&]() noexcept {
      obs_.on_full_stalls(stalls);
      obs_.on_backoff_pauses(pauses);
      obs_.on_dwcas_retries(retries);
      stalls = pauses = retries = 0;
    };
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: one placement round
      const std::int64_t g = c.gap().load(std::memory_order_acquire);
      if (g >= rank) {
        // Our rank is already "in the past" at this cell (another
        // producer announced a gap covering it): abandon the rank —
        // consumers skip it via the same gap — and draw a fresh one.
        flush_waits();
        return false;
      }
      const std::int64_t r = c.rank().load(std::memory_order_acquire);
      if (r >= 0) {
        if (gaps_this_call >= cap_.size() &&
            (r < rank || FFQ_CHECK_MUTANT(throttle_ignores_rank_order))) {
          // One full sweep produced only gaps: the ring is full. Stop
          // burning ranks (each dead rank costs every consumer a
          // fetch-add) and wait for this cell to drain; we still hold a
          // valid rank for it. Lock-freedom is already forfeit in this
          // regime (see the class comment on progress).
          //
          // Waiting is only sound while the cell holds an *older* rank
          // (r < ours): consumers reach r before our rank, so the cell
          // drains independently of us. If another producer already
          // published a *later* rank here (r > ours, possible with
          // concurrent producers on a full ring), a consumer may be
          // parked on our rank behind it — waiting would deadlock that
          // consumer, so the gap for our rank must be announced.
          // (Found by an exhaustive checker; the mutation
          // throttle_ignores_rank_order drops the condition, and
          // ModelAlg2.ThrottleDeadlockRegressionIsCaught in
          // tests/test_check.cpp must catch the deadlock.)
          ++stalls;
          if (!stall_traced) {  // one instant per episode, not per pause
            obs_.on_full_stall(rank);
            stall_traced = true;
          }
          if (ffq::telemetry::flush_due(stalls)) flush_waits();
          FFQ_CHECK_SPIN();
          backoff.pause();
          continue;
        }
        // Occupied by an unconsumed item: announce the gap. The DWCAS
        // fails if the item is consumed or the gap moves concurrently;
        // then re-examine the cell.
        typename ffq::runtime::atomic_i64_pair::value_type expected{r, g};
        if (FFQ_CHECK_MUTANT(gap_ignores_rank)
                ? mutant_cas(c.gap(), g, rank)
                : c.rg.compare_exchange(expected, {r, rank})) {
          obs_.on_gap(rank);
          ++gaps_this_call;
          flush_waits();
          return false;  // gap announced for our rank; acquire a new rank
        }
        ++retries;
        obs_.on_dwcas_retry(rank);
        continue;
      }
      if (r == detail::kCellFree) {
        // Claim attempt: (-1, g) → (-2, g). Failure means another
        // producer claimed it or a gap moved; re-examine.
        const bool direct = FFQ_CHECK_MUTANT(claim_publishes_directly);
        const std::int64_t claim = direct ? rank : detail::kCellReserved;
        typename ffq::runtime::atomic_i64_pair::value_type expected{
            detail::kCellFree, g};
        if (FFQ_CHECK_MUTANT(claim_ignores_gap)
                ? mutant_cas(c.rank(), detail::kCellFree, claim)
                : c.rg.compare_exchange(expected, {claim, g})) {
          // The -2 reservation is now visible; the window before the
          // publish below is Algorithm 2's non-wait-free wait (and the
          // watchdog's stuck_producer state), so the checker gets a
          // scheduling point inside it.
          FFQ_CHECK_YIELD();
          std::construct_at(c.ptr(), std::move(value));
          FFQ_CHECK_YIELD();  // window between the data write and publication
          // Publish.
          if (!direct) c.rank().store(rank, std::memory_order_release);
          flush_waits();
          obs_.on_enqueue(t0, rank);
          return true;
        }
        ++retries;
        obs_.on_dwcas_retry(rank);
        continue;
      }
      // r == kCellReserved: another producer is between its claim and
      // its publish; wait for it (this is the non-wait-free window).
      ++pauses;
      if (ffq::telemetry::flush_due(pauses)) flush_waits();
      FFQ_CHECK_SPIN();
      backoff.pause();
    }
  }

  /// The single-word CAS a DWCAS mutation narrows to. The loads it
  /// follows and the CAS are separate steps there, so the checker gets a
  /// scheduling point between them (checked builds only).
  static bool mutant_cas(std::atomic<std::int64_t>& word, std::int64_t expect,
                         std::int64_t desired) noexcept {
    FFQ_CHECK_YIELD();
    return word.compare_exchange_strong(expect, desired);
  }
};

}  // namespace ffq::core
