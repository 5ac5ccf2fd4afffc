// ring.hpp — the one FFQ cell protocol every core queue runs on.
//
// The paper's protocol is one producer cell loop (Alg. 1 lines 9–16) and
// one consumer rank-resolve (lines 18–30). SPSC is FFQ^s without the
// head fetch-and-add (§V-G), and FFQ^m changes only the producer side
// (Alg. 2). `detail::ring` holds that shared part exactly once:
//   * the cell types — spmc_cell (separate rank/gap words) and mpmc_cell
//     (the DWCAS-able pair) — both read through rank()/gap();
//   * the ring state: capacity, cells, padded tail and head, the close
//     snapshot, and the observer;
//   * lifetime and monitoring: destructor, close, capacity, approx_size
//     and the counters;
//   * three protocol routines: publish() (the single-producer cell loop),
//     resolve_rank() (one rank against its cell, the consumer side of
//     every queue) and claim_run() (the multi-consumer head fetch-and-add);
//   * waiter, the one spin-wait loop of every queue.
// The queues derive from it and add only what differs (DESIGN.md §6).
//
// Synchronization points (paper footnote 3: "Ordering is enforced ...
// using memory barriers"):
//  * producer:  construct data, then rank.store(tail, release)
//  * consumer:  rank.load(acquire); move data out; rank.store(-1, release)
//  * producer free-check: rank.load(acquire) pairs with the consumer's
//    release so the data slot is safely reusable.
//  * head is fetch_add(relaxed): it is a pure ticket dispenser; all data
//    synchronization goes through the cell fields.
//  * tail is release-stored by the producer and acquire-loaded by the
//    availability checks and close().
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/observe/observer.hpp"
#include "ffq/runtime/aligned_buffer.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/dwcas.hpp"

namespace ffq::core::detail {

inline constexpr std::int64_t kCellFree = -1;      ///< no item, claimable
inline constexpr std::int64_t kCellReserved = -2;  ///< FFQ^m producer mid-write

/// Cell of the single-producer variants. 24 bytes for 8-byte payloads in
/// the compact layout, one full line when cache-aligned — matching the
/// sizes reported in §V-B.
template <typename T>
struct spmc_cell_fields {
  using value_type = T;
  std::atomic<std::int64_t> rank_{kCellFree};  ///< insertion number
  std::atomic<std::int64_t> gap_{-1};  ///< highest rank skipped at this cell
  alignas(alignof(T)) unsigned char storage[sizeof(T)];

  std::atomic<std::int64_t>& rank() noexcept { return rank_; }
  std::atomic<std::int64_t>& gap() noexcept { return gap_; }
  T* ptr() noexcept { return std::launder(reinterpret_cast<T*>(storage)); }
};

/// FFQ^m cell: the (rank, gap) pair sits in one 16-byte unit ("placing the
/// rank and gap fields consecutively in the same cache line", §III-B) so
/// a single cmpxchg16b covers both.
template <typename T>
struct mpmc_cell_fields {
  using value_type = T;
  ffq::runtime::atomic_i64_pair rg;  ///< first = rank, second = gap
  alignas(alignof(T)) unsigned char storage[sizeof(T)];

  mpmc_cell_fields() noexcept {
    rg.first.store(kCellFree, std::memory_order_relaxed);
    rg.second.store(-1, std::memory_order_relaxed);
  }

  std::atomic<std::int64_t>& rank() noexcept { return rg.first; }
  std::atomic<std::int64_t>& gap() noexcept { return rg.second; }
  T* ptr() noexcept { return std::launder(reinterpret_cast<T*>(storage)); }
};

template <typename Fields, bool CacheAligned>
struct cell : Fields {};

template <typename Fields>
struct alignas(ffq::runtime::kCacheLineSize) cell<Fields, true> : Fields {};

template <typename T, bool CacheAligned>
using spmc_cell = cell<spmc_cell_fields<T>, CacheAligned>;
template <typename T, bool CacheAligned>
using mpmc_cell = cell<mpmc_cell_fields<T>, CacheAligned>;

/// The one spin-wait loop of every queue: a round is one back-off pause
/// behind the checker's spin mark. The stall, pause and DWCAS-retry counts
/// stay in registers and reach the observer every kFlushEvery rounds and
/// when the waiter goes out of scope: one RMW per wait, not per pause.
/// Every member is force-inlined and a round pauses a copy of the
/// back-off, so the waiter never lands in memory; when it did, publish()
/// and resolve_rank() stopped inlining under the counting observer, and
/// bench_telemetry_overhead's spmc pair ran ~5% slower.
template <typename Observer>
class waiter {
  using observer = ffq::observe::queue_observer<Observer>;

 public:
  [[gnu::always_inline]] explicit waiter(observer& obs) noexcept
      : obs_(obs) {}
  [[gnu::always_inline]] ~waiter() {
    obs_.on_full_stalls(stalls_);
    obs_.on_backoff_pauses(pauses_);
    obs_.on_dwcas_retries(retries_);
  }

  /// Wait for a producer mid-write, or for an empty queue to fill.
  [[gnu::always_inline]] void pause() noexcept {
    round<&observer::on_backoff_pauses>(pauses_);
  }

  /// Full-ring waits, one episode per cell a producer waits on:
  /// first_stall(rank) on every round, then stall(). first_stall is true,
  /// and leaves the episode's one trace instant, on its first round only;
  /// end_stall() closes the episode.
  [[gnu::always_inline]] bool first_stall(std::int64_t rank) noexcept {
    const bool first = !stalled_;
    if (first) obs_.on_full_stall(rank);
    stalled_ = true;
    return first;
  }
  [[gnu::always_inline]] void stall() noexcept {
    round<&observer::on_full_stalls>(stalls_);
  }
  [[gnu::always_inline]] void end_stall() noexcept { stalled_ = false; }

  /// One failed cmpxchg16b of `rank`'s cell: a trace instant now, a count
  /// when the waiter goes.
  [[gnu::always_inline]] void dwcas_retry(std::int64_t rank) noexcept {
    ++retries_;
    obs_.on_dwcas_retry(rank);
  }

 private:
  // Under the off observer, which drops every count, a round is the
  // back-off and the spin mark alone, as small as a hand-written wait.
  template <void (observer::*Add)(std::uint64_t) noexcept>
  [[gnu::always_inline]] void round(std::uint64_t& count) noexcept {
    if constexpr (Observer::kEnabled) {
      if (ffq::telemetry::flush_due(++count)) {
        (obs_.*Add)(count);
        count = 0;
      }
    }
    FFQ_CHECK_SPIN();
    ffq::runtime::yielding_backoff backoff = backoff_;
    backoff.pause();
    backoff_ = backoff;
  }

  observer& obs_;
  ffq::runtime::yielding_backoff backoff_;
  std::uint64_t stalls_ = 0, pauses_ = 0, retries_ = 0;
  bool stalled_ = false;
};

/// The shared FFQ ring. `Head` is std::atomic<std::int64_t> for the
/// multi-consumer queues (a fetch-and-add ticket dispenser) and a plain
/// std::int64_t for SPSC, whose head is consumer-private. Capacity must
/// be a power of two and must exceed the maximum number of in-flight
/// items (the paper's flow-control assumption) for enqueue to stay
/// wait-free.
template <typename Cell, typename Head, typename Layout, typename Observer>
class ring {
  using T = typename Cell::value_type;
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "cell publication cannot be rolled back after a throwing move");
  static constexpr bool kSharedHead = !std::is_same_v<Head, std::int64_t>;

 public:
  ring(const ring&) = delete;
  ring& operator=(const ring&) = delete;

  ~ring() {
    // Destroy any items that were enqueued but never consumed.
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      auto& c = cells_[i];
      if (c.rank().load(std::memory_order_relaxed) >= 0) {
        std::destroy_at(c.ptr());
      }
    }
  }

  /// Mark the queue closed at the current tail. Consumers whose ranks lie
  /// beyond the final tail stop waiting (dequeue returns false); items
  /// already enqueued are still drained. Must be called after every
  /// producer's last enqueue has returned (a producer may call it itself).
  void close() noexcept {
    closed_tail_.store(tail_->load(std::memory_order_acquire),
                       std::memory_order_release);
  }

  bool closed() const noexcept {
    return closed_tail_.load(std::memory_order_acquire) >= 0;
  }

  std::size_t capacity() const noexcept { return cap_.size(); }

  /// Racy size estimate (includes gap ranks); for monitoring only.
  std::int64_t approx_size() const noexcept {
    const auto t = tail_rank();
    const auto h = head_rank();
    return t > h ? t - h : 0;
  }

  /// Number of gap announcements the producers have made (0 under the
  /// off observer).
  std::uint64_t gaps_created() const noexcept { return obs_.gaps_created(); }

  /// Number of times consumers abandoned a skipped rank (0 under the off
  /// observer).
  std::uint64_t consumer_skips() const noexcept {
    return obs_.consumer_skips();
  }

  /// The queue's observer, read through its counters (all zero, and an
  /// export that visits nothing, under the off observer).
  const ffq::observe::queue_observer<Observer>& telemetry() const noexcept {
    return obs_;
  }

 private:
  /// Racy reads for approx_size(): the next rank a consumer will take
  /// and the next rank a producer will place.
  std::int64_t head_rank() const noexcept {
    if constexpr (kSharedHead) {
      return head_->load(std::memory_order_relaxed);
    } else {
      // The SPSC head is non-atomic; the cross-thread peek goes through
      // an atomic_ref (atomic_ref<const T> is C++26; this is load-only).
      return std::atomic_ref<std::int64_t>(const_cast<std::int64_t&>(*head_))
          .load(std::memory_order_relaxed);
    }
  }
  std::int64_t tail_rank() const noexcept {
    return tail_->load(std::memory_order_relaxed);
  }

 protected:
  ring(std::size_t capacity, const char* name)
      : cap_(capacity), cells_(capacity), obs_{name} {
    assert(capacity_info::valid(capacity) && "capacity must be a power of two >= 2");
  }

  Cell& cell_at(std::int64_t rank) noexcept {
    return cells_[cap_.template slot<Layout>(rank)];
  }

  /// Bulk-size histogram entry for one bulk dequeue (the observer drops
  /// an empty result).
  std::size_t counted_bulk(std::size_t n) noexcept {
    obs_.on_bulk(n);
    return n;
  }

  /// The multi-consumer bulk dequeue entry points: claim_run plus the
  /// histogram entry. Kept out of line: inlined into the consumer loop
  /// of the fanout_bulk workload, the run claim lowered its median item
  /// rate by 9% (18 alternating runs against the out-of-line claim,
  /// 4-vCPU Xeon/KVM, GCC 12).
  template <bool Blocking, typename OutIt>
  [[gnu::noinline]] std::size_t claim_bulk(OutIt out,
                                           std::size_t max_n) noexcept {
    return counted_bulk(claim_run<Blocking>(out, max_n));
  }

  /// Single-producer enqueue of `n` items from `first` (Alg. 1 lines
  /// 9–16). Every item gets its own release-store of `rank` — the
  /// publication consumers synchronize on — but `tail` is stored once
  /// per call (DESIGN.md §5.8). Wait-free while the ring has free cells;
  /// blocks only in the full-ring regime.
  template <typename It>
  void publish(It first, std::size_t n) noexcept {
    assert(closed_tail_.load(std::memory_order_relaxed) < 0 &&
           "enqueue after close()");
    std::uint64_t it0 = obs_.now();  // per-item begin timestamp
    std::int64_t t = tail_->load(std::memory_order_relaxed);
    std::size_t consecutive_skips = 0;
    waiter full(obs_);  // its stall count is flushed once per call
    for (std::size_t i = 0; i < n;) {
      FFQ_CHECK_YIELD();  // scheduling point: one cell-protocol round
      auto& c = cell_at(t);
      if (c.rank().load(std::memory_order_acquire) >= 0) {
        if (consecutive_skips >= cap_.size()) {
          // A whole sweep found no free cell: the paper's free-slot
          // assumption is violated (queue full). Announcing further gaps
          // would flood consumers with dead ranks they must fetch-add
          // through one by one, so wait here for *this* cell to drain
          // instead (footnote 2: "the producer would spin until a slot
          // becomes available"). Wait-freedom is already forfeit in this
          // regime.
          if (full.first_stall(t) && i > 0) {
            // The cell may hold an item of this very call. Consumers that
            // bound their claim by `tail` (try_dequeue, try_dequeue_bulk)
            // cannot take it before `tail` passes it, so publish `tail`
            // first; every rank below `t` is already decided.
            tail_->store(t, std::memory_order_release);
          }
          full.stall();
          continue;
        }
        // Cell still holds an unconsumed (or mid-dequeue) older item:
        // announce the skipped rank and move to the next one (Alg. 1
        // lines 13–14). The same cell may be skipped repeatedly; `gap`
        // then carries the latest skipped rank, which is all consumers
        // need ("gap ≥ rank").
        c.gap().store(t, std::memory_order_release);
        obs_.on_gap(t);
        ++t;
        ++consecutive_skips;
        continue;
      }
      const bool early = FFQ_CHECK_MUTANT(publish_before_data);
      if (early) {  // lines 16/17 swapped: the rank goes out first
        c.rank().store(t, std::memory_order_release);
        FFQ_CHECK_YIELD();
      }
      std::construct_at(c.ptr(), std::move(*first));
      FFQ_CHECK_YIELD();  // window between the data write and publication
      // Linearization point.
      if (!early) c.rank().store(t, std::memory_order_release);
      obs_.on_enqueue(it0, t);
      full.end_stall();
      consecutive_skips = 0;
      ++t;
      ++first;
      if (++i < n) it0 = obs_.now();
    }
    tail_->store(t, std::memory_order_release);
  }

  enum class rank_state { taken, skipped, pending };

  /// Algorithm 1 lines 18–30 for one rank, the consumer side of every
  /// queue. `taken`: the item went to `sink` and the cell is free again
  /// (its dequeue span began at `t0`). `skipped`: a gap covers `rank`.
  /// `pending`: not published yet, or an FFQ^m -2 reservation. The
  /// non-blocking form (SPSC's private-head scan) returns `pending` at
  /// once; the blocking one (the claims) backs off and looks again, and
  /// returns `pending` only for a rank at or past the closed tail.
  template <bool Blocking, typename Sink>
  rank_state resolve_rank(std::int64_t rank, std::uint64_t t0,
                          Sink&& sink) noexcept {
    auto& c = cell_at(rank);
    waiter wait(obs_);
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: one resolve round
      if (c.rank().load(std::memory_order_acquire) == rank) {
        // Exactly one consumer can observe its own rank here (ranks are
        // unique), so the cell is ours to read and recycle.
        sink(std::move(*c.ptr()));
        std::destroy_at(c.ptr());
        // Linearization point: the cell is free again.
        c.rank().store(kCellFree, std::memory_order_release);
        obs_.on_dequeue(t0, rank);
        return rank_state::taken;
      }
      // Skipped? gap ≥ rank alone does not say so: between our first
      // look and the gap load the producer may have *filled* the cell
      // for our rank and then, on a later lap, announced a gap for a
      // later rank here (paper's line-29 discussion). So the rank is
      // re-checked after the gap load. The two loads are distinct atomic
      // accesses, so the checker gets a scheduling point between them —
      // the exact window the argument is about.
      FFQ_CHECK_YIELD();  // line-29 window
      if (c.gap().load(std::memory_order_acquire) >= rank) {
        if (FFQ_CHECK_MUTANT(skip_line29_recheck) ||
            c.rank().load(std::memory_order_acquire) != rank) {
          obs_.on_skip(rank);
          return rank_state::skipped;
        }
        continue;  // re-check found our rank after all: take it next round
      }
      // Producer still writing (or queue empty).
      if constexpr (Blocking) {
        const std::int64_t closed = closed_tail_.load(std::memory_order_acquire);
        if (closed >= 0 && rank >= closed) return rank_state::pending;
        wait.pause();
      } else {
        return rank_state::pending;
      }
    }
  }

  /// Multi-consumer dequeue of up to `max_n` items into `out`: claim a
  /// run of ranks with a *single* atomic RMW of `head` and resolve each
  /// against its cell — the per-item atomic RMW that dominates dequeue
  /// cost (§III-A) is paid once per run. Gap ranks inside the run are
  /// dropped in place; a run of only gaps claims again.
  ///
  /// Blocking: returns ≥ 1 items, or 0 only once closed and drained. The
  /// claim is a fetch-and-add; a scalar one (max_n = 1) goes straight to
  /// it, a wider one is sized by the published tail, so it parks on at
  /// most one unproduced rank. Non-blocking: the claim is a
  /// compare-exchange of `head`, bounded by the tail read with it and
  /// retried when another consumer moved `head` first, so it never owns a
  /// rank past that tail; it returns 0 without claiming while tail ≤ head.
  /// (A fetch-and-add sized from a stale `tail - head` could overshoot the
  /// tail and then wait for ranks only close() settles.) Ranks below the
  /// tail are decided (item or gap) for FFQ^s; an FFQ^m rank below it can
  /// be mid-write, a wait the blocking claim performs too.
  ///
  /// Force-inlined so each entry point compiles to its own body,
  /// specialized for its max_n: scalar calls fold to one fetch-and-add
  /// and one resolve instead of sharing an out-of-line run loop.
  template <bool Blocking, typename OutIt>
  [[gnu::always_inline]] std::size_t claim_run(OutIt out,
                                               std::size_t max_n) noexcept {
    static_assert(kSharedHead, "claim_run draws ranks from a shared head");
    if (max_n == 0) return 0;
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: before the run claim
      std::int64_t k = 1;
      std::int64_t first;
      if constexpr (Blocking) {
        if (max_n > 1) {
          const std::int64_t avail = tail_->load(std::memory_order_acquire) -
                                     head_->load(std::memory_order_relaxed);
          k = std::clamp<std::int64_t>(avail, 1, static_cast<std::int64_t>(max_n));
          FFQ_CHECK_YIELD();  // window: a racing consumer may move head here
        }
        first = head_->fetch_add(k, std::memory_order_relaxed);
      } else {
        first = head_->load(std::memory_order_relaxed);
        do {
          const std::int64_t avail = tail_->load(std::memory_order_acquire) - first;
          if (avail <= 0) return 0;  // do not claim a rank
          k = std::min(avail, static_cast<std::int64_t>(max_n));
          FFQ_CHECK_YIELD();  // window: a racing consumer may move head here
        } while (!head_->compare_exchange_weak(first, first + k,
                                               std::memory_order_relaxed));
      }
      if (k > 1) obs_.on_rank_block_faa();
      std::size_t taken = 0;
      for (std::int64_t rank = first; rank < first + k; ++rank) {
        switch (resolve_rank<true>(rank, obs_.now(), [&](T&& v) {
          *out = std::move(v);
          ++out;
        })) {
          case rank_state::taken:
            ++taken;
            break;
          case rank_state::skipped:
            break;  // dropped in place: no fresh fetch-and-add
          case rank_state::pending:
            // Past the final tail. Ranks grow within the run, so the rest
            // are past it too.
            return taken;
        }
      }
      if (taken > 0) return taken;
    }
  }

  capacity_info cap_;
  ffq::runtime::aligned_array<Cell> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_{0};
  ffq::runtime::padded<Head> head_{0};
  std::atomic<std::int64_t> closed_tail_{-1};
  // Empty under the off observer: occupies no storage, so sizeof is
  // identical to the uninstrumented layout (static_asserts in
  // tests/test_check.cpp).
  [[no_unique_address]] ffq::observe::queue_observer<Observer> obs_;
};

}  // namespace ffq::core::detail
