// shard.hpp — ffq::shard::fabric: a multi-producer queue fabric composed
// of single-producer FFQ^s shards (DESIGN.md §11).
//
// FFQ^m buys multi-producer generality with a double-word CAS on every
// enqueue (paper §III-B) and loses dequeue lock-freedom to stalled
// producer reservations. The standard escape hatch — Jiffy's
// producer-private buffer lists, FastFlow's SPSC composition — is to give
// every producer its *own* cheap queue and move the multiplexing to the
// consumer side. The fabric does exactly that with the paper's own fast
// path:
//
//   * producer p owns shard p, a plain FFQ^s (spmc_queue): enqueue is the
//     paper's wait-free Algorithm 1 path — no DWCAS, no producer-producer
//     cache-line contention, no -2 reservation a consumer can park behind;
//   * consumers run a shard scheduler: round-robin over shards in turns
//     of up to two visits of at most kDrainQuota items, draining through
//     the bulk dequeue path (one head fetch-and-add claims a whole run),
//     plus a steal pass — when the cursor's shard runs dry the consumer
//     jumps to the busiest shard (by approx_size) instead of blindly
//     walking the ring;
//   * shards pack their cells (layout_compact, the FFQ^s default): a
//     shard has one producer and is drained in runs, so neighbouring
//     cells belong to the same claim (DESIGN.md §6 "Cell layout").
//
// Ordering contract: per-producer FIFO for every consumer stream — each
// shard is FIFO per producer and the scheduler never reorders within a
// shard — and no cross-producer promise. With one producer the fabric is
// one shard, an exact FIFO. Consumers that need one order across
// producers use FFQ^m (mpmc_queue) instead. A consumer handle holds no
// item between calls, so dropping a handle loses nothing.
//
// Instrumentation is the queues' observer policy: the scheduler observer
// (fabric_observer: steals / empty polls / drain batches as counters,
// shard_steal / empty_sweep as trace instants) sits on top of every
// shard's own queue_observer, and FFQ_CHECK_YIELD points in the scheduler
// let the deterministic checker interleave scheduling decisions (the
// delay-bounded DFS runs this scheduler itself). Under the off observer
// the layout is byte-identical to the uninstrumented fabric (mirror
// static_asserts in tests/test_shard.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/observe/observer.hpp"
#include "ffq/runtime/cacheline.hpp"

namespace ffq::shard {

/// The sharded SPMC fabric: one FFQ^s shard per producer. Layout and
/// Observer forward to every shard (layout policy per shard, as in the
/// scalar queues); shards pack their cells unless told otherwise (see the
/// header comment).
template <typename T, typename Layout = ffq::core::layout_compact,
          typename Observer = ffq::observe::default_observer>
class fabric {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "cell publication cannot be rolled back after a throwing move");

 public:
  using value_type = T;
  using layout_type = Layout;
  using observer_type = Observer;
  using shard_type = ffq::core::spmc_queue<T, Layout, Observer>;
  static constexpr const char* kName = "ffq-shard";

  /// `producers` shards of `shard_capacity` cells each (power of two;
  /// same flow-control assumption per shard as spmc_queue).
  fabric(std::size_t producers, std::size_t shard_capacity)
      : shard_capacity_(shard_capacity) {
    assert(producers >= 1 && "a fabric needs at least one producer shard");
    shards_.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      shards_.push_back(std::make_unique<shard_type>(shard_capacity));
    }
  }

  fabric(const fabric&) = delete;
  fabric& operator=(const fabric&) = delete;

  // --- producer side ------------------------------------------------------

  /// Exclusive endpoint for producer `p`'s shard: exactly one thread may
  /// use a given producer index at a time (the shard is single-producer).
  class producer_handle {
   public:
    void enqueue(T value) noexcept { shard_->enqueue(std::move(value)); }

    template <typename It>
    void enqueue_bulk(It first, std::size_t n) noexcept {
      shard_->enqueue_bulk(first, n);
    }

   private:
    friend class fabric;
    explicit producer_handle(shard_type* shard) noexcept : shard_(shard) {}

    shard_type* shard_;
  };

  producer_handle producer(std::size_t p) noexcept {
    assert(p < shards_.size());
    return producer_handle(shards_[p].get());
  }

  // --- consumer side ------------------------------------------------------

  /// A consumer's scheduler state: the round-robin cursor and its turn.
  /// One handle per consumer thread; handles are independent and any
  /// number may run concurrently. The handle fills its own cache line:
  /// its owner writes the turn on almost every drain, so whatever a caller
  /// stores next to it (producer handles, the fabric) must not share that
  /// line.
  class alignas(ffq::runtime::kCacheLineSize) consumer_handle {
   public:
    /// Non-blocking single dequeue: a quota-1 drain through the scheduler.
    bool try_dequeue(T& out) noexcept {
      return try_dequeue_bulk(&out, 1) == 1;
    }

    /// Non-blocking bulk dequeue of up to min(max_n, kDrainQuota) items.
    template <typename OutIt>
    std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
      if (max_n == 0) return 0;
      return drain(out, max_n);
    }

    /// Blocking dequeue: a blocking bulk dequeue of one item.
    bool dequeue(T& out) noexcept { return dequeue_bulk(&out, 1) == 1; }

    /// Blocking bulk dequeue: ≥ 1 items, or 0 only once closed and
    /// drained (mirrors the scalar queues' dequeue_bulk contract). Waits
    /// with the queues' one wait loop; the fabric counts no pauses, so
    /// it reports to an off observer.
    template <typename OutIt>
    std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
      if (max_n == 0) return 0;
      ffq::observe::queue_observer<ffq::observe::off> uncounted{kName};
      ffq::core::detail::waiter wait(uncounted);
      for (;;) {
        const std::size_t n = try_dequeue_bulk(out, max_n);
        if (n > 0) return n;
        // Items may have been published between the failed try and the
        // close observation: one more sweep decides.
        if (fab_->closed()) return try_dequeue_bulk(out, max_n);
        wait.pause();
      }
    }

   private:
    friend class fabric;
    explicit consumer_handle(fabric* fab) noexcept
        : fab_(fab),
          cursor_(fab->next_consumer_.fetch_add(1, std::memory_order_relaxed) %
                  fab->shards_.size()) {}

    /// The scheduler: visit the cursor's shard (quota-capped bulk claim);
    /// the shard's turn ends after kTurnVisits full visits, or at once
    /// when a visit under-fills, so a shard its producer keeps full cannot
    /// hold the consumer. When the cursor's shard is dry, steal from the
    /// busiest shard, which then gets one more visit.
    template <typename OutIt>
    std::size_t drain(OutIt out, std::size_t max_n) noexcept {
      const std::size_t want = std::min(max_n, kDrainQuota);
      const std::size_t nshards = fab_->shards_.size();
      FFQ_CHECK_YIELD();  // scheduling point: the cursor visit
      std::size_t n = fab_->shard(cursor_).try_dequeue_bulk(out, want);
      if (n > 0) {
        if (n < want || ++turn_ == kTurnVisits) advance();
        fab_->obs_.on_drain(n);
        return n;
      }
      fab_->obs_.on_empty_poll();
      // Steal pass: jump to the busiest shard instead of walking the ring
      // one empty shard at a time.
      std::size_t best = cursor_;
      std::int64_t best_size = 0;
      for (std::size_t i = 1; i < nshards; ++i) {
        const std::size_t s = step_from(cursor_, i, nshards);
        FFQ_CHECK_YIELD();  // scheduling point: one steal-scan probe
        const std::int64_t sz = fab_->shard(s).approx_size();
        if (sz > best_size) {
          best_size = sz;
          best = s;
        }
      }
      if (best_size > 0) {
        FFQ_CHECK_YIELD();  // window: the target may drain before we claim
        n = fab_->shard(best).try_dequeue_bulk(out, want);
        if (n > 0) {
          cursor_ = best;  // this visit opens the stolen shard's turn
          turn_ = 1;
          fab_->obs_.on_steal(best);
          fab_->obs_.on_drain(n);
          return n;
        }
        fab_->obs_.on_empty_poll();
      }
      advance();
      fab_->obs_.on_empty_sweep();
      return 0;
    }

    void advance() noexcept {
      cursor_ = step_from(cursor_, 1, fab_->shards_.size());
      turn_ = 0;
    }
    static std::size_t step_from(std::size_t s, std::size_t by,
                                 std::size_t n) noexcept {
      return (s + by) % n;
    }

    /// Max items per visit: the scheduler's fairness/locality trade-off,
    /// and the cap on a steal's bite.
    static constexpr std::size_t kDrainQuota = 64;
    /// Full visits per shard turn. Any bound ends starvation; one visit
    /// per turn (strict alternation) ran about 20% slower than two on
    /// the fanin_shard benchmark (DESIGN.md §11).
    static constexpr std::size_t kTurnVisits = 2;

    fabric* fab_;
    std::size_t cursor_;
    std::size_t turn_ = 0;  ///< full visits so far in the cursor's turn
  };

  /// New consumer endpoint; start cursors rotate so concurrent consumers
  /// spread over shards instead of convoying on shard 0.
  consumer_handle consumer() noexcept { return consumer_handle(this); }

  // --- lifecycle / introspection ------------------------------------------

  /// Close every shard at its current tail. Same precondition as the
  /// scalar queues: every producer's last enqueue has returned.
  void close() noexcept {
    closed_.store(true, std::memory_order_release);
    for (auto& s : shards_) s->close();
  }

  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  std::size_t shards() const noexcept { return shards_.size(); }
  std::size_t shard_capacity() const noexcept { return shard_capacity_; }

  shard_type& shard(std::size_t s) noexcept { return *shards_[s]; }
  const shard_type& shard(std::size_t s) const noexcept { return *shards_[s]; }

  /// Racy size estimate across all shards (monitoring only).
  std::int64_t approx_size() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : shards_) total += s->approx_size();
    return total;
  }

  /// The scheduler's observer, read through its counters (all zero under
  /// the off observer).
  const ffq::observe::fabric_observer<Observer>& telemetry() const noexcept {
    return obs_;
  }

 private:
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<shard_type>> shards_;
  std::atomic<std::uint64_t> next_consumer_{0};
  std::atomic<bool> closed_{false};
  // Scheduler observer: empty under the off observer (mirror
  // static_asserts in tests/test_shard.cpp).
  [[no_unique_address]] ffq::observe::fabric_observer<Observer> obs_{kName};
};

}  // namespace ffq::shard
