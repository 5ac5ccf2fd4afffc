// observer.hpp — the one compile-time instrumentation policy of the FFQ
// stack (DESIGN.md §8).
//
// Every queue and the shard fabric take a single `Observer` template
// parameter, one of three levels:
//   off       nothing: the observer is an empty class whose hooks are
//             no-op inlines, held through [[no_unique_address]], so
//             sizeof, alignment and codegen equal the uninstrumented
//             queue (mirror static_asserts in tests/test_check.cpp and
//             tests/test_shard.cpp);
//   counters  relaxed event counters (telemetry/counters.hpp,
//             shard_counters.hpp) on the miss/contention paths only;
//   trace     the counters plus one trace record per operation and per
//             miss event (trace/tracer.hpp), for Perfetto export and
//             the offline validator.
// Each event site in the queues makes exactly one observer call; the
// observer fans it out to whichever sinks its level compiles in. The
// CMake cache variable FFQ_OBSERVE=OFF|COUNTERS|TRACE only selects what
// `default_observer` aliases (through the FFQ_TELEMETRY / FFQ_TRACE
// macros); tests, tools and benches that name a level explicitly work in
// every build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ffq/telemetry/counters.hpp"
#include "ffq/telemetry/shard_counters.hpp"
#include "ffq/trace/tracer.hpp"

namespace ffq::observe {

/// Policy tag: all instrumentation compiles to nothing.
struct off {
  static constexpr bool kEnabled = false;
  static constexpr bool kTrace = false;
};

/// Policy tag: event counters.
struct counters {
  static constexpr bool kEnabled = true;
  static constexpr bool kTrace = false;
};

/// Policy tag: event counters plus trace records.
struct trace {
  static constexpr bool kEnabled = true;
  static constexpr bool kTrace = true;
};

#if defined(FFQ_TRACE) && FFQ_TRACE
using default_observer = trace;
#elif defined(FFQ_TELEMETRY) && FFQ_TELEMETRY
using default_observer = counters;
#else
using default_observer = off;
#endif

namespace detail {
/// The trace sink of a counting observer: the registry-backed emitter
/// under `trace`, nothing (and no storage) under `counters`.
struct untraced {
  explicit untraced(const char*) noexcept {}
};
template <typename Policy>
using tracer_t =
    std::conditional_t<Policy::kTrace, ffq::trace::queue_tracer, untraced>;
}  // namespace detail

/// The per-queue observer: one hook per event of the cell protocol.
/// Rank arguments feed the trace records; `now()` is the begin timestamp
/// of an operation span (0 unless tracing).
template <typename Policy = default_observer>
class queue_observer : public ffq::telemetry::queue_counters {
  using event_type = ffq::trace::event_type;

 public:
  explicit queue_observer(const char* kind) : trc_(kind) {}

  static std::uint64_t now() noexcept {
    if constexpr (Policy::kTrace) {
      return ffq::trace::queue_tracer::now();
    } else {
      return 0;
    }
  }

  void on_enqueue(std::uint64_t t0, std::int64_t rank) noexcept {
    if constexpr (Policy::kTrace) trc_.span(event_type::enqueue, t0, rank);
  }
  void on_dequeue(std::uint64_t t0, std::int64_t rank) noexcept {
    if constexpr (Policy::kTrace) trc_.span(event_type::dequeue, t0, rank);
  }
  void on_gap(std::int64_t rank) noexcept {
    bump(gaps_created_);
    instant(event_type::gap_created, rank);
  }
  void on_skip(std::int64_t rank) noexcept {
    bump(consumer_skips_);
    instant(event_type::consumer_skip, rank);
  }
  /// One failed cmpxchg16b: a trace instant. The count is batched by the
  /// wait loop and arrives through on_dwcas_retries.
  void on_dwcas_retry(std::int64_t rank) noexcept {
    instant(event_type::dwcas_retry, rank);
  }
  /// A full-ring wait episode began: one trace instant per episode (not
  /// per pause); its length shows as the gap to the next enqueue record.
  void on_full_stall(std::int64_t rank) noexcept {
    instant(event_type::full_stall, rank);
  }
  // Batched counts from the wait loops (see flush_due).
  void on_full_stalls(std::uint64_t n) noexcept { add(full_stalls_, n); }
  void on_dwcas_retries(std::uint64_t n) noexcept { add(dwcas_retries_, n); }
  void on_backoff_pauses(std::uint64_t n) noexcept { add(backoff_pauses_, n); }
  void on_rank_block_faa() noexcept { bump(rank_block_faas_); }
  /// One bulk call of `n` items; an empty call is not a batch.
  void on_bulk(std::size_t n) noexcept {
    if (n == 0) return;
    bump(bulk_calls_);
    bulk_items_.fetch_add(n, std::memory_order_relaxed);
    bump(bulk_hist_[ffq::telemetry::bulk_bucket(n)]);
  }
  void on_park() noexcept {
    bump(parks_);
    instant(event_type::park, 0);
  }
  void on_wake() noexcept {
    bump(wakes_);
    instant(event_type::wake, 0);
  }

 private:
  void instant(event_type t, std::int64_t arg) noexcept {
    if constexpr (Policy::kTrace) trc_.instant(t, arg);
  }

  [[no_unique_address]] detail::tracer_t<Policy> trc_;
};

template <>
class queue_observer<off> {
 public:
  explicit queue_observer(const char*) noexcept {}

  static constexpr std::uint64_t now() noexcept { return 0; }
  void on_enqueue(std::uint64_t, std::int64_t) noexcept {}
  void on_dequeue(std::uint64_t, std::int64_t) noexcept {}
  void on_gap(std::int64_t) noexcept {}
  void on_skip(std::int64_t) noexcept {}
  void on_dwcas_retry(std::int64_t) noexcept {}
  void on_full_stall(std::int64_t) noexcept {}
  void on_full_stalls(std::uint64_t) noexcept {}
  void on_dwcas_retries(std::uint64_t) noexcept {}
  void on_backoff_pauses(std::uint64_t) noexcept {}
  void on_rank_block_faa() noexcept {}
  void on_bulk(std::size_t) noexcept {}
  void on_park() noexcept {}
  void on_wake() noexcept {}

  // The counter read side, all zero, and an export that visits nothing.
  std::uint64_t gaps_created() const noexcept { return 0; }
  std::uint64_t consumer_skips() const noexcept { return 0; }
  std::uint64_t dwcas_retries() const noexcept { return 0; }
  std::uint64_t rank_block_faas() const noexcept { return 0; }
  std::uint64_t full_stalls() const noexcept { return 0; }
  std::uint64_t backoff_pauses() const noexcept { return 0; }
  std::uint64_t parks() const noexcept { return 0; }
  std::uint64_t wakes() const noexcept { return 0; }
  std::uint64_t bulk_calls() const noexcept { return 0; }
  std::uint64_t bulk_items() const noexcept { return 0; }
  std::uint64_t bulk_batches(std::size_t) const noexcept { return 0; }
  template <typename Fn>
  void for_each(Fn&&) const noexcept {}
};

static_assert(std::is_empty_v<queue_observer<off>>,
              "the off observer must add no storage to queues");

/// The shard fabric's scheduler observer (DESIGN.md §11).
template <typename Policy = default_observer>
class fabric_observer : public ffq::telemetry::fabric_counters {
  using event_type = ffq::trace::event_type;

 public:
  explicit fabric_observer(const char* kind) : trc_(kind) {}

  /// The consumer jumped its cursor to the busiest shard.
  void on_steal(std::size_t shard) noexcept {
    bump(steals_);
    if constexpr (Policy::kTrace) {
      trc_.instant(event_type::shard_steal, static_cast<std::int64_t>(shard));
    }
  }
  void on_empty_poll() noexcept { bump(empty_polls_); }
  /// A poll found every shard dry.
  void on_empty_sweep() noexcept {
    bump(empty_sweeps_);
    if constexpr (Policy::kTrace) trc_.instant(event_type::empty_sweep, 0);
  }
  void on_drain(std::size_t n) noexcept {
    bump(drains_);
    drained_items_.fetch_add(n, std::memory_order_relaxed);
    bump(drain_hist_[ffq::telemetry::bulk_bucket(n)]);
  }

 private:
  [[no_unique_address]] detail::tracer_t<Policy> trc_;
};

template <>
class fabric_observer<off> {
 public:
  explicit fabric_observer(const char*) noexcept {}

  void on_steal(std::size_t) noexcept {}
  void on_empty_poll() noexcept {}
  void on_empty_sweep() noexcept {}
  void on_drain(std::size_t) noexcept {}

  std::uint64_t steals() const noexcept { return 0; }
  std::uint64_t empty_polls() const noexcept { return 0; }
  std::uint64_t empty_sweeps() const noexcept { return 0; }
  std::uint64_t drains() const noexcept { return 0; }
  std::uint64_t drained_items() const noexcept { return 0; }
  std::uint64_t drain_batches(std::size_t) const noexcept { return 0; }
  template <typename Fn>
  void for_each(Fn&&) const noexcept {}
};

static_assert(std::is_empty_v<fabric_observer<off>>,
              "the off observer must add no storage to the fabric");

}  // namespace ffq::observe
