// counters.hpp — the queue event counter block of the observer policy.
//
// One uniform counter set for the whole FFQ family (DESIGN.md §8), so
// SPMC and MPMC — and every future variant — export the same names:
//
//   gaps_created     producer announced a gap rank (Alg. 1 l.13 / Alg. 2
//                    DWCAS gap install)
//   consumer_skips   consumer abandoned a skipped rank ("gap ≥ rank")
//   dwcas_retries    failed cmpxchg16b in the MPMC cell protocol (claim
//                    or gap install lost a race; 0 for SP variants)
//   rank_block_faas  block acquisitions in the bulk paths: one shared-
//                    counter fetch-and-add claiming a *run* of ranks
//   full_stalls      pauses spent in the full-ring regime (the paper's
//                    free-slot assumption violated; footnote 2)
//   backoff_pauses   consumer back-off pauses while a rank is undecided
//   parks / wakes    eventcount kernel parks and producer-side wake-ups
//                    (waitable wrapper only; 0 elsewhere)
//   bulk_calls/items + a log2 batch-size distribution for bulk ops
//
// This is the storage and the read side. The writes are the hooks of
// observe::queue_observer (observe/observer.hpp), which bumps these with
// relaxed fetch-adds: every counted event is on a miss/contention path,
// never on the uncontended enqueue/dequeue fast path, which is how the
// counting overhead stays <5% (bench_telemetry_overhead).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace ffq::telemetry {

/// Log2 buckets of the bulk batch-size distribution: 1, 2-3, 4-7, ...,
/// 128+.
inline constexpr std::size_t kBulkBucketCount = 8;

constexpr std::size_t bulk_bucket(std::size_t n) noexcept {
  const std::size_t lg =
      n == 0 ? 0 : static_cast<std::size_t>(std::bit_width(n) - 1);
  return lg < kBulkBucketCount ? lg : kBulkBucketCount - 1;
}

constexpr const char* bulk_bucket_name(std::size_t b) noexcept {
  constexpr const char* kNames[kBulkBucketCount] = {
      "bulk_batch_1",      "bulk_batch_2_3",    "bulk_batch_4_7",
      "bulk_batch_8_15",   "bulk_batch_16_31",  "bulk_batch_32_63",
      "bulk_batch_64_127", "bulk_batch_128_up"};
  return kNames[b];
}

/// Wait loops flush their locally-accumulated pause counts every this
/// many pauses (power of two), so a stuck wait is observable while it is
/// still in progress at one RMW per kFlushEvery pauses.
inline constexpr std::uint64_t kFlushEvery = 1024;

/// True when a local pause accumulator just crossed a flush boundary.
/// Usage: `++pauses; if (flush_due(pauses)) { obs_.on_x(pauses); pauses = 0; }`
constexpr bool flush_due(std::uint64_t accumulated) noexcept {
  return (accumulated & (kFlushEvery - 1)) == 0;
}

class queue_counters {
 public:
  std::uint64_t gaps_created() const noexcept { return get(gaps_created_); }
  std::uint64_t consumer_skips() const noexcept { return get(consumer_skips_); }
  std::uint64_t dwcas_retries() const noexcept { return get(dwcas_retries_); }
  std::uint64_t rank_block_faas() const noexcept { return get(rank_block_faas_); }
  std::uint64_t full_stalls() const noexcept { return get(full_stalls_); }
  std::uint64_t backoff_pauses() const noexcept { return get(backoff_pauses_); }
  std::uint64_t parks() const noexcept { return get(parks_); }
  std::uint64_t wakes() const noexcept { return get(wakes_); }
  std::uint64_t bulk_calls() const noexcept { return get(bulk_calls_); }
  std::uint64_t bulk_items() const noexcept { return get(bulk_items_); }
  std::uint64_t bulk_batches(std::size_t bucket) const noexcept {
    return get(bulk_hist_[bucket]);
  }

  /// Visit every counter as (name, value) — the export interface the
  /// registry and snapshots consume.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    fn("gaps_created", gaps_created());
    fn("consumer_skips", consumer_skips());
    fn("dwcas_retries", dwcas_retries());
    fn("rank_block_faas", rank_block_faas());
    fn("full_stalls", full_stalls());
    fn("backoff_pauses", backoff_pauses());
    fn("parks", parks());
    fn("wakes", wakes());
    fn("bulk_calls", bulk_calls());
    fn("bulk_items", bulk_items());
    for (std::size_t b = 0; b < kBulkBucketCount; ++b) {
      fn(bulk_bucket_name(b), bulk_batches(b));
    }
  }

 protected:
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.fetch_add(1, std::memory_order_relaxed);
  }
  /// Batched form for spin loops: the loop accumulates in a register and
  /// flushes once per episode — one RMW per *wait*, not one per pause.
  /// `n == 0` (the common no-wait case) is free.
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    if (n != 0) c.fetch_add(n, std::memory_order_relaxed);
  }
  static std::uint64_t get(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> gaps_created_{0};
  std::atomic<std::uint64_t> consumer_skips_{0};
  std::atomic<std::uint64_t> dwcas_retries_{0};
  std::atomic<std::uint64_t> rank_block_faas_{0};
  std::atomic<std::uint64_t> full_stalls_{0};
  std::atomic<std::uint64_t> backoff_pauses_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakes_{0};
  std::atomic<std::uint64_t> bulk_calls_{0};
  std::atomic<std::uint64_t> bulk_items_{0};
  std::atomic<std::uint64_t> bulk_hist_[kBulkBucketCount] = {};
};

}  // namespace ffq::telemetry
