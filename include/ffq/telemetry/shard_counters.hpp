// shard_counters.hpp — the shard fabric's scheduler counters
// (DESIGN.md §11).
//
// The fabric's per-shard queues already carry the full queue_counters set
// (gaps, skips, stalls, ...); this block counts what the *scheduler* on
// top of them does:
//
//   steals        consumer left its round-robin cursor for the busiest
//                 other shard after its current shard ran dry
//   empty_polls   shard visits that yielded nothing
//   empty_sweeps  polls in which no shard (current or steal target) had
//                 anything claimable — the consumer went away empty
//   drains        drain calls that returned ≥ 1 item
//   drained_items total items handed out by the scheduler
//   drain_batch_* log2 histogram of drain batch sizes (same buckets as
//                 the queues' bulk histogram)
//
// Same contract as queue_counters: storage and read side here, relaxed
// fetch-adds on miss/decision paths from observe::fabric_observer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "ffq/telemetry/counters.hpp"

namespace ffq::telemetry {

class fabric_counters {
 public:
  std::uint64_t steals() const noexcept { return get(steals_); }
  std::uint64_t empty_polls() const noexcept { return get(empty_polls_); }
  std::uint64_t empty_sweeps() const noexcept { return get(empty_sweeps_); }
  std::uint64_t drains() const noexcept { return get(drains_); }
  std::uint64_t drained_items() const noexcept { return get(drained_items_); }
  std::uint64_t drain_batches(std::size_t bucket) const noexcept {
    return get(drain_hist_[bucket]);
  }

  /// Visit every counter as (name, value) — the interface
  /// registry::accumulate_queue consumes.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    fn("steals", steals());
    fn("empty_polls", empty_polls());
    fn("empty_sweeps", empty_sweeps());
    fn("drains", drains());
    fn("drained_items", drained_items());
    for (std::size_t b = 0; b < kBulkBucketCount; ++b) {
      fn(drain_bucket_name(b), drain_batches(b));
    }
  }

  static constexpr const char* drain_bucket_name(std::size_t b) noexcept {
    constexpr const char* kNames[kBulkBucketCount] = {
        "drain_batch_1",      "drain_batch_2_3",    "drain_batch_4_7",
        "drain_batch_8_15",   "drain_batch_16_31",  "drain_batch_32_63",
        "drain_batch_64_127", "drain_batch_128_up"};
    return kNames[b];
  }

 protected:
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.fetch_add(1, std::memory_order_relaxed);
  }
  static std::uint64_t get(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> empty_polls_{0};
  std::atomic<std::uint64_t> empty_sweeps_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> drained_items_{0};
  std::atomic<std::uint64_t> drain_hist_[kBulkBucketCount] = {};
};

}  // namespace ffq::telemetry
