// registry.hpp — the process-wide metrics registry.
//
// Two kinds of state flow in:
//   * latency recorders — named collections of per-thread
//     `log_histogram` shards. A worker calls `new_shard()` once
//     (mutex-guarded registration; shard storage is a deque so pointers
//     stay stable) and then records with zero synchronization; the
//     snapshot path merges shards with relaxed reads and never blocks a
//     writer.
//   * counter totals — `accumulate(domain, name, delta)` folds event
//     counts into named totals. Queues are typically *destroyed* before
//     a bench exports its report (harness::pairwise creates one queue
//     per run), so instead of holding queue pointers the harness folds
//     each queue's `queue_counters` into the registry right before the
//     queue dies (`accumulate_queue`), and the totals outlive it.
//
// `snapshot()` returns a metrics_snapshot (schema "ffq.metrics.v1");
// `reset()` clears everything between independent experiment phases.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "ffq/telemetry/histogram.hpp"
#include "ffq/telemetry/snapshot.hpp"

namespace ffq::telemetry {

/// A named latency series. Threads own shards; snapshots merge them.
class latency_recorder {
 public:
  /// Register and return a new single-writer shard for the calling
  /// thread. The pointer stays valid until registry::reset().
  log_histogram* new_shard();

  /// Merge all shards (relaxed reads; writers keep running).
  merged_histogram merge() const;

 private:
  friend class registry;
  mutable std::mutex mu_;
  std::deque<log_histogram> shards_;
};

class registry {
 public:
  static registry& instance();

  /// Get or create the latency recorder with this name.
  latency_recorder& recorder(std::string_view name);

  /// Fold `delta` into the counter total "<domain>/<name>".
  void accumulate(std::string_view domain, std::string_view name,
                  std::uint64_t delta);

  /// Fold every counter of a queue's telemetry block into
  /// "<domain>/<counter>" totals. Call right before the queue is
  /// destroyed; an off-observer block contributes nothing.
  template <typename Counters>
  void accumulate_queue(std::string_view domain, const Counters& c) {
    c.for_each([&](const char* name, std::uint64_t value) {
      if (value != 0) accumulate(domain, name, value);
    });
  }

  /// Attach one hardware perf-counter sample (runtime::perf_counters)
  /// to the next snapshot. Last write per name wins.
  void set_perf_sample(std::string_view name, std::uint64_t value);

  metrics_snapshot snapshot() const;

  /// Drop all recorders, counter totals, and perf samples. Outstanding
  /// shard pointers are invalidated — only call between phases when no
  /// worker threads are recording.
  void reset();

 private:
  registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, latency_recorder> recorders_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> perf_;
};

}  // namespace ffq::telemetry
