// bench_shard_scaling — producer-scaling ablation for the shard fabric
// (DESIGN.md §11, not a paper figure).
//
// FFQ^m pays a DWCAS per enqueue and every producer contends on the one
// shared tail (paper §III-B). The shard fabric gives each producer its
// own FFQ^s ring — enqueue is the wait-free Algorithm-1 path, and the
// only cross-producer sharing left is the consumers' shard scheduler.
// This bench sweeps producer count with the consumer side held fixed
// and plots both designs over the *same total cell footprint*
// (shard_capacity = capacity / producers), so the comparison isolates
// the enqueue-side contention model rather than memory budget.
//
// Expectation (the acceptance criterion CHANGES.md tracks): the fabric
// meets or beats ffq-mpmc at 4+ producers. At producers = 1 the fabric
// is a thin wrapper over one FFQ^s, so it bounds the scheduler's
// overhead.
//
// Output: standard table/CSV plus the JSON report (--json) committed as
// BENCH_shard_scaling.json, the repo's perf-trajectory baseline.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/driver.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/barrier.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/shard/shard.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

constexpr std::size_t kConsumers = 2;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kCapacity = 1 << 16;

/// One producers→consumers run over ffq-mpmc. All producers share the
/// queue's DWCAS tail; consumers drain through dequeue_bulk. Returns
/// items/second over the union of thread windows.
double run_mpmc_once(std::size_t producers, std::uint64_t items) {
  core::mpmc_queue<std::uint64_t, core::layout_aligned> q(kCapacity);
  const std::size_t total_threads = producers + kConsumers;
  ffq::runtime::spin_barrier barrier(total_threads + 1);
  ffq::runtime::time_window_recorder window(total_threads);
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::size_t> live_producers{producers};
  const std::uint64_t share = items / producers;

  std::vector<std::thread> threads;
  threads.reserve(total_threads);
  for (std::size_t ci = 0; ci < kConsumers; ++ci) {
    threads.emplace_back([&, ci] {
      barrier.arrive_and_wait();
      window.mark_start(ci);
      std::vector<std::uint64_t> buf(kBatch);
      std::uint64_t count = 0;
      std::size_t n;
      while ((n = q.dequeue_bulk(buf.data(), kBatch)) > 0) count += n;
      window.mark_end(ci);
      drained.fetch_add(count, std::memory_order_relaxed);
      barrier.arrive_and_wait();
    });
  }
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t slot = kConsumers + p;
      barrier.arrive_and_wait();
      window.mark_start(slot);
      // Implicit flow control: stay under half the ring so producers
      // never reach the gap-flood / full-ring regime (same discipline
      // as bench_batch_ops).
      const std::int64_t high_water =
          static_cast<std::int64_t>(kCapacity) / 2;
      ffq::runtime::yielding_backoff idle;
      for (std::uint64_t i = 0; i < share;) {
        if (q.approx_size() > high_water) {
          idle.pause();
          continue;
        }
        idle.reset();
        q.enqueue(p * share + i);
        ++i;
      }
      if (live_producers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        q.close();
      }
      window.mark_end(slot);
      barrier.arrive_and_wait();
    });
  }

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  const std::uint64_t expect = share * producers;
  assert(drained.load() == expect && "conservation");
  (void)drained;
  return static_cast<double>(expect) / window.seconds();
}

/// One producers→consumers run over the shard fabric. Each producer
/// flow-controls against its *own* shard (the only ring its enqueues
/// can fill); consumers drain through the scheduler's bulk path.
double run_fabric_once(std::size_t producers, std::uint64_t items) {
  const std::size_t shard_cap =
      std::max<std::size_t>(kCapacity / producers, 1024);
  shard::fabric<std::uint64_t> fab(producers, shard_cap);
  const std::size_t total_threads = producers + kConsumers;
  ffq::runtime::spin_barrier barrier(total_threads + 1);
  ffq::runtime::time_window_recorder window(total_threads);
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::size_t> live_producers{producers};
  const std::uint64_t share = items / producers;

  std::vector<std::thread> threads;
  threads.reserve(total_threads);
  for (std::size_t ci = 0; ci < kConsumers; ++ci) {
    threads.emplace_back([&, ci] {
      barrier.arrive_and_wait();
      window.mark_start(ci);
      auto c = fab.consumer();
      std::vector<std::uint64_t> buf(kBatch);
      std::uint64_t count = 0;
      std::size_t n;
      while ((n = c.dequeue_bulk(buf.data(), kBatch)) > 0) count += n;
      window.mark_end(ci);
      drained.fetch_add(count, std::memory_order_relaxed);
      barrier.arrive_and_wait();
    });
  }
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t slot = kConsumers + p;
      barrier.arrive_and_wait();
      window.mark_start(slot);
      auto prod = fab.producer(p);
      const std::int64_t high_water =
          static_cast<std::int64_t>(shard_cap) / 2;
      ffq::runtime::yielding_backoff idle;
      for (std::uint64_t i = 0; i < share;) {
        if (fab.shard(p).approx_size() > high_water) {
          idle.pause();
          continue;
        }
        idle.reset();
        prod.enqueue(p * share + i);
        ++i;
      }
      if (live_producers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        fab.close();
      }
      window.mark_end(slot);
      barrier.arrive_and_wait();
    });
  }

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  const std::uint64_t expect = share * producers;
  assert(drained.load() == expect && "conservation");
  (void)drained;
  return static_cast<double>(expect) / window.seconds();
}

void add_row(table& t, const char* queue, std::size_t producers,
             const run_stats& s) {
  t.add_row({queue, std::to_string(producers), std::to_string(kConsumers),
             fixed(s.mean, 0), fixed(s.stddev, 0),
             oversubscribed(static_cast<int>(producers + kConsumers)) ? "yes"
                                                                      : "no"});
  std::printf("done: %-18s producers=%zu consumers=%zu  %s items/s\n", queue,
              producers, kConsumers, human_rate(s.mean).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_cli::parse(argc, argv);
  print_experiment_header(
      "shard_scaling — fabric vs FFQ^m at producer scale",
      "Producers→2-consumer fan-in; ffq-mpmc shares one DWCAS tail while "
      "the fabric gives each producer a private FFQ^s shard over the same "
      "total cell footprint (shard_capacity = capacity / producers).");

  std::uint64_t items = static_cast<std::uint64_t>(1'000'000 * cli.scale);
  if (items < 10000) items = 10000;
  const std::vector<std::size_t> producer_counts = {1, 2, 4, 8};

  table t({"queue", "producers", "consumers", "items_per_sec", "stddev",
           "oversubscribed"});

  std::vector<double> mpmc_mean(producer_counts.size());
  std::vector<double> fabric_mean(producer_counts.size());
  for (std::size_t i = 0; i < producer_counts.size(); ++i) {
    const std::size_t producers = producer_counts[i];
    auto s = sample(cli.runs, [&] { return run_mpmc_once(producers, items); });
    mpmc_mean[i] = s.mean;
    add_row(t, "ffq-mpmc", producers, s);

    s = sample(cli.runs, [&] { return run_fabric_once(producers, items); });
    fabric_mean[i] = s.mean;
    add_row(t, "ffq-shard", producers, s);
  }

  std::printf("\n%s", t.str().c_str());
  if (!cli.csv_path.empty() && t.write_csv(cli.csv_path)) {
    std::printf("csv written to %s\n", cli.csv_path.c_str());
  }
  if (!cli.json_path.empty() && t.write_json(cli.json_path, "shard_scaling")) {
    std::printf("json written to %s\n", cli.json_path.c_str());
  }

  std::printf("\nfabric / ffq-mpmc throughput ratio:\n");
  for (std::size_t i = 0; i < producer_counts.size(); ++i) {
    std::printf("  producers=%zu  %.2fx\n", producer_counts[i],
                fabric_mean[i] / mpmc_mean[i]);
  }
  std::printf(
      "\nexpectation: ffq-shard >= ffq-mpmc at 4+ producers (each enqueue "
      "is the wait-free Algorithm-1 path on a private ring instead of a "
      "contended DWCAS).\n");
  write_trace_if_requested(cli);
  return 0;
}
