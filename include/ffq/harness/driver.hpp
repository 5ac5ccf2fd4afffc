// driver.hpp — shared benchmark-driver utilities.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "ffq/harness/stats.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/barrier.hpp"
#include "ffq/runtime/timing.hpp"

namespace ffq::harness {

/// Measured mean cost (ns) of one think-time draw + calibrated spin for
/// the given bounds. Benches print it so readers can judge how much of
/// the per-op time is think time vs queue work.
double measure_think_overhead_ns(std::uint64_t min_ns, std::uint64_t max_ns,
                                 int samples = 20000);

/// True when the environment looks too small for a given thread count
/// (pure advisory; benches still run oversubscribed).
bool oversubscribed(int threads);

/// Call `once()` (one measured run, returning its rate) `runs` times and
/// summarize the samples.
template <typename Once>
run_stats sample(int runs, Once&& once) {
  std::vector<double> s;
  s.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) s.push_back(once());
  return summarize(std::move(s));
}

/// One producer thread streams the values 1..items to one consumer thread
/// through `q`: `enq(q, v)` and `deq(q, out)` return false when the queue
/// is full or empty, and each side then backs off until its next success.
/// `flush(q)` runs after the last enqueue, for queues that batch their
/// publication. Returns items per second over the threads' time window.
template <typename Q, typename Enq, typename Deq, typename Flush>
double stream_once(Q& q, std::uint64_t items, Enq enq, Deq deq, Flush flush) {
  ffq::runtime::spin_barrier barrier(3);
  ffq::runtime::time_window_recorder window(2);

  std::thread consumer([&] {
    barrier.arrive_and_wait();
    window.mark_start(0);
    std::uint64_t v, count = 0;
    ffq::runtime::yielding_backoff bo;
    while (count < items) {
      if (deq(q, v)) {
        ++count;
        bo.reset();
      } else {
        bo.pause();
      }
    }
    window.mark_end(0);
    barrier.arrive_and_wait();
  });
  std::thread producer([&] {
    barrier.arrive_and_wait();
    window.mark_start(1);
    ffq::runtime::yielding_backoff bo;
    for (std::uint64_t i = 1; i <= items;) {
      if (enq(q, i)) {
        ++i;
        bo.reset();
      } else {
        bo.pause();
      }
    }
    flush(q);
    window.mark_end(1);
    barrier.arrive_and_wait();
  });

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  consumer.join();
  producer.join();
  return static_cast<double>(items) / window.seconds();
}

}  // namespace ffq::harness
