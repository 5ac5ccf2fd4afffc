// bench_batch_ops — batched bulk operations ablation (DESIGN.md §5.8,
// not a paper figure).
//
// FFQ's dequeue cost is dominated by the per-item fetch-and-increment on
// the shared head (§III-A — the very operation the SPSC specialization
// removes). dequeue_bulk claims a *run* of ranks with one fetch-and-add
// and enqueue_bulk publishes tail once per batch, so the coherence
// traffic on the control lines drops by the batch factor — the same
// amortization MCRingBuffer and BatchQueue apply to their SPSC control
// variables (Torquati; Preud'homme et al.).
//
// Sweep: batch size {1, 4, 16, 64} × consumers {1, 2, 4, 8} on a
// producer→consumers fan-out of 64-bit integers. batch = 1 runs the
// scalar enqueue()/dequeue() paths, so each row's speedup against the
// batch-1 row of the same consumer count is the direct amortization win.
// MCRingBuffer (control-update batching) and BatchQueue (half-buffer
// publication) run as single-consumer reference lines.
//
// Output: the standard table/CSV plus the JSON report (--json) consumed
// by BENCH_batch_ops.json, the repo's perf-trajectory baseline.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ffq/baselines/spsc/batchqueue.hpp"
#include "ffq/baselines/spsc/mcringbuffer.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/harness/driver.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/barrier.hpp"
#include "ffq/runtime/timing.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

/// One fan-out run over an FFQ-family queue: a producer streams `items`
/// integers, `consumers` threads drain them; batch > 1 uses the bulk
/// APIs on both sides. Returns items/second.
template <typename Queue>
double run_ffq_fanout_once(std::size_t consumers, std::size_t batch,
                           std::uint64_t items, std::size_t capacity) {
  Queue q(capacity);
  const std::size_t total_threads = consumers + 1;
  ffq::runtime::spin_barrier barrier(total_threads + 1);
  ffq::runtime::time_window_recorder window(total_threads);
  std::atomic<std::uint64_t> drained{0};

  std::vector<std::thread> threads;
  threads.reserve(total_threads);
  for (std::size_t ci = 0; ci < consumers; ++ci) {
    threads.emplace_back([&, ci] {
      barrier.arrive_and_wait();
      window.mark_start(ci);
      std::uint64_t count = 0;
      if (batch <= 1) {
        std::uint64_t v;
        while (q.dequeue(v)) ++count;
      } else {
        std::vector<std::uint64_t> buf(batch);
        std::size_t n;
        while ((n = q.dequeue_bulk(buf.data(), batch)) > 0) count += n;
      }
      window.mark_end(ci);
      drained.fetch_add(count, std::memory_order_relaxed);
      barrier.arrive_and_wait();
    });
  }
  threads.emplace_back([&] {
    const std::size_t slot = consumers;
    barrier.arrive_and_wait();
    window.mark_start(slot);
    // Implicit flow control: stay under half the ring so the producer
    // never reaches the gap-flood / full-ring regime.
    const std::int64_t high_water =
        static_cast<std::int64_t>(capacity) / 2;
    std::vector<std::uint64_t> buf(batch);
    ffq::runtime::yielding_backoff idle;
    std::uint64_t next = 1;
    while (next <= items) {
      if (q.approx_size() > high_water) {
        idle.pause();
        continue;
      }
      idle.reset();
      if (batch <= 1) {
        q.enqueue(next);
        ++next;
      } else {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(batch, items - next + 1);
        for (std::uint64_t i = 0; i < chunk; ++i) {
          buf[static_cast<std::size_t>(i)] = next + i;
        }
        q.enqueue_bulk(buf.data(), static_cast<std::size_t>(chunk));
        next += chunk;
      }
    }
    q.close();
    window.mark_end(slot);
    barrier.arrive_and_wait();
  });

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  if (drained.load() != items) {
    std::fprintf(stderr,
                 "bench_batch_ops: conservation: %llu items enqueued, %llu "
                 "dequeued (%zu consumers, batch %zu)\n",
                 static_cast<unsigned long long>(items),
                 static_cast<unsigned long long>(drained.load()), consumers,
                 batch);
    std::exit(1);
  }
  return static_cast<double>(items) / window.seconds();
}

void add_row(table& t, const char* queue, std::size_t batch,
             std::size_t consumers, const run_stats& s) {
  t.add_row({queue, std::to_string(batch), std::to_string(consumers),
             fixed(s.mean, 0), fixed(s.stddev, 0),
             oversubscribed(static_cast<int>(consumers) + 1) ? "yes" : "no"});
  std::printf("done: %-14s batch=%-3zu consumers=%zu  %s items/s\n", queue,
              batch, consumers, human_rate(s.mean).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_cli::parse(argc, argv);
  print_experiment_header(
      "batch_ops — bulk operation ablation",
      "Producer→consumers fan-out; batch sweeps amortize the head "
      "fetch-and-add (dequeue_bulk) and tail publication (enqueue_bulk) "
      "against the scalar FFQ paths and the SPSC batching baselines.");

  const auto items_scaled = static_cast<std::uint64_t>(1'000'000 * cli.scale);
  // Each row's floor on items per run, so that a run lasts 15 ms or more
  // however small --scale or --quick make the workload (4-vCPU Xeon/KVM:
  // ffq-spmc batch 1-4 at 12-38M items/s, ffq-spmc batch 16-64 at
  // 38-136M, ffq-spsc at 107-170M, mcringbuffer and batchqueue at
  // 230-500M). At 100k items the fastest rows lasted under 0.5 ms.
  const auto items_for = [&](std::uint64_t floor) {
    return std::max(items_scaled, floor);
  };
  constexpr std::size_t kCapacity = 1 << 16;
  const std::vector<std::size_t> batches = {1, 4, 16, 64};
  const std::vector<std::size_t> consumer_counts = {1, 2, 4, 8};

  table t({"queue", "batch", "consumers", "items_per_sec", "stddev",
           "oversubscribed"});

  using spmc = core::spmc_queue<std::uint64_t, core::layout_aligned>;
  using spsc = core::spsc_queue<std::uint64_t, core::layout_aligned>;

  for (std::size_t consumers : consumer_counts) {
    for (std::size_t batch : batches) {
      const std::uint64_t items = items_for(batch < 16 ? 500'000 : 3'000'000);
      const auto s = sample(cli.runs, [&] {
        return run_ffq_fanout_once<spmc>(consumers, batch, items, kCapacity);
      });
      add_row(t, "ffq-spmc", batch, consumers, s);
    }
  }

  // SPSC lines: FFQ's own SPSC specialization plus the two batching
  // baselines the amortization argument is borrowed from.
  for (std::size_t batch : batches) {
    const std::uint64_t items = items_for(4'000'000);
    const auto s = sample(cli.runs, [&] {
      return run_ffq_fanout_once<spsc>(1, batch, items, kCapacity);
    });
    add_row(t, "ffq-spsc", batch, 1, s);
  }
  const auto try_enq = [](auto& q, std::uint64_t v) {
    return q.try_enqueue(v);
  };
  const auto try_deq = [](auto& q, std::uint64_t& v) {
    return q.try_dequeue(v);
  };
  const std::uint64_t baseline_items = items_for(8'000'000);
  for (std::size_t batch : batches) {
    const auto s = sample(cli.runs, [&] {
      baselines::mcring_queue<std::uint64_t> q(kCapacity, batch);
      return stream_once(q, baseline_items, try_enq, try_deq,
                         [](auto& q) { q.flush_producer(); });
    });
    add_row(t, "mcringbuffer", batch, 1, s);
  }
  {
    const auto s = sample(cli.runs, [&] {
      baselines::batchqueue<std::uint64_t> q(kCapacity);
      return stream_once(q, baseline_items, try_enq, try_deq, [](auto& q) {
        while (!q.flush_producer()) std::this_thread::yield();
      });
    });
    // BatchQueue's batch is its half-buffer; report it as such.
    add_row(t, "batchqueue", kCapacity / 2, 1, s);
  }

  std::printf("\n%s", t.str().c_str());
  if (!cli.csv_path.empty() && t.write_csv(cli.csv_path)) {
    std::printf("csv written to %s\n", cli.csv_path.c_str());
  }
  if (!cli.json_path.empty() &&
      t.write_json(cli.json_path, "batch_ops")) {
    std::printf("json written to %s\n", cli.json_path.c_str());
  }
  std::printf(
      "\nexpectation: ffq-spmc batch>=16 at 4+ consumers >= 1.5x its "
      "batch-1 row (head fetch-add amortized across the claimed run); "
      "ffq-spsc gains come from the single tail publication only, so "
      "they are smaller; mcringbuffer/batchqueue bound what control-"
      "variable batching buys a pure SPSC design.\n");
  write_trace_if_requested(cli);
  return 0;
}
