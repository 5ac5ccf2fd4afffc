// bench_spsc_family — extra ablation (not a paper figure): head-to-head
// of the §II related-work SPSC queues against FFQ's SPSC variant.
//
// Workload: one producer streams 64-bit values to one consumer through a
// bounded ring; throughput = items transferred per second. This isolates
// the control-variable traffic differences the related-work section
// discusses (shared counters vs batched counters vs in-band signalling
// vs FFQ's rank/gap protocol).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "ffq/baselines/baselines.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/harness/driver.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

/// One 1p/1c stream per run over a fresh queue from `make()` (see
/// harness::stream_once).
template <typename MakeQ, typename Enq, typename Deq, typename Flush>
void bench(table& t, const char* name, const bench_cli& cli, MakeQ make,
           Enq enq, Deq deq, Flush flush) {
  const std::uint64_t items = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(2'000'000 * cli.scale), 10000);
  const auto s = sample(cli.runs, [&] {
    auto q = make();
    return stream_once(*q, items, enq, deq, flush);
  });
  t.add_row({name, human_rate(s.mean) + "items/s", human_rate(s.stddev)});
  std::printf("done: %s\n", name);
}

constexpr std::size_t kCap = 1 << 12;

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_cli::parse(argc, argv);
  print_experiment_header(
      "SPSC family ablation (extra; relates to paper §II)",
      "1 producer -> 1 consumer streaming through a 4096-entry ring.");

  table t({"queue", "throughput", "stddev"});

  bench(t, "lamport", cli,
        [] { return std::make_unique<baselines::lamport_queue<std::uint64_t>>(kCap); },
        [](auto& q, std::uint64_t v) { return q.try_enqueue(v); },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto&) {});

  bench(t, "fastforward", cli,
        [] { return std::make_unique<baselines::fastforward_queue<std::uint64_t>>(kCap); },
        [](auto& q, std::uint64_t v) { return q.try_enqueue(v); },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto&) {});

  bench(t, "mcringbuffer", cli,
        [] { return std::make_unique<baselines::mcring_queue<std::uint64_t>>(kCap, 64); },
        [](auto& q, std::uint64_t v) { return q.try_enqueue(v); },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto& q) { q.flush_producer(); });

  bench(t, "b-queue", cli,
        [] { return std::make_unique<baselines::bqueue<std::uint64_t>>(kCap, 64); },
        [](auto& q, std::uint64_t v) { return q.try_enqueue(v); },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto&) {});

  bench(t, "batchqueue", cli,
        [] { return std::make_unique<baselines::batchqueue<std::uint64_t>>(kCap); },
        [](auto& q, std::uint64_t v) { return q.try_enqueue(v); },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto& q) {
          while (!q.flush_producer()) std::this_thread::yield();
        });

  bench(t, "ffq-spsc", cli,
        [] {
          return std::make_unique<
              core::spsc_queue<std::uint64_t, core::layout_aligned>>(kCap);
        },
        [](auto& q, std::uint64_t v) {
          q.enqueue(v);  // wait-free under flow control
          return true;
        },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto&) {});

  bench(t, "ffq-spsc-compact", cli,
        [] {
          return std::make_unique<
              core::spsc_queue<std::uint64_t, core::layout_compact>>(kCap);
        },
        [](auto& q, std::uint64_t v) {
          q.enqueue(v);
          return true;
        },
        [](auto& q, std::uint64_t& o) { return q.try_dequeue(o); },
        [](auto&) {});

  std::printf("\n%s", t.str().c_str());
  if (!cli.csv_path.empty() && t.write_csv(cli.csv_path)) {
    std::printf("csv written to %s\n", cli.csv_path.c_str());
  }
  write_trace_if_requested(cli);
  return 0;
}
