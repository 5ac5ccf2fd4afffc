// trace_stress — a short traced MPMC stress run that checks its own
// result and exports an "ffq.trace.v1" file for Perfetto.
//
// Producer p enqueues p * check::kProducerStride + seq for seq = 0, 1, ...
// and each consumer keeps the values it dequeued, in order. After the
// join the run must pass the DFS checker's oracles (check/oracles.hpp):
// every value dequeued exactly once, and each producer's values in
// increasing order within every consumer's stream. Its trace must hold
// one enqueue and one dequeue record per value, with no record lost to
// ring overwrite. A failed check prints the oracle's message and exits 1.
//
// The observer is pinned to `trace` explicitly (not default_observer), so
// the run is traced in every build configuration.
//
// Usage: trace_stress [--trace=FILE] [--producers=N] [--consumers=N]
//                     [--items=N] [--capacity=N]
// Exit status: 0 = checked and exported, 1 = a check or the export
// failed, 2 = a bad flag (nothing was run).

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ffq/check/oracles.hpp"
#include "ffq/core/mpmc.hpp"
#include "ffq/telemetry/snapshot.hpp"
#include "ffq/trace/trace.hpp"

namespace {

using queue_type = ffq::core::mpmc_queue<std::uint64_t, ffq::core::layout_aligned,
                                         ffq::observe::trace>;

constexpr long kMaxThreads = 64;  // per side
constexpr long kMaxCapacity = 1L << 20;
// Every trace ring is sized for the whole run, since one consumer may
// take every item; together they must fit in this many bytes.
constexpr long long kRingBudget = 512LL << 20;

int usage(const char* why) {
  std::fprintf(stderr,
               "trace_stress: %s\n"
               "usage: trace_stress [--trace=FILE] [--producers=1..64] "
               "[--consumers=1..64] [--items=N] [--capacity=2^k]\n",
               why);
  return 2;
}

/// `arg` is `name=<integer>`: the whole value must parse.
bool parse_flag(const std::string& arg, const char* name, long& out,
                bool& bad) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* first = arg.c_str() + prefix.size();
  const char* last = arg.c_str() + arg.size();
  const auto [end, ec] = std::from_chars(first, last, out);
  bad = first == last || ec != std::errc() || end != last;
  return true;
}

/// The trace must hold one enqueue and one dequeue record per item, and
/// every record each thread wrote (none lost to ring overwrite).
bool check_trace(const std::vector<ffq::trace::thread_snapshot>& snaps,
                 std::size_t items, std::string* why) {
  std::size_t enq = 0, deq = 0;
  for (const auto& s : snaps) {
    if (s.records.size() != s.written) {
      *why = "trace: " + s.name + " kept " + std::to_string(s.records.size()) +
             " of its " + std::to_string(s.written) + " records";
      return false;
    }
    for (const auto& r : s.records) {
      enq += r.type == ffq::trace::event_type::enqueue ? 1 : 0;
      deq += r.type == ffq::trace::event_type::dequeue ? 1 : 0;
    }
  }
  if (enq != items || deq != items) {
    *why = "trace: " + std::to_string(enq) + " enqueue and " +
           std::to_string(deq) + " dequeue records for " +
           std::to_string(items) + " items";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path = "trace.json";
  long producers = 2, consumers = 2, items = 8000, capacity = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (!parse_flag(arg, "--producers", producers, bad) &&
               !parse_flag(arg, "--consumers", consumers, bad) &&
               !parse_flag(arg, "--items", items, bad) &&
               !parse_flag(arg, "--capacity", capacity, bad)) {
      return usage(("unknown flag " + arg).c_str());
    }
    if (bad) return usage(("not an integer: " + arg).c_str());
  }
  if (producers < 1 || producers > kMaxThreads || consumers < 1 ||
      consumers > kMaxThreads) {
    return usage("--producers and --consumers must be 1..64");
  }
  if (capacity < 2 || capacity > kMaxCapacity ||
      !std::has_single_bit(static_cast<unsigned long>(capacity))) {
    return usage("--capacity must be a power of two in 2..2^20");
  }
  const long per_producer = items / producers;
  if (items < producers || per_producer >= ffq::check::kProducerStride) {
    return usage("--items must give each producer 1..999999 items");
  }
  const std::size_t ring_cap = std::bit_ceil(4 * static_cast<std::size_t>(items));
  if (static_cast<long long>(ring_cap * sizeof(ffq::trace::event_record)) *
          (producers + consumers + 1) > kRingBudget) {
    return usage("--items too large: the trace rings would pass 512 MiB");
  }

  ffq::trace::registry::instance().set_ring_capacity(ring_cap);
  ffq::trace::set_thread_name("main");

  queue_type q(static_cast<std::size_t>(capacity));

  std::vector<long long> expected;
  std::vector<std::thread> threads;
  for (long p = 0; p < producers; ++p) {
    for (long s = 0; s < per_producer; ++s) {
      expected.push_back(p * ffq::check::kProducerStride + s);
    }
    threads.emplace_back([&q, p, per_producer] {
      ffq::trace::set_thread_name("producer-" + std::to_string(p));
      for (long s = 0; s < per_producer; ++s) {
        q.enqueue(static_cast<std::uint64_t>(p * ffq::check::kProducerStride + s));
      }
    });
  }
  std::vector<std::vector<long long>> streams(static_cast<std::size_t>(consumers));
  std::vector<std::thread> eaters;
  for (long c = 0; c < consumers; ++c) {
    eaters.emplace_back([&q, &streams, c] {
      ffq::trace::set_thread_name("consumer-" + std::to_string(c));
      auto& stream = streams[static_cast<std::size_t>(c)];
      std::uint64_t v = 0;
      while (q.dequeue(v)) stream.push_back(static_cast<long long>(v));
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : eaters) t.join();

  std::vector<long long> got;
  for (const auto& stream : streams) {
    got.insert(got.end(), stream.begin(), stream.end());
  }
  std::printf("trace_stress: %zu produced, %zu consumed\n", expected.size(),
              got.size());
  std::string why;
  if (!ffq::check::check_conservation(expected, got, &why) ||
      !ffq::check::check_per_producer_fifo(streams, &why) ||
      !check_trace(ffq::trace::registry::instance().snapshot_all(),
                   expected.size(), &why)) {
    std::fprintf(stderr, "trace_stress: FAIL: %s\n", why.c_str());
    return 1;
  }
  std::printf("trace_stress: OK: exactly once, per-producer FIFO, "
              "one record per operation, none dropped\n");

  // Fold the queue's counter block into a metrics snapshot so the export
  // carries counter tracks alongside the event timeline.
  ffq::telemetry::metrics_snapshot metrics;
  q.telemetry().for_each([&](const char* name, std::uint64_t value) {
    metrics.counters[std::string("queue.") + queue_type::kName + "/" + name] =
        value;
  });

  ffq::trace::export_options opts;
  opts.metrics = &metrics;
  if (!ffq::trace::write_chrome_trace(trace_path, opts)) {
    std::fprintf(stderr, "trace_stress: cannot write %s\n",
                 trace_path.c_str());
    return 1;
  }
  std::printf("trace_stress: wrote %s\n", trace_path.c_str());
  return 0;
}
