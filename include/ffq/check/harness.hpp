// harness.hpp — run a producer/consumer program over a *real* queue as
// fibers of runtime::fiber_scheduler, stepped one scheduling point at a
// time by a driver, then judge the run with the oracles.
//
// The queue headers must be compiled with FFQ_CHECK=1 in this TU (the
// `check` preset sets it globally; tests define it before any include) so
// their FFQ_CHECK_YIELD() points are live — otherwise a whole queue
// operation runs as one indivisible block and the exploration is vacuous.
//
// The program shape is fixed and small on purpose: P producers each
// enqueue `items_per_producer` values (scalar or in batches), and the last
// producer to finish closes the queue. Consumers come in two kinds:
//  * polling (consumer_quota = 0): drain with try_dequeue /
//    try_dequeue_bulk until a try that began after the close finds
//    nothing, yielding as a spin-wait while the queue is empty but open;
//  * blocking (consumer_quota = q > 0): call dequeue / dequeue_bulk until
//    exactly q items arrived, so claim_run<true> and spsc wait_take run
//    too. The quotas must add up to the items produced. Not for the
//    waitable queue: its park path enters a futex on the one OS thread
//    every task shares.
//
// Values encode their origin (producer * kProducerStride + seq), so a run
// needs no side channel for the oracles: conservation, per-producer FIFO
// per consumer stream, and — for histories of <= 64 ops — Wing–Gong
// linearizability over invocation/response stamps drawn from a monotone
// counter (exact in the cooperative setting: stamps only advance when the
// harness advances).
//
// Endpoint-style queues (ffq::shard::fabric: producer(p)/consumer()
// handles, constructed from (producers, shard_capacity)) run the same
// program through their endpoints. Fabric runs must set
// check_linearizability = false — a sharded fabric is deliberately not
// linearizable to one FIFO; conservation and per-producer FIFO are its
// contract.
//
// The check-only part of the stepping lives in run_program: it routes
// FFQ_CHECK_YIELD() to fiber_scheduler::yield, reads and clears the
// FFQ_CHECK_SPIN() mark after each step, and counts steps.
//
// program_config::mutate runs the queues with one safeguard switched off
// (yield.hpp); the drivers that explore programs live in explore.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "ffq/check/drivers.hpp"
#include "ffq/check/oracles.hpp"
#include "ffq/check/schedule.hpp"
#include "ffq/check/yield.hpp"
#include "ffq/runtime/fiber.hpp"

namespace ffq::check {

namespace detail {

/// Fabric-like queues (ffq::shard::fabric) expose per-role endpoints —
/// producer(p) / consumer() — instead of direct enqueue/dequeue, and are
/// constructed from (producers, shard_capacity).
template <typename Queue>
concept has_endpoints = requires(Queue& q) {
  q.producer(std::size_t{0});
  q.consumer();
};

/// Forwarding endpoint for plain queues, so the program body below is
/// written once against the endpoint interface.
template <typename Queue>
struct queue_ref {
  Queue* q;
  void enqueue(long long v) noexcept { q->enqueue(v); }
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    q->enqueue_bulk(first, n);
  }
  bool try_dequeue(long long& v) noexcept { return q->try_dequeue(v); }
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t n) noexcept {
    return q->try_dequeue_bulk(out, n);
  }
  bool dequeue(long long& v) noexcept { return q->dequeue(v); }
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t n) noexcept {
    return q->dequeue_bulk(out, n);
  }
};

/// Runs a program with its mutation switched on; the queue code reads it
/// through FFQ_CHECK_MUTANT.
class mutation_scope {
 public:
  explicit mutation_scope(mutation m) noexcept { tl_mutation = m; }
  ~mutation_scope() { tl_mutation = mutation::none; }

  mutation_scope(const mutation_scope&) = delete;
  mutation_scope& operator=(const mutation_scope&) = delete;
};

template <typename Queue>
auto producer_endpoint(Queue& q, int p) {
  if constexpr (has_endpoints<Queue>) {
    return q.producer(static_cast<std::size_t>(p));
  } else {
    (void)p;
    return queue_ref<Queue>{&q};
  }
}

template <typename Queue>
auto consumer_endpoint(Queue& q) {
  if constexpr (has_endpoints<Queue>) {
    return q.consumer();
  } else {
    return queue_ref<Queue>{&q};
  }
}

}  // namespace detail

struct program_config {
  std::size_t capacity = 8;
  int producers = 1;
  int consumers = 2;
  int items_per_producer = 6;
  /// 0 = scalar enqueue; n > 0 = enqueue_bulk in batches of n.
  int enqueue_batch = 0;
  /// 0 = scalar dequeues; n > 0 = bulk dequeues of up to n.
  int dequeue_batch = 0;
  /// 0 = polling consumers (try_* until closed and drained); q > 0 =
  /// blocking consumers that each dequeue exactly q items.
  int consumer_quota = 0;
  /// The safeguard switched off for this program (none = the real code).
  mutation mutate = mutation::none;
  /// Abort the run (as a liveness violation) past this many steps.
  std::uint64_t max_steps = 1'000'000;
  bool check_linearizability = true;
};

struct run_result {
  bool ok = true;
  std::string violation;        // empty when ok
  schedule sched;               // every pick, replayable via replay_driver
  std::uint64_t steps = 0;
  std::vector<long long> enqueued;
  std::vector<long long> dequeued_sorted;          // ascending
  std::vector<std::vector<long long>> streams;     // per consumer, in order
};

/// Run one program over a freshly-constructed Queue under `driver`.
/// Driver is anything with `int pick(const std::vector<int>& runnable,
/// bool waiting)` that returns one of `runnable`, or -1 to stop the run.
template <typename Queue, typename Driver>
run_result run_program(const program_config& cfg, Driver& driver) {
  run_result res;
  // Fabric queues take (producers, shard_capacity); plain queues take
  // (capacity). Guaranteed copy elision lets both construct in place.
  auto q = [&]() -> Queue {
    if constexpr (detail::has_endpoints<Queue>) {
      return Queue(static_cast<std::size_t>(cfg.producers), cfg.capacity);
    } else {
      return Queue(cfg.capacity);
    }
  }();
  ffq::runtime::fiber_scheduler sched;
  std::vector<int> runnable;  // unfinished fibers, in spawn order

  std::uint64_t stamp = 0;  // monotone invocation/response counter
  std::vector<lin_op> history;
  res.streams.assign(static_cast<std::size_t>(cfg.consumers), {});
  int producers_left = cfg.producers;

  for (int p = 0; p < cfg.producers; ++p) {
    runnable.push_back(sched.spawn([&, p] {
      auto ep = detail::producer_endpoint(q, p);
      std::vector<long long> batch;
      auto flush = [&] {
        if (batch.empty()) return;
        const std::uint64_t inv = stamp++;
        ep.enqueue_bulk(batch.begin(), batch.size());
        const std::uint64_t ret = stamp++;
        for (long long v : batch) {
          history.push_back({p, true, v, inv, ret});
        }
        batch.clear();
      };
      for (int i = 0; i < cfg.items_per_producer; ++i) {
        const long long v = static_cast<long long>(p) * kProducerStride + i;
        res.enqueued.push_back(v);
        if (cfg.enqueue_batch > 0) {
          batch.push_back(v);
          if (static_cast<int>(batch.size()) >= cfg.enqueue_batch) flush();
        } else {
          const std::uint64_t inv = stamp++;
          ep.enqueue(v);
          history.push_back({p, true, v, inv, stamp++});
        }
      }
      flush();
      if (--producers_left == 0) q.close();
    }));
  }

  for (int c = 0; c < cfg.consumers; ++c) {
    runnable.push_back(sched.spawn([&, c] {
      auto& stream = res.streams[static_cast<std::size_t>(c)];
      const int tid = cfg.producers + c;
      auto ep = detail::consumer_endpoint(q);
      std::vector<long long> buf(
          cfg.dequeue_batch > 0 ? static_cast<std::size_t>(cfg.dequeue_batch)
                                : std::size_t{1});
      const auto record = [&](std::uint64_t inv, std::size_t n) {
        const std::uint64_t ret = stamp++;
        for (std::size_t i = 0; i < n; ++i) {
          stream.push_back(buf[i]);
          history.push_back({tid, false, buf[i], inv, ret});
        }
      };
      if (cfg.consumer_quota > 0) {
        // Blocking: exactly `quota` items, unless the queue reports closed
        // and drained first (the oracles then name what went missing).
        for (std::size_t left = static_cast<std::size_t>(cfg.consumer_quota);
             left > 0;) {
          const std::uint64_t inv = stamp++;
          std::size_t n;
          if (cfg.dequeue_batch > 0) {
            n = ep.dequeue_bulk(buf.begin(), std::min(buf.size(), left));
          } else {
            n = ep.dequeue(buf[0]) ? 1 : 0;
          }
          if (n == 0) return;
          record(inv, n);
          left -= n;
        }
        return;
      }
      bool closed_seen = false;
      for (;;) {
        const std::uint64_t inv = stamp++;
        std::size_t n = 0;
        if (cfg.dequeue_batch > 0) {
          n = ep.try_dequeue_bulk(buf.begin(), buf.size());
        }
        if (n == 0) n = ep.try_dequeue(buf[0]) ? 1 : 0;
        if (n > 0) {
          record(inv, n);
          continue;
        }
        // Done once a try that began after the close found nothing. A try
        // that began before it may have missed an item published meanwhile
        // (a fabric try visits its shards one at a time), so seeing the
        // close earns one more try, as in the fabric's blocking dequeue.
        if (closed_seen) break;
        closed_seen = q.closed();
        if (!closed_seen) {  // empty but open: a spin-wait round
          spin_point();
          ffq::runtime::fiber_scheduler::yield();
        }
      }
    }));
  }

  const detail::mutation_scope mutated(cfg.mutate);
  const hook_guard hooked(&ffq::runtime::fiber_scheduler::yield);
  bool waiting = false;  // the last step ended a spin-wait round
  while (!runnable.empty()) {
    const int pick = driver.pick(runnable, waiting);
    const auto at = std::find(runnable.begin(), runnable.end(), pick);
    if (at == runnable.end()) {
      res.ok = false;
      res.violation = "schedule: driver stopped, or picked a fiber that is "
                      "not runnable, before the program finished";
      return res;
    }
    res.sched.picks.push_back(pick);
    tl_spinning = false;  // a mark left outside any fiber is not this one's
    if (!sched.step(pick)) runnable.erase(at);
    waiting = tl_spinning;
    if (++res.steps > cfg.max_steps) {
      res.ok = false;
      res.violation = "liveness: step bound " + std::to_string(cfg.max_steps) +
                      " exceeded (livelock or starvation)";
      return res;
    }
  }

  // Oracles, cheapest first.
  std::vector<long long> got;
  for (const auto& s : res.streams) got.insert(got.end(), s.begin(), s.end());
  res.dequeued_sorted = got;
  std::sort(res.dequeued_sorted.begin(), res.dequeued_sorted.end());

  std::string why;
  if (!check_conservation(res.enqueued, got, &why) ||
      !check_per_producer_fifo(res.streams, &why) ||
      (cfg.check_linearizability && !check_linearizable(history, &why))) {
    res.ok = false;
    res.violation = why;
  }
  return res;
}

}  // namespace ffq::check
