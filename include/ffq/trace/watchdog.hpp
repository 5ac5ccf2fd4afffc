// watchdog.hpp — the liveness watchdog: a sampling thread that turns the
// paper's informal progress argument into an observable verdict.
//
// FFQ's dequeue is lock-free, not wait-free (Proposition 2): a slow or
// parked consumer cannot block peers, but a *stuck* one holding a rank —
// or, in the MPMC variant, a producer asleep between its cell claim and
// its publish — stalls everyone drawing ranks behind it. The watchdog
// samples per-queue head/tail ranks (via probes) and per-thread
// last-progress epochs (via the trace rings) and, when a queue has
// pending work but its head rank has not moved for longer than the
// configured threshold, produces a post-mortem dump:
//
//   * verdict — stuck_consumer, stuck_producer (a -2 reservation parked
//     at the head rank), full_ring_livelock, or lost_rank (the head rank
//     can never be decided: its cell holds a later rank and no covering
//     gap — a protocol-violation detector, not an expected state);
//   * cell-state table around head and tail (rank/gap/occupancy);
//   * the stalled consumer threads by name (threads that have consumed
//     before but whose progress epoch froze across the stall window);
//   * the last few trace events of every thread (empty unless the
//     queues were instantiated with the observe::trace observer).
//
// The dump goes to the configured sink (default: stderr); `dump_now()`
// produces one on demand. Sampling reads only atomics the queues already
// expose (head/tail/cell fields, relaxed) — the watchdog never perturbs
// the protocol it observes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ffq::trace {

/// Racy diagnostic view of one cell's control fields.
struct cell_view {
  std::int64_t rank = -1;
  std::int64_t gap = -1;
};

/// How the watchdog observes one queue. Built by make_queue_probe() for
/// the FFQ family; anything that can answer these five questions can be
/// watched.
struct queue_probe {
  std::string name;
  std::function<std::int64_t()> head;       ///< next rank consumers draw
  std::function<std::int64_t()> tail;       ///< next rank producers place
  std::function<bool()> closed;
  std::function<std::size_t()> capacity;
  std::function<cell_view(std::int64_t)> cell;  ///< cell a rank maps to
};

/// Probe over any queue exposing the introspection trio head_rank() /
/// tail_rank() / inspect_rank() (spsc, spmc, mpmc). The queue must
/// outlive the watchdog's use of the probe.
template <typename Q>
queue_probe make_queue_probe(const Q& q, std::string name) {
  queue_probe p;
  p.name = std::move(name);
  p.head = [&q] { return q.head_rank(); };
  p.tail = [&q] { return q.tail_rank(); };
  p.closed = [&q] { return q.closed(); };
  p.capacity = [&q] { return q.capacity(); };
  p.cell = [&q](std::int64_t rank) {
    const auto c = q.inspect_rank(rank);
    return cell_view{c.rank, c.gap};
  };
  return p;
}

enum class verdict {
  ok,                 ///< all watched queues progressing (or idle)
  stuck_consumer,     ///< pending work, head frozen, consumer(s) silent
  stuck_producer,     ///< head rank held by a -2 reservation (MPMC)
  full_ring_livelock, ///< ring full and neither end moving
  lost_rank,          ///< head rank undecidable: later rank, no gap cover
};

const char* to_string(verdict v) noexcept;

class watchdog {
 public:
  struct config {
    std::chrono::milliseconds sample_interval{10};
    std::chrono::milliseconds stall_threshold{200};
    /// Trace events per thread quoted in a dump.
    std::size_t dump_last_events = 8;
    /// Receives each post-mortem dump; default writes to stderr.
    std::function<void(verdict, const std::string&)> sink;
    /// After a trigger, stay quiet about the same stall until it clears
    /// (head moves) — one dump per incident, not one per interval.
    bool once_per_incident = true;
    /// Time source for every stall decision. Tests inject a controllable
    /// clock and drive sample_once() by hand, turning the verdict tests
    /// into deterministic state-machine checks (no sleeps, no sampler
    /// thread). Defaults to std::chrono::steady_clock::now.
    std::function<std::chrono::steady_clock::time_point()> clock;
  };

  watchdog();  // default config
  explicit watchdog(config cfg);
  ~watchdog();

  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  /// Register a queue to watch. Not thread-safe against a running
  /// watchdog: add probes before start().
  void add_probe(queue_probe probe);

  void start();
  void stop();

  /// One sampling pass, exactly what the sampler thread does per tick:
  /// read the clock, refresh ring progress, and (re)classify every probe,
  /// triggering the sink on a stall. Usable without start() — add_probe()
  /// arms each probe's baseline at registration time — so a test with an
  /// injected clock fully controls when time passes.
  void sample_once();

  /// Produce a dump of the current state on demand (works whether or
  /// not the sampling thread runs). Returns the dump text.
  std::string dump_now();

  /// Most severe verdict observed since start() (sticky until start()).
  verdict last_verdict() const;

  /// Number of post-mortem dumps the sampler has triggered.
  std::uint64_t triggers() const;

 private:
  struct probe_state {
    std::int64_t last_head = -1;
    std::chrono::steady_clock::time_point last_progress_at{};
    bool reported = false;
  };
  /// Per-thread progress-epoch history (tid -> last value + when it last
  /// changed), fed from the trace rings each sample; identifies which
  /// consumer froze.
  struct ring_progress {
    std::uint64_t epoch = 0;
    std::chrono::steady_clock::time_point changed_at{};
  };

  void sampler_loop();
  void sample_locked(std::unique_lock<std::mutex>& lock);
  void update_ring_progress(std::chrono::steady_clock::time_point now);
  verdict classify(const queue_probe& p) const;
  std::string render_dump(verdict v, std::size_t probe_idx) const;

  config cfg_;
  std::vector<queue_probe> probes_;
  std::vector<probe_state> states_;
  std::map<std::uint32_t, ring_progress> ring_progress_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  std::thread sampler_;
  verdict last_verdict_ = verdict::ok;
  std::uint64_t triggers_ = 0;
};

}  // namespace ffq::trace
