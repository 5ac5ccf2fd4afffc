// workloads.cpp — the four benchmark workloads.
//
// Each trial is a closed loop in one process with at most 3 worker
// threads, pinned to distinct CPUs through runtime::plan_placement, so
// one CPU of a 4-CPU host stays free for the coordinator and the OS.
//
//   syscall      sgxsim::run_syscall_service, sgx_ffq, 1 app thread,
//                2 OS executors, 100 ns simulated syscall, 4096-cell
//                rings: the scalar latency-bound path.
//   fanout_bulk  1 producer enqueue_bulk(16) into one FFQ^s of 2^16
//                cells; 2 consumers dequeue_bulk(16) and reply through
//                their own FFQ SPSC queue (enqueue_bulk /
//                try_dequeue_bulk). Half the ring is in flight.
//   fanin_mpmc   2 producers scalar-enqueue into one FFQ^m of 2^16
//                cells; 1 consumer dequeue_bulk(64). A producer pauses
//                while approx_size() is above half the ring.
//   fanin_shard  the same traffic and footprint through the unordered
//                shard::fabric (2^15 cells per shard); each producer
//                throttles on its own shard.
//
// What a "call" and its latency (rtt) are, per workload:
//   syscall      one syscall, from submission to its reply (the service's
//                e2e recorder);
//   fanout_bulk  one batch of 16, from enqueue_bulk to the producer
//                holding all 16 replies;
//   fanin_*      one scalar enqueue call: the time per call of a run of
//                16 consecutive calls, one run in every 256 calls.
//
// The coordinator times set-up (allocation, first touch, thread start,
// a warm-up pass over the rings) until the warm-up completes, then opens
// the measured window and reads the delivered count at both ends.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

#include "perfbench.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/runtime/affinity.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/rng.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/runtime/topology.hpp"
#include "ffq/sgxsim/syscall_service.hpp"
#include "ffq/shard/shard.hpp"
#include "ffq/telemetry/registry.hpp"

namespace perfbench {

namespace {

namespace rt = ffq::runtime;
namespace tel = ffq::telemetry;
using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Placement, seeding, shared trial state
// ---------------------------------------------------------------------------

constexpr std::size_t kWorkers = 3;

/// Worker i's CPU: the producer CPU of placement group i under the
/// other_core policy, i.e. the first hardware thread of core i.
int worker_cpu(std::size_t i) {
  static const std::vector<int> cpus = [] {
    const auto topo = rt::cpu_topology::discover();
    const auto plan =
        rt::plan_placement(topo, rt::placement_policy::other_core, kWorkers);
    std::vector<int> v;
    for (const auto& g : plan) {
      v.push_back(g.producer_cpus.empty() ? -1 : g.producer_cpus.front());
    }
    return v;
  }();
  return i < cpus.size() ? cpus[i] : -1;
}

void pin_worker(std::size_t i) {
  const int cpu = worker_cpu(i);
  if (cpu >= 0) rt::pin_self_to(cpu);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint32_t producer) {
  rt::splitmix64 sm(seed ^ (0x5851f42d4c957f2dULL * (producer + 1)));
  return sm.next();
}

enum phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// State every stream workload shares with its coordinator. Every field
/// has its own cache line: `phase` is read on every loop pass, and no
/// worker's hot writes may land next to it. Per-thread result blocks below
/// are cache-aligned for the same reason.
struct trial_state {
  alignas(64) std::atomic<int> phase{kWarmup};
  alignas(64) std::atomic<bool> warm_done{false};
  /// The workload's unit of completed work, published by one worker.
  alignas(64) std::atomic<std::uint64_t> delivered{0};
};

/// Set up, measure, stop: the coordinator side of a stream trial.
/// `stop` runs after the window closes (close queues, join threads).
template <typename Stop>
void coordinate(trial_state& st, steady::time_point t_begin,
                double measure_s, trial_result& res, Stop&& stop) {
  while (!st.warm_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  res.setup_s = seconds_since(t_begin);
  const std::uint64_t c0 = st.delivered.load(std::memory_order_relaxed);
  const auto w0 = steady::now();
  st.phase.store(kMeasure, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::duration<double>(measure_s));
  const std::uint64_t c1 = st.delivered.load(std::memory_order_relaxed);
  const double window = seconds_since(w0);
  st.phase.store(kStop, std::memory_order_relaxed);
  res.items_per_s = static_cast<double>(c1 - c0) / window;
  stop();
}

/// Apply the self-test's output corruption to one dequeued batch (at most
/// once per trial). `buf` has room for one extra item.
bool apply_fault(fault f, item* buf, std::size_t& n) {
  if (n < 2) return false;
  switch (f) {
    case fault::none:
      return false;
    case fault::drop:
      std::move(buf + 1, buf + n, buf);
      --n;
      return true;
    case fault::duplicate:
      buf[n] = buf[n - 1];
      ++n;
      return true;
    case fault::swap:
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (key_producer(buf[i].key) == key_producer(buf[j].key)) {
            std::swap(buf[i], buf[j]);
            return true;
          }
        }
      }
      return false;
  }
  return false;
}

/// The consumer wrapper the self-test arms: corrupts one batch after the
/// first kAfter items, then stays quiet.
class fault_injector {
 public:
  explicit fault_injector(fault f) : f_(f) {}
  void maybe_apply(item* buf, std::size_t& n, std::uint64_t seen) {
    if (f_ == fault::none || seen < kAfter) return;
    if (apply_fault(f_, buf, n)) f_ = fault::none;
  }

 private:
  static constexpr std::uint64_t kAfter = 1000;
  fault f_;
};

// ---------------------------------------------------------------------------
// Per-layer statistics from spans
// ---------------------------------------------------------------------------

double tsc_ns(std::uint64_t cycles) {
  return static_cast<double>(cycles) / rt::tsc_ghz();
}

/// Durations (ns) of the stat-sampled spans named `n`.
std::vector<double> durations(const std::vector<const span_buffer*>& bufs,
                              span_name n) {
  std::vector<double> v;
  for (const auto* b : bufs) {
    for (const auto& s : b->spans()) {
      if (s.name == n && (s.flags & kStatSample) != 0) {
        v.push_back(tsc_ns(s.t1 - s.t0));
      }
    }
  }
  return v;
}

/// Producer publish (end of the enqueue span) -> consumer take, joined on
/// the item key both sides recorded.
std::vector<double> residencies(const std::vector<const span_buffer*>& bufs,
                                span_name enqueue) {
  std::unordered_map<std::uint64_t, std::uint64_t> published;
  for (const auto* b : bufs) {
    for (const auto& s : b->spans()) {
      if (s.name == enqueue) published.emplace(s.key, s.t1);
    }
  }
  std::vector<double> v;
  for (const auto* b : bufs) {
    for (const auto& s : b->spans()) {
      if (s.name != span_name::take) continue;
      const auto it = published.find(s.key);
      if (it != published.end() && s.t1 >= it->second) {
        v.push_back(tsc_ns(s.t1 - it->second));
      }
    }
  }
  return v;
}

/// Quantile q of TSC-derived durations (ns, sorted in place) measured to
/// `resolution` ns (one tick, or a tick over the number of calls timed
/// together). Short calls tie heavily at that resolution, and a plain
/// order statistic would repeat exactly from run to run; as for grouped
/// data, each value is spread uniformly over its resolution step and the
/// quantile is interpolated inside the run of ties that holds it.
double tick_quantile(std::vector<double>& v, double q, double resolution) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double pos = std::clamp(q * n, 0.0, n - 1e-9);
  const auto at = static_cast<std::size_t>(pos);
  const auto lo = std::lower_bound(v.begin(), v.end(), v[at]) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), v[at]) - v.begin();
  const double frac = (pos - static_cast<double>(lo)) / static_cast<double>(hi - lo);
  return v[at] + (frac - 0.5) * resolution;
}

double tick_ns() { return 1.0 / rt::tsc_ghz(); }

void put_p50_p99(trial_result& res, const std::string& prefix,
                 std::vector<double> v, bool p99 = true) {
  res.layer[prefix + ".p50"] = tick_quantile(v, 0.50, tick_ns());
  if (p99) res.layer[prefix + ".p99"] = tick_quantile(v, 0.99, tick_ns());
}

/// A uniform sample of fixed size from a stream of latencies (reservoir
/// sampling, Algorithm R). Its memory is allocated and touched during
/// set-up, so the resident size does not grow with throughput.
class latency_sample {
 public:
  static constexpr std::size_t kSize = std::size_t{1} << 16;

  explicit latency_sample(std::uint64_t seed) : v_(kSize), rng_(seed) {}

  void add(double ns) noexcept {
    if (seen_ < kSize) {
      v_[seen_] = ns;
    } else if (const std::uint64_t j = rng_.bounded(seen_ + 1); j < kSize) {
      v_[j] = ns;
    }
    ++seen_;
  }

  /// The sampled values (at most kSize of them).
  std::vector<double> values() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(
                                         std::min<std::uint64_t>(seen_, kSize))};
  }

 private:
  std::vector<double> v_;
  rt::xoshiro256ss rng_;
  std::uint64_t seen_ = 0;
};

void finish_latency(trial_result& res, std::vector<double> lat_ns,
                    double resolution) {
  res.rtt_samples = lat_ns.size();
  res.rtt_p50_us = tick_quantile(lat_ns, 0.50, resolution) / 1e3;
  res.rtt_p99_us = tick_quantile(lat_ns, 0.99, resolution) / 1e3;
}

void maybe_write_trace(const trial_config& cfg,
                       const std::vector<const span_buffer*>& bufs,
                       trial_result& res) {
  if (cfg.trace_path.empty()) return;
  if (!write_chrome_trace(cfg.trace_path, bufs, "perfbench " + cfg.workload)) {
    res.notes.push_back("could not write trace " + cfg.trace_path);
  }
}

constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

std::vector<std::unique_ptr<span_buffer>> make_span_buffers(bool traced) {
  std::vector<std::unique_ptr<span_buffer>> v;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    v.push_back(std::make_unique<span_buffer>(
        static_cast<std::uint32_t>(i), traced ? kSpanCapacity : 0));
  }
  return v;
}

std::vector<const span_buffer*> views(
    const std::vector<std::unique_ptr<span_buffer>>& v) {
  std::vector<const span_buffer*> out;
  for (const auto& b : v) out.push_back(b.get());
  return out;
}

/// Opens the thread's root span when the window opens and closes it when
/// the window closes; call once per loop pass with the phase just read.
struct root_span {
  span_buffer& buf;
  span_name name;
  bool traced;
  std::uint32_t idx = kNoParent;
  bool closed = false;

  void observe(int ph) noexcept {
    if (!traced || closed) return;
    if (ph == kMeasure && idx == kNoParent) {
      const std::uint64_t now = rt::rdtsc();
      idx = buf.record(name, kNoParent, 0, now, now, 0);
    } else if (ph == kStop && idx != kNoParent) {
      buf.close(idx, rt::rdtsc());
      closed = true;
    }
  }
};

// ---------------------------------------------------------------------------
// fanout_bulk
// ---------------------------------------------------------------------------

constexpr std::size_t kFanoutRing = std::size_t{1} << 16;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kFanoutConsumers = 2;
constexpr std::size_t kReplyPoll = 64;
// 1-in-64 batches get producer spans; their first items (seq % 1024 == 0)
// get consumer take spans, so both sides join on the batch's first seq.
constexpr std::uint64_t kBatchSpanMask = 63;
constexpr std::uint64_t kTakeMask = (kBatchSpanMask + 1) * kBatch - 1;
constexpr std::uint64_t kCallSpanMask = 63;  // 1-in-64 consumer/poll calls
constexpr std::uint64_t kRttBatchMask = 31;  // 1-in-32 batch round trips
constexpr std::size_t kFanoutWindow = kFanoutRing / 2;  // items in flight
constexpr std::size_t kInflightBatches = 4096;  // >= kFanoutWindow / kBatch

trial_result run_fanout_bulk(const trial_config& cfg) {
  using request_q = ffq::core::spmc_queue<item>;
  using reply_q = ffq::core::spsc_queue<item>;
  trial_result res;
  res.traced = cfg.traced;
  const bool traced = cfg.traced;
  const auto t_begin = steady::now();

  auto requests = std::make_unique<request_q>(kFanoutRing);
  std::vector<std::unique_ptr<reply_q>> replies;
  for (std::size_t c = 0; c < kFanoutConsumers; ++c) {
    replies.push_back(std::make_unique<reply_q>(kFanoutRing));
  }
  auto bufs = make_span_buffers(traced);
  trial_state st;
  std::atomic<std::size_t> consumers_done{0};

  struct alignas(64) consumer_out {
    stream_check chk;
    std::uint64_t calls = 0, items = 0, wait_cycles = 0, window_cycles = 0;
  };
  std::vector<consumer_out> cons(kFanoutConsumers);

  struct alignas(64) producer_out {
    explicit producer_out(std::uint64_t seed) : rtt(seed) {}
    tally sent;
    stream_check reply_chk[kFanoutConsumers];
    latency_sample rtt;  ///< batch round trips
    std::uint64_t passes = 0, throttled = 0, polls = 0, empty_polls = 0;
  };
  producer_out prod(stream_seed(cfg.seed, kFanoutConsumers));

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kFanoutConsumers; ++c) {
    threads.emplace_back([&, c] {
      pin_worker(1 + c);
      auto& out = cons[c];
      auto& sb = *bufs[1 + c];
      root_span root{sb, span_name::consumer, traced};
      fault_injector inj(c == 0 ? cfg.inject : fault::none);
      item buf[kBatch + 1];
      std::uint64_t call_idx = 0;
      for (;;) {
        const int ph = st.phase.load(std::memory_order_relaxed);
        root.observe(ph);
        const bool rec_ph = traced && ph == kMeasure;
        // Call dequeue_bulk once a whole batch is published: a consumer
        // that claims ranks ahead of the producer parks on cells the
        // producer is about to write, which makes the rate swing from
        // trial to trial.
        const std::uint64_t tw = traced ? rt::rdtsc() : 0;
        while (requests->approx_size() < static_cast<std::int64_t>(kBatch) &&
               !requests->closed()) {
          rt::cpu_relax();
        }
        const std::uint64_t t0 = traced ? rt::rdtsc() : 0;
        std::size_t n = requests->dequeue_bulk(buf, kBatch);
        const std::uint64_t t1 = traced ? rt::rdtsc() : 0;
        if (n == 0) break;
        inj.maybe_apply(buf, n, out.chk.seen.count);
        bool has_take = false;
        for (std::size_t i = 0; i < n; ++i) {
          out.chk.take(buf[i]);
          has_take |= (key_seq(buf[i].key) & kTakeMask) == 0;
        }
        if (!rec_ph) {
          replies[c]->enqueue_bulk(buf, n);
          continue;
        }
        ++out.calls;
        out.items += n;
        out.wait_cycles += t0 - tw;
        const bool sampled = (call_idx++ & kCallSpanMask) == 0;
        std::uint32_t call = kNoParent;
        if (sampled || has_take) {
          call = sb.record(span_name::spmc_dequeue_bulk, root.idx, buf[0].key,
                           t0, t1, sampled ? kStatSample : 0);
          for (std::size_t i = 0; i < n; ++i) {
            if ((key_seq(buf[i].key) & kTakeMask) == 0) {
              sb.record(span_name::take, call, buf[i].key, t1, t1, 0);
            }
          }
        }
        if (sampled) {
          const std::uint64_t t2 = rt::rdtsc();
          replies[c]->enqueue_bulk(buf, n);
          sb.record(span_name::spsc_enqueue_bulk, call, buf[0].key, t2,
                    rt::rdtsc());
        } else {
          replies[c]->enqueue_bulk(buf, n);
        }
      }
      root.observe(kStop);
      if (root.idx != kNoParent) {
        const auto& r = sb.spans()[root.idx];
        out.window_cycles = r.t1 - r.t0;
      }
      consumers_done.fetch_add(1, std::memory_order_release);
    });
  }

  threads.emplace_back([&] {
    pin_worker(0);
    auto& sb = *bufs[0];
    root_span root{sb, span_name::producer, traced};
    rt::xoshiro256ss rng(stream_seed(cfg.seed, 0));
    std::vector<std::uint64_t> issue(kInflightBatches);
    std::vector<std::int32_t> remaining(kInflightBatches);
    item batch[kBatch];
    item rbuf[kReplyPoll];
    std::uint64_t seq = 0, received = 0, poll_idx = 0;
    const std::uint64_t warm_target = 2 * kFanoutRing;
    const auto limit = static_cast<std::int64_t>(kFanoutWindow);

    auto poll_replies = [&](bool meas) {
      const std::uint64_t before = received;
      for (std::size_t c = 0; c < kFanoutConsumers; ++c) {
        const bool sampled = traced && meas && (poll_idx++ & kCallSpanMask) == 0;
        const std::uint64_t t0 = sampled ? rt::rdtsc() : 0;
        const std::size_t n = replies[c]->try_dequeue_bulk(rbuf, kReplyPoll);
        if (sampled) {
          sb.record(span_name::spsc_try_dequeue_bulk, root.idx,
                    n ? rbuf[0].key : 0, t0, rt::rdtsc());
        }
        if (meas) {
          ++prod.polls;
          prod.empty_polls += n == 0;
        }
        if (n == 0) continue;
        const std::uint64_t now = rt::rdtsc();
        for (std::size_t i = 0; i < n; ++i) {
          prod.reply_chk[c].take(rbuf[i]);
          const std::uint64_t b = key_seq(rbuf[i].key) / kBatch;
          if (--remaining[b % kInflightBatches] == 0 && meas &&
              (b & kRttBatchMask) == 0) {
            prod.rtt.add(tsc_ns(now - issue[b % kInflightBatches]));
          }
        }
        received += n;
        st.delivered.store(received, std::memory_order_relaxed);
      }
      return received - before;
    };

    for (;;) {
      const int ph = st.phase.load(std::memory_order_relaxed);
      root.observe(ph);
      if (ph == kStop) break;
      const bool meas = ph == kMeasure;
      prod.passes += meas;
      // Replies are collected only when the window is full, so the window
      // stays full whichever side is slower and the loop cannot drift
      // between a backlogged and an empty-ring regime.
      if (static_cast<std::int64_t>(seq - received + kBatch) > limit) {
        std::uint64_t got = 0;
        for (std::uint64_t n; (n = poll_replies(meas)) != 0;) got += n;
        if (got == 0) prod.throttled += meas;
        if (received >= warm_target &&
            !st.warm_done.load(std::memory_order_relaxed)) {
          st.warm_done.store(true, std::memory_order_release);
        }
        continue;
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        batch[i] = item{make_key(0, seq + i), rng()};
        prod.sent.add(batch[i]);
      }
      const std::uint64_t b = seq / kBatch;
      remaining[b % kInflightBatches] = static_cast<std::int32_t>(kBatch);
      const std::uint64_t t0 = rt::rdtsc();
      issue[b % kInflightBatches] = t0;
      requests->enqueue_bulk(batch, kBatch);
      if (traced && meas && (b & kBatchSpanMask) == 0) {
        sb.record(span_name::spmc_enqueue_bulk, root.idx, batch[0].key, t0,
                  rt::rdtsc());
      }
      seq += kBatch;
    }
    requests->close();
    // Collect the replies still in flight; consumers exit once drained.
    for (;;) {
      const bool done =
          consumers_done.load(std::memory_order_acquire) == kFanoutConsumers;
      if (poll_replies(false) == 0 && done) break;
    }
  });

  coordinate(st, t_begin, cfg.measure_s, res, [&] {
    for (auto& t : threads) t.join();
  });

  // Output checks: what the consumers saw, and what came back.
  tally seen, back;
  std::uint64_t order = 0, reply_order = 0;
  for (const auto& c : cons) {
    seen.merge(c.chk.seen);
    order += c.chk.order_violations;
  }
  for (const auto& r : prod.reply_chk) {
    back.merge(r.seen);
    reply_order += r.order_violations;
  }
  res.attempted = prod.sent.count;
  res.failed = count_failures(prod.sent, seen, order) +
               count_failures(prod.sent, back, reply_order);
  if (res.failed != 0) {
    res.notes.push_back("fanout_bulk: sent " + std::to_string(prod.sent.count) +
                        ", consumed " + std::to_string(seen.count) +
                        ", replied " + std::to_string(back.count) +
                        ", order violations " + std::to_string(order) + "/" +
                        std::to_string(reply_order));
  }
  res.calls_per_s = res.items_per_s / kBatch;  // batch round trips
  finish_latency(res, prod.rtt.values(), tick_ns());

  res.layer["flow.producer_throttle_frac"] =
      prod.passes ? static_cast<double>(prod.throttled) /
                        static_cast<double>(prod.passes)
                  : 0;
  if (traced) {
    const auto v = views(bufs);
    put_p50_p99(res, "spmc.enqueue_bulk_ns",
                durations(v, span_name::spmc_enqueue_bulk));
    put_p50_p99(res, "spmc.dequeue_bulk_ns",
                durations(v, span_name::spmc_dequeue_bulk));
    put_p50_p99(res, "spmc.residency_ns",
                residencies(v, span_name::spmc_enqueue_bulk));
    put_p50_p99(res, "spsc.enqueue_bulk_ns",
                durations(v, span_name::spsc_enqueue_bulk));
    put_p50_p99(res, "spsc.try_dequeue_bulk_ns",
                durations(v, span_name::spsc_try_dequeue_bulk), false);
    std::uint64_t calls = 0, items = 0, wait = 0, window = 0;
    for (const auto& c : cons) {
      calls += c.calls;
      items += c.items;
      wait += c.wait_cycles;
      window += c.window_cycles;
    }
    res.layer["spmc.dequeue_bulk_fill"] =
        calls ? static_cast<double>(items) / static_cast<double>(calls * kBatch)
              : 0;
    res.layer["spmc.consumer_busy_frac"] =
        window ? 1.0 - static_cast<double>(wait) / static_cast<double>(window)
               : 0;
    res.layer["spsc.empty_poll_frac"] =
        prod.polls ? static_cast<double>(prod.empty_polls) /
                         static_cast<double>(prod.polls)
                   : 0;
    maybe_write_trace(cfg, v, res);
  }
  return res;
}

// ---------------------------------------------------------------------------
// fanin_mpmc / fanin_shard
// ---------------------------------------------------------------------------

constexpr std::size_t kFaninProducers = 2;
constexpr std::size_t kFaninRing = std::size_t{1} << 16;  // total cells
constexpr std::size_t kFaninPoll = 64;
// Every 256th enqueue starts a run of kCallRun calls timed together: the
// call latency is the run's time per call, so one pair of clock reads does
// not swamp a call of ~10 ns and a rare slow call does not decide a
// percentile on its own. The run's first call is also timed alone: traced,
// it is the layer's enqueue span, joined with the consumer's take span.
constexpr std::uint64_t kCallSampleMask = 255;
constexpr std::size_t kCallRun = 16;
constexpr std::uint64_t kFaninCallSpanMask = 15;
// A producer re-reads its backlog once per this many enqueues, so the
// flow-control read of the consumer-written head line is amortized.
constexpr std::uint64_t kThrottleMask = 63;

/// FFQ^m: every producer enqueues into one ring, throttled on its size.
struct mpmc_sink {
  static constexpr span_name kEnqueue = span_name::mpmc_enqueue;
  static constexpr span_name kDequeue = span_name::mpmc_dequeue_bulk;
  static constexpr const char* kLayer = "mpmc";
  ffq::core::mpmc_queue<item> q{kFaninRing};

  std::int64_t backlog(std::size_t) const noexcept { return q.approx_size(); }
  std::int64_t backlog_limit() const noexcept { return kFaninRing / 2; }
  void enqueue(std::size_t, const item& it) noexcept { q.enqueue(it); }
  std::size_t dequeue_bulk(item* out, std::size_t n) noexcept {
    return q.dequeue_bulk(out, n);
  }
  void close() noexcept { q.close(); }
};

/// The unordered fabric with the same total footprint; each producer
/// throttles on its own shard.
struct shard_sink {
  static constexpr span_name kEnqueue = span_name::shard_enqueue;
  static constexpr span_name kDequeue = span_name::shard_dequeue_bulk;
  static constexpr const char* kLayer = "shard";
  using fabric_t = ffq::shard::fabric<item>;
  fabric_t fab{kFaninProducers, kFaninRing / kFaninProducers};
  std::vector<fabric_t::producer_handle> producers = [this] {
    std::vector<fabric_t::producer_handle> v;
    for (std::size_t p = 0; p < kFaninProducers; ++p) v.push_back(fab.producer(p));
    return v;
  }();
  fabric_t::consumer_handle consumer = fab.consumer();

  std::int64_t backlog(std::size_t p) const noexcept {
    return fab.shard(p).approx_size();
  }
  std::int64_t backlog_limit() const noexcept {
    return static_cast<std::int64_t>(fab.shard_capacity() / 2);
  }
  void enqueue(std::size_t p, const item& it) noexcept {
    producers[p].enqueue(it);
  }
  std::size_t dequeue_bulk(item* out, std::size_t n) noexcept {
    return consumer.dequeue_bulk(out, n);
  }
  void close() noexcept { fab.close(); }
};

template <typename Sink>
trial_result run_fanin(const trial_config& cfg) {
  trial_result res;
  res.traced = cfg.traced;
  const bool traced = cfg.traced;
  const auto t_begin = steady::now();

  auto sink = std::make_unique<Sink>();
  auto bufs = make_span_buffers(traced);
  trial_state st;
  std::atomic<std::size_t> producers_done{0};

  struct alignas(64) producer_out {
    explicit producer_out(std::uint64_t seed) : calls(seed) {}
    tally sent;
    std::uint64_t passes = 0, throttled = 0;
    latency_sample calls;  ///< time per call of the timed runs
  };
  std::vector<producer_out> prod;
  for (std::uint32_t p = 0; p < kFaninProducers; ++p) {
    prod.emplace_back(stream_seed(cfg.seed, kFaninProducers + p));
  }
  struct alignas(64) consumer_out {
    stream_check chk;
    std::uint64_t calls = 0, items = 0;
  } cons;

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    pin_worker(kFaninProducers);
    auto& sb = *bufs[kFaninProducers];
    root_span root{sb, span_name::consumer, traced};
    fault_injector inj(cfg.inject);
    item buf[kFaninPoll + 1];
    std::uint64_t consumed = 0, call_idx = 0;
    const std::uint64_t warm_target = 2 * kFaninRing;
    for (;;) {
      const int ph = st.phase.load(std::memory_order_relaxed);
      root.observe(ph);
      const bool meas = ph == kMeasure;
      const std::uint64_t t0 = traced ? rt::rdtsc() : 0;
      std::size_t n = sink->dequeue_bulk(buf, kFaninPoll);
      const std::uint64_t t1 = traced ? rt::rdtsc() : 0;
      if (n == 0) break;
      inj.maybe_apply(buf, n, cons.chk.seen.count);
      bool has_take = false;
      for (std::size_t i = 0; i < n; ++i) {
        cons.chk.take(buf[i]);
        has_take |= (key_seq(buf[i].key) & kCallSampleMask) == 0;
      }
      consumed += n;
      st.delivered.store(consumed, std::memory_order_relaxed);
      if (consumed >= warm_target &&
          !st.warm_done.load(std::memory_order_relaxed)) {
        st.warm_done.store(true, std::memory_order_release);
      }
      if (!(traced && meas)) continue;
      ++cons.calls;
      cons.items += n;
      const bool sampled = (call_idx++ & kFaninCallSpanMask) == 0;
      if (!sampled && !has_take) continue;
      const std::uint32_t call = sb.record(Sink::kDequeue, root.idx, buf[0].key,
                                           t0, t1, sampled ? kStatSample : 0);
      for (std::size_t i = 0; i < n; ++i) {
        if ((key_seq(buf[i].key) & kCallSampleMask) == 0) {
          sb.record(span_name::take, call, buf[i].key, t1, t1, 0);
        }
      }
    }
    root.observe(kStop);
  });

  for (std::size_t p = 0; p < kFaninProducers; ++p) {
    threads.emplace_back([&, p] {
      pin_worker(p);
      auto& sb = *bufs[p];
      auto& out = prod[p];
      root_span root{sb, span_name::producer, traced};
      rt::xoshiro256ss rng(stream_seed(cfg.seed, static_cast<std::uint32_t>(p)));
      const std::int64_t limit = sink->backlog_limit();
      auto next = [&](std::uint64_t seq) {
        const item it{make_key(static_cast<std::uint32_t>(p), seq), rng()};
        out.sent.add(it);
        return it;
      };
      for (std::uint64_t seq = 0;;) {
        const int ph = st.phase.load(std::memory_order_relaxed);
        root.observe(ph);
        if (ph == kStop) break;
        const bool meas = ph == kMeasure;
        out.passes += meas;
        if ((seq & kThrottleMask) == 0 && sink->backlog(p) > limit) {
          out.throttled += meas;
          rt::cpu_relax();
          continue;
        }
        if ((seq & kCallSampleMask) != 0) {
          sink->enqueue(p, next(seq++));
          continue;
        }
        item run[kCallRun];
        for (auto& it : run) it = next(seq++);
        const std::uint64_t t0 = rt::rdtsc();
        sink->enqueue(p, run[0]);
        const std::uint64_t t1 = rt::rdtsc();
        for (std::size_t i = 1; i < kCallRun; ++i) sink->enqueue(p, run[i]);
        const std::uint64_t t2 = rt::rdtsc();
        if (meas) out.calls.add(tsc_ns(t2 - t0) / kCallRun);
        if (traced && meas) sb.record(Sink::kEnqueue, root.idx, run[0].key, t0, t1);
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  coordinate(st, t_begin, cfg.measure_s, res, [&] {
    // close() needs every producer's last enqueue to have returned.
    while (producers_done.load(std::memory_order_acquire) < kFaninProducers) {
      std::this_thread::yield();
    }
    sink->close();
    for (auto& t : threads) t.join();
  });

  tally sent;
  std::uint64_t passes = 0, throttled = 0;
  for (const auto& p : prod) {
    sent.merge(p.sent);
    passes += p.passes;
    throttled += p.throttled;
  }
  res.attempted = sent.count;
  res.failed = count_failures(sent, cons.chk.seen, cons.chk.order_violations);
  if (res.failed != 0) {
    res.notes.push_back(cfg.workload + ": sent " + std::to_string(sent.count) +
                        ", consumed " + std::to_string(cons.chk.seen.count) +
                        ", order violations " +
                        std::to_string(cons.chk.order_violations));
  }
  res.calls_per_s = res.items_per_s;  // one enqueue call per item
  std::vector<double> call_ns;
  for (const auto& p : prod) {
    const auto v = p.calls.values();
    call_ns.insert(call_ns.end(), v.begin(), v.end());
  }
  finish_latency(res, std::move(call_ns), tick_ns() / kCallRun);

  res.layer["flow.producer_throttle_frac"] =
      passes ? static_cast<double>(throttled) / static_cast<double>(passes) : 0;
  if (traced) {
    const auto v = views(bufs);
    const std::string layer = Sink::kLayer;
    put_p50_p99(res, layer + ".enqueue_ns", durations(v, Sink::kEnqueue));
    put_p50_p99(res, layer + ".dequeue_bulk_ns", durations(v, Sink::kDequeue));
    put_p50_p99(res, layer + ".residency_ns", residencies(v, Sink::kEnqueue),
                false);
    res.layer[layer + ".dequeue_bulk_fill"] =
        cons.calls ? static_cast<double>(cons.items) /
                         static_cast<double>(cons.calls * kFaninPoll)
              : 0;
    maybe_write_trace(cfg, v, res);
  }
  return res;
}

// ---------------------------------------------------------------------------
// syscall
// ---------------------------------------------------------------------------

constexpr std::size_t kSyscallRing = 4096;
constexpr std::uint64_t kMinChunk = 150000, kMaxChunk = 250000;

/// Quantile q of a telemetry histogram, linearly interpolated inside the
/// log bucket that holds it (the recorder's buckets are up to 12.5 %
/// wide; their midpoints alone would repeat exactly from run to run).
/// Uses only the public merged_histogram API: the bucket's first and last
/// rank are found by bisection over percentile().
double histogram_quantile(const tel::merged_histogram& h, double q) {
  using lh = tel::log_histogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  auto bucket_of_rank = [&](std::uint64_t r) {
    const double qr = (static_cast<double>(r) - 0.5) / static_cast<double>(n);
    return lh::bucket_index(h.percentile(qr));
  };
  std::uint64_t r = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  r = std::clamp<std::uint64_t>(r, 1, n);
  const std::size_t b = bucket_of_rank(r);
  std::uint64_t lo = 1, hi = r;  // first rank in bucket b
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_of_rank(mid) < b) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = r;
  hi = n;  // last rank in bucket b
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of_rank(mid) > b) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t in_bucket = lo - first + 1;
  const double frac = (static_cast<double>(r - first) + 0.5) /
                      static_cast<double>(in_bucket);
  return static_cast<double>(lh::bucket_lower(b)) +
         frac * static_cast<double>(lh::bucket_width(b));
}

trial_result run_syscall(const trial_config& cfg) {
  namespace sx = ffq::sgxsim;
  trial_result res;
  res.traced = cfg.traced;
  auto& reg = tel::registry::instance();
  reg.reset();

  sx::service_config sc;
  sc.variant = sx::service_variant::sgx_ffq;
  sc.app_threads = 1;
  sc.os_threads = 2;
  sc.queue_capacity = kSyscallRing;
  sc.simulated_syscall_ns = 100.0;
  sc.pin_threads = true;
  sc.cpu_limit = static_cast<int>(kWorkers);
  sc.collect_telemetry = true;
  const std::uint64_t expected_transitions =
      2 * static_cast<std::uint64_t>(sc.app_threads);
  const std::string base =
      std::string("syscall.") + sx::to_string(sc.variant);

  // Warm-up pass (set-up): allocates and touches both rings twice over,
  // starts and pins the threads.
  const auto t_begin = steady::now();
  sc.calls_per_thread = 2 * kSyscallRing;
  const auto warm = sx::run_syscall_service(sc);
  res.setup_s = seconds_since(t_begin);
  reg.reset();

  span_buffer sb(0, cfg.traced ? 4096 : 0);
  rt::xoshiro256ss rng(stream_seed(cfg.seed, 0));
  std::uint64_t issued = 0;
  double window_s = 0.0;
  std::vector<double> transitions;
  if (warm.enclave_transitions != expected_transitions) ++res.failed;
  const auto w0 = steady::now();
  while (seconds_since(w0) < cfg.measure_s) {
    sc.calls_per_thread = rng.range(kMinChunk, kMaxChunk);
    const std::uint64_t t0 = rt::rdtsc();
    const auto r = sx::run_syscall_service(sc);
    if (cfg.traced) sb.record(span_name::service, kNoParent, 0, t0, rt::rdtsc());
    issued += sc.calls_per_thread;
    window_s += static_cast<double>(r.total_calls) / r.calls_per_sec;
    transitions.push_back(static_cast<double>(r.enclave_transitions));
    if (r.enclave_transitions != expected_transitions) ++res.failed;
  }
  const auto e2e = reg.recorder(base + ".e2e_ns").merge();
  // The service derives total_calls from its configuration; the e2e
  // recorder holds one sample per reply the app thread actually received.
  const std::uint64_t replied = e2e.count();
  res.attempted = issued;
  res.failed += replied > issued ? replied - issued : issued - replied;
  if (res.failed != 0) {
    res.notes.push_back("syscall: issued " + std::to_string(issued) +
                        ", replies recorded " + std::to_string(replied));
  }
  res.calls_per_s = static_cast<double>(issued) / window_s;
  res.items_per_s = res.calls_per_s;
  res.rtt_samples = replied;
  res.rtt_p50_us = histogram_quantile(e2e, 0.50) / 1e3;
  res.rtt_p99_us = histogram_quantile(e2e, 0.99) / 1e3;

  const auto enq = reg.recorder(base + ".enqueue_ns").merge();
  const auto deq = reg.recorder(base + ".dequeue_ns").merge();
  res.layer["sgxsim.submit_ns.p50"] = histogram_quantile(enq, 0.50);
  res.layer["sgxsim.submit_ns.p99"] = histogram_quantile(enq, 0.99);
  res.layer["sgxsim.executor_wait_ns.p50"] = histogram_quantile(deq, 0.50);
  res.layer["sgxsim.executor_wait_ns.p99"] = histogram_quantile(deq, 0.99);
  res.layer["sgxsim.enclave_transitions"] = median(transitions);
  reg.reset();
  if (cfg.traced) maybe_write_trace(cfg, {&sb}, res);
  return res;
}

}  // namespace

trial_result run_trial(const trial_config& cfg) {
  if (cfg.workload == "syscall") return run_syscall(cfg);
  if (cfg.workload == "fanout_bulk") return run_fanout_bulk(cfg);
  if (cfg.workload == "fanin_mpmc") return run_fanin<mpmc_sink>(cfg);
  if (cfg.workload == "fanin_shard") return run_fanin<shard_sink>(cfg);
  trial_result res;
  res.failed = 1;
  res.attempted = 1;
  res.notes.push_back("unknown workload " + cfg.workload);
  return res;
}

}  // namespace perfbench
