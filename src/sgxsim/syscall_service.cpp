#include "ffq/sgxsim/syscall_service.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "ffq/baselines/vyukov_mpmc.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/barrier.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/runtime/topology.hpp"
#include "ffq/runtime/affinity.hpp"
#include "ffq/telemetry/registry.hpp"
#include "ffq/trace/export.hpp"
#include "ffq/trace/registry.hpp"

namespace ffq::sgxsim {

const char* to_string(service_variant v) noexcept {
  switch (v) {
    case service_variant::native:
      return "native";
    case service_variant::sgx_sync:
      return "sgx-sync";
    case service_variant::sgx_ffq:
      return "sgx-ffq";
    case service_variant::sgx_mpmc:
      return "sgx-mpmc";
  }
  return "?";
}

namespace {

namespace rt = ffq::runtime;

/// The actual system call under test. getppid(2) "executes fast and
/// involves no costly system call argument copying, making system call
/// queues a bottleneck". When cfg.simulated_syscall_ns > 0, a calibrated
/// spin stands in for it (see the header comment).
inline std::uint64_t do_syscall(const service_config& cfg) {
  if (cfg.simulated_syscall_ns > 0.0) {
    rt::spin_ns(cfg.simulated_syscall_ns);
    return 42;
  }
  return static_cast<std::uint64_t>(::getppid());
}

void maybe_pin(const service_config& cfg, const rt::cpu_topology& topo, int idx) {
  if (!cfg.pin_threads || topo.cpus().empty()) return;
  const auto& cpus = topo.cpus();
  std::size_t usable = cpus.size();
  if (cfg.cpu_limit > 0) {
    usable = std::min<std::size_t>(usable, static_cast<std::size_t>(cfg.cpu_limit));
  }
  rt::pin_self_to(cpus[static_cast<std::size_t>(idx) % usable].os_id);
}

namespace tel = ffq::telemetry;

/// Latency recorders for one service run; all pointers null when
/// cfg.collect_telemetry is off, so the hot paths pay one predictable
/// branch per sample and nothing else.
struct service_recorders {
  tel::latency_recorder* enqueue = nullptr;
  tel::latency_recorder* dequeue = nullptr;
  tel::latency_recorder* e2e = nullptr;
  double tsc_ghz = 1.0;

  static service_recorders make(const service_config& cfg, bool queued) {
    service_recorders r;
    if (!cfg.collect_telemetry) return r;
    auto& reg = tel::registry::instance();
    const std::string base = std::string("syscall.") + to_string(cfg.variant);
    r.e2e = &reg.recorder(base + ".e2e_ns");
    if (queued) {
      r.enqueue = &reg.recorder(base + ".enqueue_ns");
      r.dequeue = &reg.recorder(base + ".dequeue_ns");
    }
    r.tsc_ghz = rt::tsc_ghz();
    return r;
  }

  std::uint64_t to_ns(std::uint64_t cycles) const noexcept {
    return static_cast<std::uint64_t>(static_cast<double>(cycles) / tsc_ghz);
  }
};

inline void record_ns(const service_recorders& rec, tel::log_histogram* shard,
                      std::uint64_t cycles) noexcept {
  if (shard != nullptr) shard->record(rec.to_ns(cycles));
}

// --------------------------------------------------------------------------
// native: direct calls.
// --------------------------------------------------------------------------
service_result run_native(const service_config& cfg) {
  const auto topo = rt::cpu_topology::discover();
  const auto rec = service_recorders::make(cfg, /*queued=*/false);
  rt::spin_barrier barrier(static_cast<std::size_t>(cfg.app_threads) + 1);
  rt::time_window_recorder window(static_cast<std::size_t>(cfg.app_threads));
  std::atomic<std::uint64_t> latency_sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.app_threads; ++t) {
    threads.emplace_back([&, t] {
      maybe_pin(cfg, topo, t);
      auto* e2e = rec.e2e != nullptr ? rec.e2e->new_shard() : nullptr;
      barrier.arrive_and_wait();
      window.mark_start(static_cast<std::size_t>(t));
      std::uint64_t local_lat = 0;
      for (std::uint64_t i = 0; i < cfg.calls_per_thread; ++i) {
        const std::uint64_t t0 = rt::rdtsc();
        volatile std::uint64_t r = do_syscall(cfg);
        (void)r;
        const std::uint64_t d = rt::rdtsc() - t0;
        local_lat += d;
        record_ns(rec, e2e, d);
      }
      latency_sum.fetch_add(local_lat, std::memory_order_relaxed);
      window.mark_end(static_cast<std::size_t>(t));
      barrier.arrive_and_wait();
    });
  }
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double secs = window.seconds();

  service_result res;
  res.total_calls = cfg.calls_per_thread * static_cast<std::uint64_t>(cfg.app_threads);
  res.calls_per_sec = static_cast<double>(res.total_calls) / secs;
  res.avg_latency_cycles =
      static_cast<double>(latency_sum.load()) / static_cast<double>(res.total_calls);
  return res;
}

// --------------------------------------------------------------------------
// sgx_sync: the traditional exit/trap/re-enter path.
// --------------------------------------------------------------------------
service_result run_sgx_sync(const service_config& cfg) {
  const auto topo = rt::cpu_topology::discover();
  const auto rec = service_recorders::make(cfg, /*queued=*/false);
  rt::spin_barrier barrier(static_cast<std::size_t>(cfg.app_threads) + 1);
  rt::time_window_recorder window(static_cast<std::size_t>(cfg.app_threads));
  std::atomic<std::uint64_t> latency_sum{0};
  std::atomic<std::uint64_t> transitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.app_threads; ++t) {
    threads.emplace_back([&, t] {
      maybe_pin(cfg, topo, t);
      enclave_thread enclave(cfg.cost, &transitions);
      enclave.eenter();
      auto* e2e = rec.e2e != nullptr ? rec.e2e->new_shard() : nullptr;
      barrier.arrive_and_wait();
      window.mark_start(static_cast<std::size_t>(t));
      std::uint64_t local_lat = 0;
      for (std::uint64_t i = 0; i < cfg.calls_per_thread; ++i) {
        const std::uint64_t t0 = rt::rdtsc();
        enclave.charge_inside_op();
        volatile std::uint64_t r = enclave.ocall([&] { return do_syscall(cfg); });
        (void)r;
        const std::uint64_t d = rt::rdtsc() - t0;
        local_lat += d;
        record_ns(rec, e2e, d);
      }
      latency_sum.fetch_add(local_lat, std::memory_order_relaxed);
      window.mark_end(static_cast<std::size_t>(t));
      barrier.arrive_and_wait();
      enclave.eexit();
    });
  }
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double secs = window.seconds();

  service_result res;
  res.total_calls = cfg.calls_per_thread * static_cast<std::uint64_t>(cfg.app_threads);
  res.calls_per_sec = static_cast<double>(res.total_calls) / secs;
  res.avg_latency_cycles =
      static_cast<double>(latency_sum.load()) / static_cast<double>(res.total_calls);
  res.enclave_transitions = transitions.load();
  return res;
}

// --------------------------------------------------------------------------
// sgx_ffq: per-app-thread FFQ SPMC submission + FFQ SPSC response.
// --------------------------------------------------------------------------
service_result run_sgx_ffq(const service_config& cfg) {
  using submission_q = ffq::core::spmc_queue<syscall_request>;
  using response_q = ffq::core::spsc_queue<syscall_response>;

  const auto topo = rt::cpu_topology::discover();
  const int apps = cfg.app_threads;
  // Every submission queue needs at least one executor.
  const int oss = std::max(cfg.os_threads, apps);

  // "an array with SPSC response queues for each of the consumers
  // assigned to the producer" (§V-A): one response queue per
  // (app thread, executor) pair, so each stays single-producer.
  std::vector<std::unique_ptr<submission_q>> submissions;
  std::vector<std::vector<std::unique_ptr<response_q>>> responses(apps);
  for (int a = 0; a < apps; ++a) {
    submissions.push_back(std::make_unique<submission_q>(cfg.queue_capacity));
  }
  for (int j = 0; j < oss; ++j) {
    responses[j % apps].push_back(
        std::make_unique<response_q>(cfg.queue_capacity));
  }

  const auto rec = service_recorders::make(cfg, /*queued=*/true);
  rt::spin_barrier barrier(static_cast<std::size_t>(apps + oss) + 1);
  rt::time_window_recorder window(static_cast<std::size_t>(apps + oss));
  std::atomic<std::uint64_t> latency_sum{0};
  std::atomic<std::uint64_t> transitions{0};
  std::vector<std::thread> threads;

  // OS executor threads: each serves the submission queues assigned to
  // it round-robin (os thread j primarily serves queue j % apps; with
  // more OS threads than apps, queues get multiple consumers — the SPMC
  // fan-out the design exists for).
  for (int j = 0; j < oss; ++j) {
    threads.emplace_back([&, j] {
      maybe_pin(cfg, topo, apps + j);
      if (!cfg.trace_path.empty()) {
        ffq::trace::set_thread_name("os-" + std::to_string(j));
      }
      auto& sub = *submissions[static_cast<std::size_t>(j % apps)];
      auto& resp = *responses[static_cast<std::size_t>(j % apps)]
                             [static_cast<std::size_t>(j / apps)];
      auto* deq = rec.dequeue != nullptr ? rec.dequeue->new_shard() : nullptr;
      barrier.arrive_and_wait();
      window.mark_start(static_cast<std::size_t>(apps + j));
      syscall_request req;
      for (;;) {
        // The dequeue sample includes the blocking wait for work — that
        // is the latency an executor actually pays per request.
        const std::uint64_t t0 = deq != nullptr ? rt::rdtsc() : 0;
        if (!sub.dequeue(req)) break;
        if (deq != nullptr) record_ns(rec, deq, rt::rdtsc() - t0);
        syscall_response r;
        r.result = do_syscall(cfg);
        r.issue_tsc = req.issue_tsc;
        resp.enqueue(r);
      }
      window.mark_end(static_cast<std::size_t>(apps + j));
      barrier.arrive_and_wait();
    });
  }

  // App threads ("inside the enclave"): one outstanding call at a time —
  // the paper's flow-control assumption.
  for (int a = 0; a < apps; ++a) {
    threads.emplace_back([&, a] {
      maybe_pin(cfg, topo, a);
      if (!cfg.trace_path.empty()) {
        ffq::trace::set_thread_name("app-" + std::to_string(a));
      }
      enclave_thread enclave(cfg.cost, &transitions);
      enclave.eenter();
      auto* enq = rec.enqueue != nullptr ? rec.enqueue->new_shard() : nullptr;
      auto* e2e = rec.e2e != nullptr ? rec.e2e->new_shard() : nullptr;
      barrier.arrive_and_wait();
      window.mark_start(static_cast<std::size_t>(a));
      auto& sub = *submissions[a];
      auto& my_responses = responses[a];
      std::uint64_t local_lat = 0;
      std::size_t rr = 0;  // round-robin over this thread's response queues
      for (std::uint64_t i = 0; i < cfg.calls_per_thread; ++i) {
        enclave.charge_inside_op();
        syscall_request req;
        req.app_thread = static_cast<std::uint32_t>(a);
        req.issue_tsc = rt::rdtsc();
        sub.enqueue(req);
        if (enq != nullptr) record_ns(rec, enq, rt::rdtsc() - req.issue_tsc);
        // "loop through the response queues for dequeuing values".
        syscall_response r;
        rt::yielding_backoff bo;
        for (;;) {
          if (my_responses[rr]->try_dequeue(r)) break;
          rr = (rr + 1) % my_responses.size();
          if (rr == 0) bo.pause();
        }
        const std::uint64_t d = rt::rdtsc() - r.issue_tsc;
        local_lat += d;
        record_ns(rec, e2e, d);
      }
      sub.close();
      latency_sum.fetch_add(local_lat, std::memory_order_relaxed);
      window.mark_end(static_cast<std::size_t>(a));
      barrier.arrive_and_wait();
      enclave.eexit();
    });
  }

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double secs = window.seconds();

  if (cfg.collect_telemetry) {
    // Fold queue event counters into registry totals before the queues
    // die with this scope (no-op in FFQ_OBSERVE=OFF builds, where the
    // default observer's counter block is empty).
    auto& reg = tel::registry::instance();
    for (const auto& s : submissions) {
      reg.accumulate_queue("queue.sgx-ffq.submission", s->telemetry());
    }
    for (const auto& per_app : responses) {
      for (const auto& r : per_app) {
        reg.accumulate_queue("queue.sgx-ffq.response", r->telemetry());
      }
    }
  }

  service_result res;
  res.total_calls = cfg.calls_per_thread * static_cast<std::uint64_t>(apps);
  res.calls_per_sec = static_cast<double>(res.total_calls) / secs;
  res.avg_latency_cycles =
      static_cast<double>(latency_sum.load()) / static_cast<double>(res.total_calls);
  res.enclave_transitions = transitions.load();
  return res;
}

// --------------------------------------------------------------------------
// sgx_mpmc: one global generic MPMC queue for submissions (the paper's
// "external MPMC queue"), per-app-thread MPMC response queues.
// --------------------------------------------------------------------------
service_result run_sgx_mpmc(const service_config& cfg) {
  using submission_q = ffq::baselines::vyukov_mpmc_queue<syscall_request>;
  using response_q = ffq::baselines::vyukov_mpmc_queue<syscall_response>;

  const auto topo = rt::cpu_topology::discover();
  const int apps = cfg.app_threads;
  const int oss = std::max(cfg.os_threads, 1);

  submission_q submission(cfg.queue_capacity);
  std::vector<std::unique_ptr<response_q>> responses;
  for (int a = 0; a < apps; ++a) {
    responses.push_back(std::make_unique<response_q>(cfg.queue_capacity));
  }

  const auto rec = service_recorders::make(cfg, /*queued=*/true);
  rt::spin_barrier barrier(static_cast<std::size_t>(apps + oss) + 1);
  rt::time_window_recorder window(static_cast<std::size_t>(apps + oss));
  std::atomic<std::uint64_t> latency_sum{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<int> producers_done{0};
  std::vector<std::thread> threads;

  for (int j = 0; j < oss; ++j) {
    threads.emplace_back([&, j] {
      maybe_pin(cfg, topo, apps + j);
      auto* deq = rec.dequeue != nullptr ? rec.dequeue->new_shard() : nullptr;
      barrier.arrive_and_wait();
      window.mark_start(static_cast<std::size_t>(apps + j));
      syscall_request req;
      rt::yielding_backoff bo;
      std::uint64_t wait_start = deq != nullptr ? rt::rdtsc() : 0;
      for (;;) {
        if (submission.try_dequeue(req)) {
          bo.reset();
          if (deq != nullptr) {
            const std::uint64_t now = rt::rdtsc();
            record_ns(rec, deq, now - wait_start);
          }
          syscall_response r;
          r.result = do_syscall(cfg);
          r.issue_tsc = req.issue_tsc;
          responses[req.app_thread]->enqueue(r);
          if (deq != nullptr) wait_start = rt::rdtsc();
        } else if (producers_done.load(std::memory_order_acquire) == apps) {
          if (!submission.try_dequeue(req)) break;
          syscall_response r;
          r.result = do_syscall(cfg);
          r.issue_tsc = req.issue_tsc;
          responses[req.app_thread]->enqueue(r);
        } else {
          bo.pause();
        }
      }
      window.mark_end(static_cast<std::size_t>(apps + j));
      barrier.arrive_and_wait();
    });
  }

  for (int a = 0; a < apps; ++a) {
    threads.emplace_back([&, a] {
      maybe_pin(cfg, topo, a);
      enclave_thread enclave(cfg.cost, &transitions);
      enclave.eenter();
      auto* enq = rec.enqueue != nullptr ? rec.enqueue->new_shard() : nullptr;
      auto* e2e = rec.e2e != nullptr ? rec.e2e->new_shard() : nullptr;
      barrier.arrive_and_wait();
      window.mark_start(static_cast<std::size_t>(a));
      auto& resp = *responses[a];
      std::uint64_t local_lat = 0;
      for (std::uint64_t i = 0; i < cfg.calls_per_thread; ++i) {
        enclave.charge_inside_op();
        syscall_request req;
        req.app_thread = static_cast<std::uint32_t>(a);
        req.issue_tsc = rt::rdtsc();
        submission.enqueue(req);
        if (enq != nullptr) record_ns(rec, enq, rt::rdtsc() - req.issue_tsc);
        syscall_response r;
        rt::yielding_backoff bo;
        while (!resp.try_dequeue(r)) bo.pause();
        const std::uint64_t d = rt::rdtsc() - r.issue_tsc;
        local_lat += d;
        record_ns(rec, e2e, d);
      }
      producers_done.fetch_add(1, std::memory_order_release);
      latency_sum.fetch_add(local_lat, std::memory_order_relaxed);
      window.mark_end(static_cast<std::size_t>(a));
      barrier.arrive_and_wait();
      enclave.eexit();
    });
  }

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double secs = window.seconds();

  service_result res;
  res.total_calls = cfg.calls_per_thread * static_cast<std::uint64_t>(apps);
  res.calls_per_sec = static_cast<double>(res.total_calls) / secs;
  res.avg_latency_cycles =
      static_cast<double>(latency_sum.load()) / static_cast<double>(res.total_calls);
  res.enclave_transitions = transitions.load();
  return res;
}

}  // namespace

service_result run_syscall_service(const service_config& cfg) {
  service_result res{};
  switch (cfg.variant) {
    case service_variant::native:
      res = run_native(cfg);
      break;
    case service_variant::sgx_sync:
      res = run_sgx_sync(cfg);
      break;
    case service_variant::sgx_ffq:
      res = run_sgx_ffq(cfg);
      break;
    case service_variant::sgx_mpmc:
      res = run_sgx_mpmc(cfg);
      break;
  }
  if (!cfg.trace_path.empty()) {
    ffq::trace::export_options opts;
    tel::metrics_snapshot snap;
    if (cfg.collect_telemetry) {
      snap = tel::registry::instance().snapshot();
      if (!snap.empty()) opts.metrics = &snap;
    }
    ffq::trace::write_chrome_trace(cfg.trace_path, opts);
  }
  return res;
}

}  // namespace ffq::sgxsim
