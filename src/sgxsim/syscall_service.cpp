#include "ffq/sgxsim/syscall_service.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <type_traits>
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
    case service_variant::native: return "native";
    case service_variant::sgx_sync: return "sgx-sync";
    case service_variant::sgx_ffq: return "sgx-ffq";
    case service_variant::sgx_mpmc: return "sgx-mpmc";
  }
  return "?";
}

namespace {

namespace rt = ffq::runtime;
namespace tel = ffq::telemetry;

/// A submission carries its app thread, which sgx_mpmc's reply routing needs.
struct syscall_request { std::uint32_t app_thread = 0; };
struct syscall_response { std::uint64_t result = 0; };

/// The system call under test, getppid(2), or the calibrated spin that
/// stands in for it when cfg.simulated_syscall_ns > 0 (see the header).
inline std::uint64_t do_syscall(const service_config& cfg) {
  if (cfg.simulated_syscall_ns <= 0.0) return static_cast<std::uint64_t>(getppid());
  rt::spin_ns(cfg.simulated_syscall_ns);
  return 42;
}

/// The calling thread's shard of recorder "syscall.<variant><stage>";
/// inert (one predictable branch per sample) unless telemetry is on.
struct stage_clock {
  tel::log_histogram* shard = nullptr;
  double tsc_ghz = 1.0;
  stage_clock(const service_config& cfg, const char* stage, bool present) {
    if (!cfg.collect_telemetry || !present) return;
    shard = tel::registry::instance()
                .recorder(std::string("syscall.") + to_string(cfg.variant) + stage)
                .new_shard();
    tsc_ghz = rt::tsc_ghz();
  }

  bool on() const noexcept { return shard != nullptr; }
  void record(std::uint64_t cycles) const noexcept {
    if (on()) shard->record(static_cast<std::uint64_t>(cycles / tsc_ghz));
  }
  void since(std::uint64_t t) const noexcept { if (on()) record(rt::rdtsc() - t); }
};

/// The one service run (§V-F). App thread a builds its call functor once,
/// `make_call(a, enclave)`, then makes calls one at a time (the paper's
/// flow-control assumption), each `call(t0, enqueue)` timed from after the
/// inside-op charge to the result in hand; `app_done(a)` follows its last
/// reply. `executors` OS threads outside run `serve(j, dequeue)`.
template <typename Serve, typename MakeCall, typename AppDone>
service_result run_service(const service_config& cfg, std::size_t executors,
                           Serve serve, MakeCall make_call, AppDone app_done) {
  const auto topo = rt::cpu_topology::discover();
  const auto apps = static_cast<std::size_t>(cfg.app_threads);
  rt::spin_barrier barrier(apps + executors + 1);
  rt::time_window_recorder window(apps + executors);
  std::atomic<std::uint64_t> latency_sum{0};
  std::atomic<std::uint64_t> transitions{0};
  // Worker `w` (apps first, then executors) pins itself among the first
  // cfg.cpu_limit CPUs and names its trace track.
  const auto& cpus = topo.cpus();
  const auto limit = static_cast<std::size_t>(cfg.cpu_limit);
  const std::size_t usable = limit > 0 ? std::min(limit, cpus.size()) : cpus.size();
  auto start = [&](std::size_t w, const char* role, std::size_t n) {
    if (cfg.pin_threads && usable > 0) rt::pin_self_to(cpus[w % usable].os_id);
    if (cfg.trace_path.empty()) return;
    ffq::trace::set_thread_name(role + std::to_string(n));
  };
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < executors; ++j) {
    threads.emplace_back([&, j] {
      start(apps + j, "os-", j);
      const stage_clock dequeue(cfg, ".dequeue_ns", true);
      barrier.arrive_and_wait();
      window.mark_start(apps + j);
      serve(j, dequeue);
      window.mark_end(apps + j);
      barrier.arrive_and_wait();
    });
  }

  for (std::size_t a = 0; a < apps; ++a) {
    threads.emplace_back([&, a] {
      start(a, "app-", a);
      // Native threads never enter, so charge_inside_op() stays free.
      const bool in_enclave = cfg.variant != service_variant::native;
      enclave_thread enclave(cfg.cost, &transitions);
      if (in_enclave) enclave.eenter();
      const stage_clock enqueue(cfg, ".enqueue_ns", executors > 0);
      const stage_clock e2e(cfg, ".e2e_ns", true);
      auto call = make_call(a, enclave);
      barrier.arrive_and_wait();
      window.mark_start(a);
      std::uint64_t local_lat = 0;
      for (std::uint64_t i = 0; i < cfg.calls_per_thread; ++i) {
        enclave.charge_inside_op();
        const std::uint64_t t0 = rt::rdtsc();
        call(t0, enqueue);  // returns with the result in hand
        const std::uint64_t d = rt::rdtsc() - t0;
        local_lat += d;
        e2e.record(d);
      }
      app_done(a);
      latency_sum.fetch_add(local_lat, std::memory_order_relaxed);
      window.mark_end(a);
      barrier.arrive_and_wait();
      if (in_enclave) enclave.eexit();
    });
  }

  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& t : threads) t.join();

  const std::uint64_t total = cfg.calls_per_thread * apps;
  return {.calls_per_sec = static_cast<double>(total) / window.seconds(),
          .avg_latency_cycles = static_cast<double>(latency_sum.load()) /
                                static_cast<double>(total),
          .total_calls = total,
          .enclave_transitions = transitions.load()};
}

constexpr auto nothing = [](auto&&...) {};  // no executors, nothing when done

/// sgx_ffq: per-app-thread FFQ SPMC submission + FFQ SPSC response.
service_result run_sgx_ffq(const service_config& cfg) {
  // Dedicated lines: each scalar executor parks on its own claimed rank,
  // the many-consumer case of paper Fig. 2 (DESIGN.md §6 "Cell layout").
  using submission_q =
      ffq::core::spmc_queue<syscall_request, ffq::core::layout_aligned>;
  using response_q = ffq::core::spsc_queue<syscall_response>;
  static_assert(std::is_same_v<submission_q::layout_type, ffq::core::layout_aligned>);
  const auto apps = static_cast<std::size_t>(cfg.app_threads);
  const std::size_t cap = cfg.queue_capacity;
  // Every submission queue needs at least one executor.
  const std::size_t oss = std::max(cfg.os_threads, cfg.app_threads);

  // Executor j takes from app j % apps's submission queue (more executors
  // than apps: the SPMC fan-out the design exists for) and answers through
  // response queue j, so app a's queues a, a + apps, ... are "an array with
  // SPSC response queues for each of the consumers assigned to the
  // producer" (§V-A).
  std::vector<std::unique_ptr<submission_q>> submissions(apps);
  std::vector<std::unique_ptr<response_q>> responses(oss);
  for (auto& q : submissions) q = std::make_unique<submission_q>(cap);
  for (auto& q : responses) q = std::make_unique<response_q>(cap);
  auto serve = [&](std::size_t j, const stage_clock& dequeue) {
    auto& sub = *submissions[j % apps];
    auto& resp = *responses[j];
    syscall_request req;
    for (;;) {
      // The dequeue sample includes the blocking wait for work — that
      // is the latency an executor actually pays per request.
      const std::uint64_t t0 = dequeue.on() ? rt::rdtsc() : 0;
      if (!sub.dequeue(req)) break;
      dequeue.since(t0);
      resp.enqueue(syscall_response{do_syscall(cfg)});
    }
  };
  auto make_call = [&](std::size_t a, enclave_thread&) {
    // "loop through the response queues for dequeuing values", starting
    // at the one that answered last.
    return [&sub = *submissions[a], queues = responses.data(), apps, oss, a,
            rr = a](std::uint64_t t0, const stage_clock& enqueue) mutable {
      sub.enqueue(syscall_request{});
      enqueue.since(t0);
      syscall_response r;
      rt::yielding_backoff bo;
      while (!queues[rr]->try_dequeue(r)) {
        if ((rr += apps) >= oss) {
          rr = a;
          bo.pause();
        }
      }
      return r.result;
    };
  };
  auto close = [&](std::size_t a) { submissions[a]->close(); };
  const auto res = run_service(cfg, oss, serve, make_call, close);

  if (cfg.collect_telemetry) {
    // Fold queue event counters into registry totals before the queues
    // die with this scope (no-op under the FFQ_OBSERVE=OFF observer).
    auto& reg = tel::registry::instance();
    for (const auto& q : submissions)
      reg.accumulate_queue("queue.sgx-ffq.submission", q->telemetry());
    for (const auto& q : responses)
      reg.accumulate_queue("queue.sgx-ffq.response", q->telemetry());
  }
  return res;
}

/// sgx_mpmc: one global generic MPMC queue for submissions (the paper's
/// "external MPMC queue"), per-app-thread MPMC response queues.
service_result run_sgx_mpmc(const service_config& cfg) {
  using response_q = ffq::baselines::vyukov_mpmc_queue<syscall_response>;
  const auto apps = static_cast<std::size_t>(cfg.app_threads);
  ffq::baselines::vyukov_mpmc_queue<syscall_request> submission(cfg.queue_capacity);
  std::vector<std::unique_ptr<response_q>> responses(apps);
  for (auto& q : responses) q = std::make_unique<response_q>(cfg.queue_capacity);
  // An app counts itself done only after its last reply, so once every
  // app is done every request has been taken and the executors stop.
  std::atomic<std::size_t> apps_done{0};
  auto serve = [&](std::size_t, const stage_clock& dequeue) {
    syscall_request req;
    rt::yielding_backoff bo;
    std::uint64_t wait_start = dequeue.on() ? rt::rdtsc() : 0;
    for (;;) {
      if (!submission.try_dequeue(req)) {
        if (apps_done.load(std::memory_order_acquire) == apps) break;
        bo.pause();
        continue;
      }
      bo.reset();
      dequeue.since(wait_start);
      responses[req.app_thread]->enqueue(syscall_response{do_syscall(cfg)});
      if (dequeue.on()) wait_start = rt::rdtsc();
    }
  };
  auto make_call = [&](std::size_t a, enclave_thread&) {
    return [&submission, &resp = *responses[a],
            req = syscall_request{static_cast<std::uint32_t>(a)}](
               std::uint64_t t0, const stage_clock& enqueue) {
      submission.enqueue(req);
      enqueue.since(t0);
      syscall_response r;
      rt::yielding_backoff bo;
      while (!resp.try_dequeue(r)) bo.pause();
      return r.result;
    };
  };
  auto count_done = [&](std::size_t) {
    apps_done.fetch_add(1, std::memory_order_release);
  };
  const auto oss = static_cast<std::size_t>(std::max(cfg.os_threads, 1));
  return run_service(cfg, oss, serve, make_call, count_done);
}

}  // namespace

service_result run_syscall_service(const service_config& cfg) {
  // native calls directly, from outside any enclave; sgx_sync takes the
  // traditional exit/trap/re-enter path around each call.
  auto direct = [&](auto&&...) {
    return [&](auto&&...) { return do_syscall(cfg); };
  };
  auto ocall = [&](std::size_t, enclave_thread& enclave) {
    return [&](auto...) { return enclave.ocall([&] { return do_syscall(cfg); }); };
  };
  service_result res{};
  switch (cfg.variant) {
    case service_variant::native:
      res = run_service(cfg, 0, nothing, direct, nothing);
      break;
    case service_variant::sgx_sync:
      res = run_service(cfg, 0, nothing, ocall, nothing);
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
