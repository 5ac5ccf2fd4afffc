// adapters.hpp — uniform drivers over every queue in the repository.
//
// The comparative benchmark (Fig. 8) must run the same loop over queues
// with different APIs: some need per-thread handles (cc_queue, wf_queue,
// htm_queue), some are bounded with try-semantics (vyukov, htm), FFQ's
// dequeue blocks. An adapter exposes:
//
//   using queue_type = ...;
//   static constexpr const char* name();
//   static queue_type* create(const bench_params&);
//   context make_context(queue_type&, int thread_id);
//   void enqueue(queue_type&, context&, uint64_t)      — blocks if full
//   bool dequeue(queue_type&, context&, uint64_t&)     — blocks if empty*
//
// (*) pairwise benchmarks guarantee the queue is non-empty on average;
// adapters spin-with-yield on transient emptiness, matching how the
// framework of [21] drives queues whose dequeue can return EMPTY.
//
// Queues with native batched operations (the FFQ family, DESIGN.md §5.8)
// additionally expose:
//
//   static constexpr bool kHasBulk = true;
//   void enqueue_bulk(queue_type&, context&, const uint64_t*, size_t)
//   size_t dequeue_bulk(queue_type&, context&, uint64_t*, size_t)
//
// so benchmarks can run the same workload in scalar or batched mode.
// Adapters without native bulk support report kHasBulk = false (the
// default below); callers fall back to per-item loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "ffq/baselines/baselines.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/runtime/backoff.hpp"

namespace ffq::harness {

/// Queue-construction knobs shared by all adapters.
struct bench_params {
  std::size_t capacity = 1 << 16;   ///< bounded queues / FFQ ring size
  std::size_t ring_size = 1 << 10;  ///< LCRQ segment ring size
};

namespace detail {
struct no_context {};

/// Spin helper for try-API queues inside pairwise benchmarks.
template <typename F>
void spin_until(F&& f) {
  ffq::runtime::yielding_backoff bo;
  while (!f()) bo.pause();
}
}  // namespace detail

// --- FFQ family ------------------------------------------------------------
// Each adapter defaults to its queue's own default layout, so the benches
// measure the cells the library ships (tests/test_layout.cpp).

template <typename Layout =
              typename ffq::core::spsc_queue<std::uint64_t>::layout_type>
struct ffq_spsc_adapter {
  using queue_type = ffq::core::spsc_queue<std::uint64_t, Layout>;
  using context = detail::no_context;
  static constexpr bool kHasBulk = true;
  static constexpr const char* name() { return "ffq-spsc"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    return q.dequeue(out);
  }
  static void enqueue_bulk(queue_type& q, context&, const std::uint64_t* v,
                           std::size_t n) {
    q.enqueue_bulk(v, n);
  }
  static std::size_t dequeue_bulk(queue_type& q, context&, std::uint64_t* out,
                                  std::size_t max_n) {
    return q.dequeue_bulk(out, max_n);
  }
};

template <typename Layout =
              typename ffq::core::spmc_queue<std::uint64_t>::layout_type>
struct ffq_spmc_adapter {
  using queue_type = ffq::core::spmc_queue<std::uint64_t, Layout>;
  using context = detail::no_context;
  static constexpr bool kHasBulk = true;
  static constexpr const char* name() { return "ffq-spmc"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    return q.dequeue(out);
  }
  static void enqueue_bulk(queue_type& q, context&, const std::uint64_t* v,
                           std::size_t n) {
    q.enqueue_bulk(v, n);
  }
  static std::size_t dequeue_bulk(queue_type& q, context&, std::uint64_t* out,
                                  std::size_t max_n) {
    return q.dequeue_bulk(out, max_n);
  }
};

template <typename Layout =
              typename ffq::core::mpmc_queue<std::uint64_t>::layout_type>
struct ffq_mpmc_adapter {
  using queue_type = ffq::core::mpmc_queue<std::uint64_t, Layout>;
  using context = detail::no_context;
  static constexpr bool kHasBulk = true;
  static constexpr const char* name() { return "ffq-mpmc"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    return q.dequeue(out);
  }
  static void enqueue_bulk(queue_type& q, context&, const std::uint64_t* v,
                           std::size_t n) {
    q.enqueue_bulk(v, n);
  }
  static std::size_t dequeue_bulk(queue_type& q, context&, std::uint64_t* out,
                                  std::size_t max_n) {
    return q.dequeue_bulk(out, max_n);
  }
};

/// kHasBulk detection with a false default, so generic benchmark loops
/// can fall back to scalar ops for baseline adapters.
template <typename Adapter, typename = void>
struct has_bulk : std::false_type {};
template <typename Adapter>
struct has_bulk<Adapter, std::enable_if_t<Adapter::kHasBulk>> : std::true_type {};
template <typename Adapter>
inline constexpr bool has_bulk_v = has_bulk<Adapter>::value;

// --- baselines ---------------------------------------------------------------

struct ms_adapter {
  using queue_type = ffq::baselines::ms_queue<std::uint64_t>;
  using context = detail::no_context;
  static constexpr const char* name() { return "msqueue"; }
  static queue_type* create(const bench_params&) { return new queue_type(); }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(out); });
    return true;
  }
};

struct cc_adapter {
  using queue_type = ffq::baselines::cc_queue<std::uint64_t>;
  using context = queue_type::handle;
  static constexpr const char* name() { return "ccqueue"; }
  static queue_type* create(const bench_params&) { return new queue_type(); }
  static context make_context(queue_type& q, int) { return context(q); }
  static void enqueue(queue_type& q, context& c, std::uint64_t v) {
    q.enqueue(c, v);
  }
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(c, out); });
    return true;
  }
};

struct lcrq_adapter {
  using queue_type = ffq::baselines::lcrq_queue;
  using context = detail::no_context;
  static constexpr const char* name() { return "lcrq"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.ring_size);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(out); });
    return true;
  }
};

struct wf_adapter {
  using queue_type = ffq::baselines::wf_queue;
  using context = queue_type::handle;
  static constexpr const char* name() { return "wfqueue"; }
  static queue_type* create(const bench_params&) { return new queue_type(); }
  static context make_context(queue_type& q, int) { return context(q); }
  static void enqueue(queue_type& q, context& c, std::uint64_t v) {
    q.enqueue(c, v);
  }
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(c, out); });
    return true;
  }
};

struct vyukov_adapter {
  using queue_type = ffq::baselines::vyukov_mpmc_queue<std::uint64_t>;
  using context = detail::no_context;
  static constexpr const char* name() { return "vyukov-mpmc"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(out); });
    return true;
  }
};

struct htm_adapter {
  using queue_type = ffq::baselines::htm_queue<std::uint64_t>;
  using context = queue_type::handle;
  static constexpr const char* name() { return "htm"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type& q, int id) {
    return q.make_handle(static_cast<std::uint64_t>(id) + 1);
  }
  static void enqueue(queue_type& q, context& c, std::uint64_t v) {
    detail::spin_until([&] { return q.try_enqueue(c, v); });
  }
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(c, out); });
    return true;
  }
};

}  // namespace ffq::harness
