// queue_mirrors.hpp — the uninstrumented member sequences of the FFQ
// queues, kept in one place for the layout static_asserts of
// test_telemetry.cpp, test_trace.cpp and test_check.cpp.
//
// Each mirror replicates, verbatim, the member sequence the queue shipped
// with before telemetry, tracing and check yield points existed. A TU
// pins its own policies, instantiates the mirrors for its payload type and
// asserts sizeof/alignof parity with its own messages: the hooks it
// covers must add code, never data.
#pragma once

#include <atomic>
#include <cstdint>

#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"
#include "ffq/runtime/aligned_buffer.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/eventcount.hpp"

namespace mirror {

template <typename T>
using spmc_cell = ffq::core::detail::spmc_cell<T, true>;
template <typename T>
using mpmc_cell = ffq::core::detail::mpmc_cell<T, true>;

template <typename T>
struct spsc {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<spmc_cell<T>> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::int64_t> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::uint64_t gaps_created_;
};

template <typename T>
struct spmc {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<spmc_cell<T>> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::atomic<std::int64_t>> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::uint64_t gaps_created_;
  std::atomic<std::uint64_t> skips_;
};

template <typename T>
struct mpmc {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<mpmc_cell<T>> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::atomic<std::int64_t>> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::atomic<std::uint64_t> gaps_;
  std::atomic<std::uint64_t> skips_;
};

/// `SpscQueue` is the TU's policy-pinned inner queue.
template <typename SpscQueue>
struct waitable {
  SpscQueue q_;
  ffq::runtime::eventcount ec_;
};

}  // namespace mirror
