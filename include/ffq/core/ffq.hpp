// ffq.hpp — umbrella header for the FFQ queue family.
//
//   ffq::core::spsc_queue<T, Layout>  — single producer, single consumer
//   ffq::core::spmc_queue<T, Layout>  — Algorithm 1 (the paper's FFQ^s)
//   ffq::core::mpmc_queue<T, Layout>  — Algorithm 2 (the paper's FFQ^m)
//
// All three derive from detail::ring (ring.hpp), which holds the one
// cell protocol: the single-producer publish loop, the rank resolve and
// the multi-consumer run claim. Each queue adds only what differs: SPSC
// its consumer-private head, FFQ^m its DWCAS producer.
//
// Layouts (Fig. 2 ablation): layout_compact, layout_aligned,
// layout_randomized, layout_aligned_randomized. SPSC and FFQ^s default to
// layout_compact (one producer, runs drained in order: packed cells move
// half the lines per batch); FFQ^m defaults to layout_aligned (scalar
// producers DWCAS neighbouring cells). See DESIGN.md §6 "Cell layout".
#pragma once

#include "ffq/core/layout.hpp"    // IWYU pragma: export
#include "ffq/core/mpmc.hpp"      // IWYU pragma: export
#include "ffq/core/spmc.hpp"      // IWYU pragma: export
#include "ffq/core/spsc.hpp"      // IWYU pragma: export

namespace ffq {

inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";

/// Minimal interface every queue in this repository models (the FFQ
/// family, the baselines, and the harness adapters).
template <typename Q>
concept ConcurrentQueue = requires(Q q, typename Q::value_type v,
                                   typename Q::value_type& out) {
  typename Q::value_type;
  { q.enqueue(std::move(v)) };
  { q.dequeue(out) } -> std::convertible_to<bool>;
};

}  // namespace ffq
