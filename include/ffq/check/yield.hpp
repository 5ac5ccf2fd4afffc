// yield.hpp — the hooks that turn the real queues into checkable state
// machines: scheduling points, spin marks and mutation switches.
//
// The shipped queues run on hardware atomics, so ffq::check instruments
// their protocol loops with FFQ_CHECK_YIELD() scheduling points. In a
// normal build every macro here expands to nothing (or to `false`): no
// code, no data members, no layout change (mirror-struct static_asserts
// in tests/test_check.cpp prove byte-identical layouts, the same
// guarantee the observer makes). In a TU compiled with FFQ_CHECK=1 (the
// `check` CMake preset, or a test that defines it before including the
// queue headers) FFQ_CHECK_YIELD() calls through a thread-local hook that
// the harness (harness.hpp) points at runtime::fiber_scheduler::yield
// while it steps a program — so a queue running inside a checked fiber
// hands control back to the schedule driver at every protocol step, and
// ordinary code in the same build pays one thread-local load and a
// predicted-not-taken branch only.
//
// Yield points mark the boundaries the paper's arguments care about: the
// head/tail fetch-and-adds, each iteration of the cell-resolution spins,
// the rank-load → gap-load window of Algorithm 1 line 29, and the MPMC
// claim(-2) → publish window of Algorithm 2.
//
// FFQ_CHECK_SPIN() marks a spin-wait back-off: the task's next scheduling
// point ends a round in which it waited for another task. The delay-
// bounded DFS (drivers.hpp) never continues a spinning task by default,
// so a spin costs no schedule budget and cannot loop on its own.
//
// FFQ_CHECK_MUTANT(name) is true while the harness runs a program under
// that mutation (program_config::mutate). Each mutation reverts, at its
// real site, one safeguard the paper argues is necessary; the checker
// must flag every one of them (DESIGN.md §7).
#pragma once

namespace ffq::check {

using yield_hook_fn = void (*)();

/// Installed by run_program (harness.hpp) while it steps a program;
/// null whenever no checker is driving this thread.
inline thread_local yield_hook_fn tl_yield_hook = nullptr;

/// Set by FFQ_CHECK_SPIN(); the harness reads and clears it after each
/// step, so it tells whether the step ended at a spin-wait's yield.
inline thread_local bool tl_spinning = false;

/// The out-of-line body of FFQ_CHECK_YIELD() in FFQ_CHECK builds.
inline void yield_point() noexcept {
  if (tl_yield_hook != nullptr) tl_yield_hook();
}

/// The body of FFQ_CHECK_SPIN(): the next yield ends a spin-wait round.
inline void spin_point() noexcept { tl_spinning = true; }

/// The safeguards a checked run can switch off, one per real site.
enum class mutation {
  none,
  /// ring::publish stores the rank before the data (Alg. 1 lines 16/17
  /// swapped): a consumer can take a cell whose data was never written.
  publish_before_data,
  /// ring::resolve_rank, every consumer's rank-resolve, skips a rank on
  /// gap ≥ rank without re-checking the rank (Alg. 1 line 29): a
  /// just-published item is lost.
  skip_line29_recheck,
  /// mpmc place_at_rank claims a free cell by writing its rank at once,
  /// with no -2 reservation: the data is written after publication.
  claim_publishes_directly,
  /// mpmc place_at_rank announces a gap by a CAS of `gap` alone, not
  /// the (rank, gap) DWCAS: "enqueue in the past" (§III-B).
  gap_ignores_rank,
  /// mpmc place_at_rank claims by a CAS of `rank` alone: a gap announced
  /// over our rank slips in under the claim.
  claim_ignores_gap,
  /// mpmc's full-ring throttle waits at a cell holding a *later* rank:
  /// a consumer parked on our rank then waits forever.
  throttle_ignores_rank_order,
};

/// The mutation the running program was built with (FFQ_CHECK builds).
inline thread_local mutation tl_mutation = mutation::none;

inline bool mutant(mutation m) noexcept { return tl_mutation == m; }

/// RAII installer, used by the harness (and handy in tests).
class hook_guard {
 public:
  explicit hook_guard(yield_hook_fn fn) noexcept : prev_(tl_yield_hook) {
    tl_yield_hook = fn;
  }
  ~hook_guard() { tl_yield_hook = prev_; }

  hook_guard(const hook_guard&) = delete;
  hook_guard& operator=(const hook_guard&) = delete;

 private:
  yield_hook_fn prev_;
};

}  // namespace ffq::check

#if defined(FFQ_CHECK) && FFQ_CHECK
#define FFQ_CHECK_YIELD() ::ffq::check::yield_point()
#define FFQ_CHECK_SPIN() ::ffq::check::spin_point()
#define FFQ_CHECK_MUTANT(name) ::ffq::check::mutant(::ffq::check::mutation::name)
#else
#define FFQ_CHECK_YIELD() ((void)0)
#define FFQ_CHECK_SPIN() ((void)0)
#define FFQ_CHECK_MUTANT(name) false
#endif
