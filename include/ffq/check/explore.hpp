// explore.hpp — the three explorations of a harness program over a real
// queue: seeded fuzz, delay-bounded exhaustive DFS, and replay.
//
// Each one runs run_program<Queue> (harness.hpp) from scratch per
// schedule, so every violation comes with a schedule string that
// replay_queue — and `check_explore --queue <q> --replay` — reproduces
// exactly.
//
// dfs_queue enumerates every schedule of the program within a delay bound
// (drivers.hpp, delay_dfs_driver). The search is stateless: it re-runs the
// shipped code for each schedule prefix instead of cloning states, so it
// checks the code that ships and needs no model of it. A spin-wait round
// (FFQ_CHECK_SPIN) is a free switch and never the default continuation,
// so spin loops end without a state memo. Liveness means: every explored
// schedule finishes within program_config::max_steps.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "ffq/check/drivers.hpp"
#include "ffq/check/harness.hpp"
#include "ffq/check/schedule.hpp"
#include "ffq/check/yield.hpp"
#include "ffq/runtime/rng.hpp"

namespace ffq::check {

struct explore_result {
  bool ok = true;
  /// False if the DFS stopped at its run cap with schedules left to run.
  bool exhausted = true;
  std::uint64_t runs = 0;
  run_result failure;  ///< first failing run (when !ok)
};

/// Run `schedules` independent programs over Queue, each under a fresh
/// random driver with a seed derived from `seed` via splitmix64; stops at
/// the first failure, whose schedule string reproduces it.
template <typename Queue>
explore_result fuzz_queue(const program_config& cfg, std::uint64_t seed,
                          std::uint64_t schedules) {
  explore_result out;
  ffq::runtime::splitmix64 seeder(seed);
  for (std::uint64_t i = 0; i < schedules; ++i) {
    random_driver d(seeder.next());
    run_result r = run_program<Queue>(cfg, d);
    ++out.runs;
    if (!r.ok) {
      out.ok = false;
      out.failure = std::move(r);
      break;
    }
  }
  return out;
}

struct dfs_options {
  /// Delays allowed per schedule (round-robin skips, drivers.hpp).
  int bound = 2;
  /// Runs before the search gives up, reporting exhausted = false.
  std::uint64_t max_runs = 1'000'000;
};

/// Every schedule of the program within the delay bound, or up to the
/// first violation.
template <typename Queue>
explore_result dfs_queue(const program_config& cfg,
                         const dfs_options& opt = {}) {
  explore_result out;
  delay_dfs_driver d(opt.bound);
  do {
    if (out.runs == opt.max_runs) {
      out.exhausted = false;
      break;
    }
    run_result r = run_program<Queue>(cfg, d);
    ++out.runs;
    if (!r.ok) {
      if (d.diverged()) {
        r.violation = "dfs: a replayed prefix offered different tasks (the "
                      "program is not deterministic)";
      }
      out.ok = false;
      out.failure = std::move(r);
      break;
    }
  } while (d.next());
  return out;
}

/// Replay a recorded schedule against Queue. Divergence (a pick naming a
/// finished task, or the schedule ending early) is reported as a
/// violation — the program must match the one that produced the trace.
template <typename Queue>
run_result replay_queue(const program_config& cfg, const schedule& s) {
  replay_driver d(s);
  run_result r = run_program<Queue>(cfg, d);
  if (!r.ok && d.diverged()) {
    r.violation = "replay: schedule diverged from the program (pick named a "
                  "task that was not runnable)";
  }
  return r;
}

/// The mutations by their CLI names, in enum order.
inline constexpr std::pair<mutation, std::string_view> kMutations[] = {
    {mutation::publish_before_data, "publish_before_data"},
    {mutation::skip_line29_recheck, "skip_line29_recheck"},
    {mutation::claim_publishes_directly, "claim_publishes_directly"},
    {mutation::gap_ignores_rank, "gap_ignores_rank"},
    {mutation::claim_ignores_gap, "claim_ignores_gap"},
    {mutation::throttle_ignores_rank_order, "throttle_ignores_rank_order"},
};

inline std::optional<mutation> parse_mutation(std::string_view name) {
  for (const auto& [m, n] : kMutations) {
    if (n == name) return m;
  }
  return std::nullopt;
}

}  // namespace ffq::check
