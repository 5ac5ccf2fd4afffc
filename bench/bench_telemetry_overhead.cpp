// bench_telemetry_overhead — proves the counters observer's cost model
// (DESIGN.md §8):
//
//   * OFF is free by construction: `observe::queue_observer<off>` is an
//     empty class held through [[no_unique_address]] with no-op inline
//     members, so an off-observer queue is byte-identical to the
//     pre-telemetry layout (static_asserts in tests/test_check.cpp) and
//     its hot path compiles to the same code. The disabled rows below
//     ARE the baseline.
//   * ON must stay under 5% on the pairwise workload: every counter
//     lives on a miss/contention path (gap, skip, retry, stall), never
//     on the uncontended enqueue/dequeue fast path, and bumps are
//     relaxed fetch-adds on queue-local lines.
//
// Both observers are instantiated in this one binary — the comparison
// needs no rebuild and is independent of the FFQ_OBSERVE build mode.
// Think time is disabled (0 ns) so queue-operation cost is the entire
// measurement: the overhead reported here is the worst case, real
// workloads dilute it with actual work.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ffq/harness/pairwise.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/observe/observer.hpp"
#include "ffq/telemetry/registry.hpp"
#include "ffq/telemetry/telemetry.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

// The shared adapter, through a type local to this file: the pairwise
// loops then stay internal and inline into the threads' entry points.
// Instantiated on ffq_adapter directly, the disabled spsc loop landed at
// another code alignment and ran faster than the enabled one, whose
// instructions did not change: median spsc overhead +5.5% and +6.5% in
// two sets of 10 interleaved --quick runs, +2.6% and +2.9% through this
// type (4-vCPU Xeon/KVM). At ~2 ns/op the loop is front-end bound, and
// the 5% budget reads its placement.
template <typename Queue>
struct local_adapter : ffq_adapter<Queue> {};

template <typename Observer>
using spsc_q = core::spsc_queue<std::uint64_t, core::layout_aligned, Observer>;
template <typename Observer>
using spmc_q = core::spmc_queue<std::uint64_t, core::layout_aligned, Observer>;
template <typename Observer>
using mpmc_q = core::mpmc_queue<std::uint64_t, core::layout_aligned, Observer>;

struct family_result {
  std::string family;
  double off_ns_med = 0.0;  ///< median ns/op, disabled policy
  double on_ns_med = 0.0;   ///< median ns/op, enabled policy
  double off_ns_min = 0.0, off_ns_max = 0.0;  ///< min/max spread
  double on_ns_min = 0.0, on_ns_max = 0.0;
  double overhead_pct = 0.0;  ///< from the medians

  /// The ON median landing inside the OFF policy's own min/max spread
  /// means the measured difference is indistinguishable from run-to-run
  /// noise of a single binary.
  bool within_noise() const {
    return on_ns_med >= off_ns_min && on_ns_med <= off_ns_max;
  }
};

/// `min_pairs` is the row's floor on pairs per run, so that a run lasts
/// a few tens of ms however small --scale or --quick make the workload
/// (4-vCPU Xeon/KVM: spsc ~1.8, spmc ~5.6, mpmc ~70 ns/op). A ~1 ms run
/// (200k spsc pairs) read the enabled policy up to 31% faster than the
/// disabled one, which only adds work; runs of tens of ms do not.
/// kMinReps is every row's floor on runs per policy. When two identical
/// policies are compared, the enabled median falls outside the disabled
/// runs' min-max with probability up to C(n,(n+1)/2)/C(2n,(n+1)/2) over
/// n runs each: 1/12 at n = 5, 1/68 at n = 9. That is when the 5% budget
/// can fail identical code: at 5 reps it did, on the 2-thread mpmc row
/// and on both 1-thread rows.
constexpr int kMinReps = 9;

template <typename OffQueue, typename OnQueue>
family_result measure(int threads, std::uint64_t min_pairs,
                      const bench_cli& cli) {
  pairwise_config cfg;
  cfg.threads = threads;
  cfg.total_pairs = std::max(
      static_cast<std::uint64_t>(2'000'000 * cli.scale), min_pairs);
  cfg.think_min_ns = 0;  // no think time: measure pure queue-op cost
  cfg.think_max_ns = 0;
  cfg.params.capacity = 1 << 16;

  // Interleave OFF/ON runs so slow drift (thermal, noisy neighbours)
  // hits both policies equally, and compare median-of-N (N >= 9): the
  // earlier best-of-N comparison routinely reported *negative* overhead,
  // because the minimum is an extreme-value statistic — whichever policy
  // got lucky with the least-perturbed run "won" regardless of its true
  // cost. The median is robust against both tails, and the min/max
  // spread is reported alongside so residual scheduler noise (this
  // repo's CI containers are 1-2 shared cores) is visible in the table
  // instead of silently baked into a single point estimate.
  std::vector<double> off_ops, on_ops;
  const int reps = std::max(cli.runs, kMinReps);
  for (int r = 0; r < reps; ++r) {
    pairwise_config c = cfg;
    c.seed = cfg.seed + static_cast<std::uint64_t>(r) * 977;
    off_ops.push_back(run_pairwise_once<local_adapter<OffQueue>>(c));
    on_ops.push_back(run_pairwise_once<local_adapter<OnQueue>>(c));
  }

  const auto off = summarize(off_ops);
  const auto on = summarize(on_ops);
  family_result res;
  res.family = OffQueue::kName;
  res.off_ns_med = 1e9 / off.median;
  res.on_ns_med = 1e9 / on.median;
  res.off_ns_min = 1e9 / off.max;  // max ops/s == min ns/op
  res.off_ns_max = 1e9 / off.min;
  res.on_ns_min = 1e9 / on.max;
  res.on_ns_max = 1e9 / on.min;
  res.overhead_pct = (res.on_ns_med / res.off_ns_med - 1.0) * 100.0;
  std::printf("done: %s (%d thread%s)\n", OffQueue::kName, threads,
              threads == 1 ? "" : "s");
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_cli::parse(argc, argv);
  print_experiment_header(
      "Telemetry overhead — enabled vs disabled counter policy",
      "Pairwise enqueue/dequeue loop with zero think time; both policies "
      "in one binary. disabled == pre-telemetry baseline by construction.");

  std::vector<family_result> results;
  results.push_back(measure<spsc_q<observe::off>, spsc_q<observe::counters>>(
      1, 8'000'000, cli));
  results.push_back(measure<spmc_q<observe::off>, spmc_q<observe::counters>>(
      1, 3'000'000, cli));
  results.push_back(measure<mpmc_q<observe::off>, mpmc_q<observe::counters>>(
      2, 400'000, cli));

  table t({"queue", "disabled ns/op", "disabled min-max", "enabled ns/op",
           "enabled min-max", "overhead %", "within noise"});
  bool all_within_budget = true;
  for (const auto& r : results) {
    t.add_row({r.family, fixed(r.off_ns_med, 2),
               fixed(r.off_ns_min, 2) + "-" + fixed(r.off_ns_max, 2),
               fixed(r.on_ns_med, 2),
               fixed(r.on_ns_min, 2) + "-" + fixed(r.on_ns_max, 2),
               fixed(r.overhead_pct, 2), r.within_noise() ? "yes" : "no"});
    // The budget gate: the median overhead must stay under 5%, or the
    // difference must be within the disabled policy's own run-to-run
    // spread (a noisy box can push any point estimate past a few %).
    if (r.overhead_pct >= 5.0 && !r.within_noise()) all_within_budget = false;
  }
  std::printf("\n%s", t.str().c_str());
  std::printf("\nbudget: enabled-policy median overhead must stay < 5%% "
              "(or within the disabled policy's spread) -> %s\n",
              all_within_budget ? "PASS" : "FAIL");

  // The enabled-policy runs fed the registry through the pairwise
  // harness; exporting the snapshot demonstrates the full pipeline.
  const auto snap = telemetry::registry::instance().snapshot();
  if (!cli.csv_path.empty() && t.write_csv(cli.csv_path)) {
    std::printf("csv written to %s\n", cli.csv_path.c_str());
  }
  if (!cli.json_path.empty() &&
      t.write_json(cli.json_path, "telemetry_overhead",
                   snap.empty() ? nullptr : &snap)) {
    std::printf("json written to %s\n", cli.json_path.c_str());
  }
  if (!cli.metrics_path.empty() && snap.write_json_file(cli.metrics_path)) {
    std::printf("metrics written to %s\n", cli.metrics_path.c_str());
  }
  write_trace_if_requested(cli, snap.empty() ? nullptr : &snap);
  return all_within_budget ? 0 : 1;
}
