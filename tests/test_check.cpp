// Tests for ffq::check — the cooperative scheduler (determinism, yield
// hooks), the schedule codec, the three oracles (conservation,
// per-producer FIFO, Wing–Gong linearizability), and the explorations of
// the real queues under the FFQ_CHECK_YIELD() instrumentation: the
// delay-bounded DFS (clean passes, the six mutation catches with
// replayable witnesses, its own mechanics), seeded fuzzing and replay.
//
// FFQ_CHECK is defined before any include so the queues in this TU carry
// live yield points in every preset, not just `check`. The mirror-struct
// static_asserts below prove that neither the off observer nor the yield
// points add data: the queues still match the member sequences they
// shipped with before any instrumentation existed.
#ifndef FFQ_CHECK
#define FFQ_CHECK 1
#endif

#include "ffq/check/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/runtime/aligned_buffer.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/eventcount.hpp"
#include "ffq/shard/shard.hpp"

namespace chk = ffq::check;
using fibers = ffq::runtime::fiber_scheduler;

namespace {

// Observer pinned to off so the mirror asserts below hold in every preset
// (the counters/trace presets flip the *default*, which legitimately
// grows the queues; test_telemetry.cpp pins those sizes).
using ffq::core::layout_aligned;
using obs_off = ffq::observe::off;
using q_spsc = ffq::core::spsc_queue<long long, layout_aligned, obs_off>;
using q_spmc = ffq::core::spmc_queue<long long, layout_aligned, obs_off>;
using q_mpmc = ffq::core::mpmc_queue<long long, layout_aligned, obs_off>;
using q_wait = ffq::core::waitable_spsc_queue<long long, layout_aligned, obs_off>;

// ---------------------------------------------------------------------------
// Zero cost: FFQ_CHECK=1 in this TU and the off observer in every queue,
// yet each queue still matches its uninstrumented member sequence — the
// observer hooks and FFQ_CHECK_YIELD() add code, never data. Each mirror
// replicates, verbatim, the members the queue shipped with before
// telemetry, tracing and check yield points existed.
// ---------------------------------------------------------------------------

namespace mirror {

using spmc_cell = ffq::core::detail::spmc_cell<long long, true>;
using mpmc_cell = ffq::core::detail::mpmc_cell<long long, true>;

struct spsc {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<spmc_cell> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::int64_t> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::uint64_t gaps_created_;
};

struct spmc {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<spmc_cell> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::atomic<std::int64_t>> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::uint64_t gaps_created_;
  std::atomic<std::uint64_t> skips_;
};

struct mpmc {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<mpmc_cell> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::atomic<std::int64_t>> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::atomic<std::uint64_t> gaps_;
  std::atomic<std::uint64_t> skips_;
};

struct waitable {
  q_spsc q_;
  ffq::runtime::eventcount ec_;
};

}  // namespace mirror

static_assert(sizeof(q_spsc) == sizeof(mirror::spsc),
              "the off observer and FFQ_CHECK yield points must not grow "
              "spsc_queue");
static_assert(sizeof(q_spmc) == sizeof(mirror::spmc),
              "the off observer and FFQ_CHECK yield points must not grow "
              "spmc_queue");
static_assert(sizeof(q_mpmc) == sizeof(mirror::mpmc),
              "the off observer and FFQ_CHECK yield points must not grow "
              "mpmc_queue");
static_assert(sizeof(q_wait) == sizeof(mirror::waitable),
              "the off observer and FFQ_CHECK yield points must not grow "
              "waitable_spsc_queue");
static_assert(alignof(q_spsc) == alignof(mirror::spsc));
static_assert(alignof(q_spmc) == alignof(mirror::spmc));
static_assert(alignof(q_mpmc) == alignof(mirror::mpmc));
static_assert(alignof(q_wait) == alignof(mirror::waitable));

}  // namespace

// ---------------------------------------------------------------------------
// Schedule codec.
// ---------------------------------------------------------------------------

TEST(CheckSchedule, FormatUsesRunLengthEncoding) {
  EXPECT_EQ(chk::format_schedule({{0, 0, 0, 1, 0, 2, 2}}), "0*3.1.0.2*2");
  EXPECT_EQ(chk::format_schedule({{5}}), "5");
  EXPECT_EQ(chk::format_schedule({{}}), "-");
}

TEST(CheckSchedule, ParseIsTheExactInverse) {
  const std::vector<std::vector<int>> cases = {
      {}, {0}, {1, 1, 1}, {0, 1, 0, 1}, {2, 2, 0, 0, 0, 1}};
  for (const auto& picks : cases) {
    const chk::schedule s{picks};
    const auto back = chk::parse_schedule(chk::format_schedule(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
}

TEST(CheckSchedule, ParseRejectsMalformedInput) {
  for (const char* bad : {"0..1", "*3", "1*", "1*0", "a", "0.1x", "1.*2"}) {
    EXPECT_FALSE(chk::parse_schedule(bad).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------------
// The stepped fibers the checker drives: externally ordered, deterministic,
// and reached from inside a queue through the FFQ_CHECK_YIELD() hook.
// ---------------------------------------------------------------------------

TEST(CheckSched, StepsTasksInExactlyTheOrderDriven) {
  auto run = [](const std::vector<int>& picks) {
    fibers s;
    std::vector<int> log;
    for (int t = 0; t < 3; ++t) {
      s.spawn([&log, t] {
        log.push_back(t);
        fibers::yield();
        log.push_back(t + 10);
      });
    }
    for (int p : picks) s.step(p);
    return log;
  };
  // Same schedule twice: bitwise-identical logs (determinism).
  const std::vector<int> picks = {2, 0, 2, 1, 0, 1};
  EXPECT_EQ(run(picks), run(picks));
  EXPECT_EQ(run(picks), (std::vector<int>{2, 0, 12, 1, 10, 11}));
}

TEST(CheckSched, StepOnFinishedTaskIsANoOp) {
  fibers s;
  int runs = 0;
  EXPECT_EQ(s.spawn([&] { ++runs; }), 0);
  EXPECT_FALSE(s.step(0));  // runs to completion, no yield
  EXPECT_FALSE(s.step(0));
  EXPECT_FALSE(s.step(1));  // no such fiber
  EXPECT_EQ(runs, 1);
}

TEST(CheckSched, QueueYieldPointsRouteToTheScheduler) {
  // An instrumented enqueue/try_dequeue hits FFQ_CHECK_YIELD() inside the
  // queue; the hook must bounce control back to the driver mid-operation.
  const chk::hook_guard hooked(&fibers::yield);
  fibers s;
  q_spsc q(4);
  std::vector<std::string> log;
  s.spawn([&] {
    q.enqueue(7);
    log.push_back("enqueued");
  });
  s.spawn([&] {
    long long v = 0;
    while (!q.try_dequeue(v)) fibers::yield();
    log.push_back("dequeued " + std::to_string(v));
  });
  // The producer's first step must stop at a yield point *inside*
  // enqueue — i.e. before "enqueued" is logged.
  EXPECT_TRUE(s.step(0));
  EXPECT_TRUE(log.empty());
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"enqueued", "dequeued 7"}));
}

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

TEST(CheckOracles, ConservationCatchesLossAndDuplication) {
  std::string why;
  EXPECT_TRUE(chk::check_conservation({1, 2, 3}, {3, 1, 2}, &why));
  EXPECT_FALSE(chk::check_conservation({1, 2, 3}, {1, 2}, &why));
  EXPECT_NE(why.find("lost"), std::string::npos);
  EXPECT_FALSE(chk::check_conservation({1, 2}, {1, 2, 2}, &why));
  EXPECT_NE(why.find("never enqueued"), std::string::npos);
}

TEST(CheckOracles, PerProducerFifoCatchesReordering) {
  std::string why;
  using S = std::vector<std::vector<long long>>;
  const auto v = [](long long p, long long s) {
    return p * chk::kProducerStride + s;
  };
  // Interleaving producers within a stream is fine; going backwards
  // within one producer is not.
  EXPECT_TRUE(chk::check_per_producer_fifo(
      S{{v(0, 0), v(1, 0), v(0, 1), v(1, 1)}}, &why));
  EXPECT_FALSE(
      chk::check_per_producer_fifo(S{{v(0, 1), v(1, 0), v(0, 0)}}, &why));
  EXPECT_NE(why.find("fifo"), std::string::npos);
  // Ordering across consumers is unconstrained.
  EXPECT_TRUE(chk::check_per_producer_fifo(S{{v(0, 1)}, {v(0, 0)}}, &why));
}

TEST(CheckOracles, LinearizabilityAcceptsAWitnessableHistory) {
  std::string why;
  // enq(1) and enq(2) overlap, then both are dequeued 2-first: legal,
  // because the overlapping enqueues may linearize in either order.
  const std::vector<chk::lin_op> h = {
      {0, true, 1, 0, 3},
      {1, true, 2, 1, 2},
      {2, false, 2, 4, 5},
      {2, false, 1, 6, 7},
  };
  EXPECT_TRUE(chk::check_linearizable(h, &why)) << why;
}

TEST(CheckOracles, LinearizabilityRejectsReorderedSequentialEnqueues) {
  std::string why;
  // enq(1) returns before enq(2) is invoked, so 1 precedes 2 in every
  // linearization — yet 2 came out first. No witness exists.
  const std::vector<chk::lin_op> h = {
      {0, true, 1, 0, 1},
      {0, true, 2, 2, 3},
      {1, false, 2, 4, 5},
      {1, false, 1, 6, 7},
  };
  EXPECT_FALSE(chk::check_linearizable(h, &why));
  EXPECT_NE(why.find("linearizability"), std::string::npos);
}

TEST(CheckOracles, LinearizabilityRejectsDequeueBeforeAnyEnqueue) {
  std::string why;
  const std::vector<chk::lin_op> h = {
      {0, false, 1, 0, 1},  // dequeue of 1 completed...
      {1, true, 1, 2, 3},   // ...before its enqueue was even invoked
  };
  EXPECT_FALSE(chk::check_linearizable(h, &why));
}

// ---------------------------------------------------------------------------
// Delay-bounded DFS over the real queues: clean shapes pass, each of the
// six mutations (yield.hpp) is caught with a witness that replays, and the
// search's own mechanics. The suite names ModelAlg1, ModelAlg1Bulk,
// ModelAlg2 and ModelChecker keep the verdicts of the hand-written model
// machines this checker replaced; every test now runs the shipped code.
// ---------------------------------------------------------------------------

namespace {

using q_shard =
    ffq::shard::fabric<long long, ffq::core::layout_compact, obs_off>;

// A deadlock surfaces as a liveness violation at the step bound; passing
// runs of these shapes take a few hundred steps.
constexpr std::uint64_t kMaxSteps = 5'000;

/// `producers` x `items` over `cells` cells; `consumers` blocking
/// consumers (dequeue / dequeue_bulk) that each take `quota` items.
chk::program_config blocking(std::size_t cells, int producers, int items,
                             int consumers, int quota,
                             chk::mutation m = chk::mutation::none) {
  return {.capacity = cells, .producers = producers, .consumers = consumers,
          .items_per_producer = items, .consumer_quota = quota, .mutate = m,
          .max_steps = kMaxSteps};
}

/// The same program with polling consumers (try_* until closed).
chk::program_config polling(std::size_t cells, int producers, int items,
                            int consumers,
                            chk::mutation m = chk::mutation::none) {
  return {.capacity = cells, .producers = producers, .consumers = consumers,
          .items_per_producer = items, .mutate = m, .max_steps = kMaxSteps};
}

chk::program_config batched(chk::program_config cfg, int enqueue_batch,
                            int dequeue_batch) {
  cfg.enqueue_batch = enqueue_batch;
  cfg.dequeue_batch = dequeue_batch;
  return cfg;
}

/// The fabric shapes: 2 producers, 2 polling consumers draining in
/// batches of 2; a fabric is not one FIFO, so no linearizability.
chk::program_config fabric_shape(std::size_t cells, int items,
                                 chk::mutation m = chk::mutation::none) {
  chk::program_config cfg = batched(polling(cells, 2, items, 2, m), 0, 2);
  cfg.check_linearizability = false;
  return cfg;
}

/// Every schedule within `bound` delays passes.
template <typename Queue>
void expect_clean(const chk::program_config& cfg, int bound = 2) {
  const auto r = chk::dfs_queue<Queue>(cfg, {.bound = bound});
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.runs, 1u);
  ::testing::Test::RecordProperty("runs", std::to_string(r.runs));
}

/// The DFS finds a violation of `oracle` within `bound` delays, and its
/// witness, through the schedule codec (the CLI workflow), replays to the
/// identical violation. Returns the witness.
template <typename Queue>
chk::schedule expect_caught(const chk::program_config& cfg, int bound,
                            const std::string& oracle) {
  const auto r = chk::dfs_queue<Queue>(cfg, {.bound = bound});
  ::testing::Test::RecordProperty("runs", std::to_string(r.runs));
  EXPECT_FALSE(r.ok) << "not caught in " << r.runs << " runs";
  if (r.ok) return {};
  EXPECT_EQ(r.failure.violation.rfind(oracle + ":", 0), 0u)
      << r.failure.violation;
  const auto parsed =
      chk::parse_schedule(chk::format_schedule(r.failure.sched));
  EXPECT_TRUE(parsed.has_value());
  if (!parsed) return {};
  const auto replay = chk::replay_queue<Queue>(cfg, *parsed);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.violation, r.failure.violation);
  return *parsed;
}

using chk::mutation;

}  // namespace

// Algorithm 1 (FFQ^s) with blocking consumers: claim_run<true> and
// resolve_rank, two cells so the producer wraps and announces gaps.

TEST(ModelAlg1, SingleConsumerVerifies) {
  expect_clean<q_spmc>(blocking(2, 1, 3, 1, 3));
}

TEST(ModelAlg1, TwoConsumersVerify) {
  expect_clean<q_spmc>(blocking(2, 1, 4, 2, 2));
}

TEST(ModelAlg1, TwoConsumersLargerRingVerifies) {
  expect_clean<q_spmc>(blocking(4, 1, 4, 2, 2));
}

TEST(ModelAlg1, ThreeConsumersVerify) {
  expect_clean<q_spmc>(blocking(2, 1, 3, 3, 1));
}

TEST(ModelAlg1, PublishBeforeDataIsCaught) {
  // Swapping lines 16/17 lets a consumer take a cell whose data was
  // never written: it hands out a value nobody enqueued.
  expect_caught<q_spmc>(
      blocking(2, 1, 4, 2, 2, mutation::publish_before_data), 2,
      "conservation");
}

TEST(ModelAlg1, SkippingLine29RecheckIsCaught) {
  // Without the rank re-check after gap ≥ rank, a consumer abandons a
  // rank whose item the producer published between its rank and gap
  // loads; the item is lost.
  expect_caught<q_spmc>(
      blocking(2, 1, 4, 2, 2, mutation::skip_line29_recheck), 2,
      "conservation");
}

// Batched operations (DESIGN.md §5.8): enqueue_bulk defers the tail store
// to the batch end, dequeue_bulk claims a run of ranks with one
// fetch-and-add; Alg. 1's cell protocol must carry over unchanged.

TEST(ModelAlg1Bulk, BulkProducerWithScalarConsumersVerifies) {
  expect_clean<q_spmc>(batched(blocking(2, 1, 4, 2, 2), 2, 0));
}

TEST(ModelAlg1Bulk, BulkProducerWithBulkConsumerVerifies) {
  expect_clean<q_spmc>(batched(blocking(2, 1, 4, 1, 4), 2, 2));
}

TEST(ModelAlg1Bulk, TwoBulkConsumersVerify) {
  // Two run claims race on head, and runs land on gap ranks.
  expect_clean<q_spmc>(batched(blocking(2, 1, 4, 2, 2), 2, 2));
}

TEST(ModelAlg1Bulk, PublishBeforeDataInBulkIsCaught) {
  // The line 16/17 order is per cell: a deferred tail store gives no
  // licence to publish a rank before its data.
  expect_caught<q_spmc>(
      batched(blocking(2, 1, 4, 2, 2, mutation::publish_before_data), 2, 0),
      2, "conservation");
}

TEST(ModelAlg1Bulk, SkippingRecheckInsideClaimedRunIsCaught) {
  // A blocking run claim can own a rank not yet produced; dropping it on
  // gap ≥ rank alone loses the item exactly as the scalar path does.
  expect_caught<q_spmc>(
      batched(blocking(2, 1, 4, 2, 2, mutation::skip_line29_recheck), 2, 2),
      2, "conservation");
}

// Algorithm 2 (FFQ^m): two producers race for cells with the -2
// reservation and the (rank, gap) DWCAS.

TEST(ModelAlg2, TwoProducersOneConsumerVerifies) {
  expect_clean<q_mpmc>(blocking(2, 2, 2, 1, 4));
}

TEST(ModelAlg2, TwoProducersTwoConsumersVerify) {
  expect_clean<q_mpmc>(blocking(2, 2, 2, 2, 2));
}

TEST(ModelAlg2, SingleCellRingVerifies) {
  // The smallest ring the queue accepts (two cells) under three items per
  // producer: ranks collide on every cell, again and again.
  expect_clean<q_mpmc>(blocking(2, 2, 3, 1, 6));
}

TEST(ModelAlg2, DirectPublishWithoutReserveIsCaught) {
  // Claiming a cell by writing its rank at once, with no -2 reservation,
  // publishes the cell before its data exists.
  expect_caught<q_mpmc>(
      blocking(2, 2, 2, 2, 2, mutation::claim_publishes_directly), 2,
      "conservation");
}

TEST(ModelAlg2, GapIgnoringRankIsCaught) {
  // The "enqueue in the past" race of §III-B: a gap installed without
  // validating the rank lets a producer deposit an item at a rank the
  // consumer already skipped. It takes three delays.
  expect_caught<q_mpmc>(blocking(2, 2, 2, 1, 4, mutation::gap_ignores_rank),
                        3, "conservation");
}

TEST(ModelAlg2, ClaimIgnoringGapIsCaught) {
  // A claim that validates only rank == -1 slips under a gap announced
  // for our rank; the item lands in the past.
  expect_caught<q_mpmc>(blocking(2, 2, 2, 1, 4, mutation::claim_ignores_gap),
                        2, "conservation");
}

TEST(ModelAlg2, ThrottleDeadlockRegressionIsCaught) {
  // The full-ring throttle waiting at a cell that holds a LATER rank:
  // the consumer parked on our rank and we wait for each other forever.
  expect_caught<q_mpmc>(
      blocking(2, 2, 2, 1, 4, mutation::throttle_ignores_rank_order), 2,
      "liveness");
}

// Clean shapes of every queue, with the consumers check_explore uses.

TEST(CheckExplore, CleanSpscModelPassesExhaustiveBound2) {
  expect_clean<q_spsc>(polling(4, 1, 6, 1));           // take
  expect_clean<q_spsc>(blocking(2, 1, 4, 1, 4));       // wait_take
  expect_clean<q_wait>(polling(4, 1, 6, 1));
}

TEST(CheckExplore, CleanSpmcModelPassesExhaustiveBound2) {
  expect_clean<q_spmc>(polling(4, 1, 6, 2));             // try_dequeue
  expect_clean<q_spmc>(batched(polling(4, 1, 6, 2), 0, 2));  // try_dequeue_bulk
}

TEST(CheckExplore, CleanMpmcPassesExhaustiveBound2) {
  expect_clean<q_mpmc>(polling(4, 2, 4, 2));
}

TEST(CheckExplore, CleanShardSchedulerModelPassesExhaustiveBound2) {
  expect_clean<q_shard>(fabric_shape(4, 4));
}

// The fabric-level stall: 2-cell shards under five items per producer, so
// one producer can finish while the other waits in its full-ring throttle.
TEST(CheckExplore, FabricStallShapeIsCleanAtBound2) {
  expect_clean<q_shard>(fabric_shape(2, 5));
}

TEST(CheckExplore, InjectedLine29BugIsCaughtWithReplayableWitness) {
  const auto cfg = blocking(2, 1, 4, 2, 2, mutation::skip_line29_recheck);
  const chk::schedule witness = expect_caught<q_spmc>(cfg, 2, "conservation");
  ASSERT_FALSE(witness.picks.empty());
  // The same schedule on the real code trips no oracle: the witness pins
  // the bug, not the schedule shape. (Once the runs part ways the schedule
  // may name a finished task or end early; only that may be reported.)
  auto clean_cfg = cfg;
  clean_cfg.mutate = mutation::none;
  const auto clean = chk::replay_queue<q_spmc>(clean_cfg, witness);
  EXPECT_TRUE(clean.ok || clean.violation.rfind("replay:", 0) == 0 ||
              clean.violation.rfind("schedule:", 0) == 0)
      << clean.violation;
}

// The masking pair: claims bounded by the published tail (the polling
// try paths and the fabric scheduler built on them) only claim decided
// ranks, so the line-29 race the blocking scalar path has is unreachable
// through them.
TEST(CheckExplore, ShardSchedulerMasksTheLine29RaceTheScalarPathHas) {
  const auto m = mutation::skip_line29_recheck;
  expect_caught<q_spmc>(blocking(2, 1, 4, 2, 2, m), 2, "conservation");
  expect_clean<q_spmc>(batched(polling(2, 1, 4, 2, m), 0, 2));
  expect_clean<q_shard>(fabric_shape(4, 4, m));
}

TEST(CheckExplore, ModelFuzzPassesAndIsSeedDeterministic) {
  const auto cfg = blocking(2, 1, 4, 2, 2);
  const auto r = chk::fuzz_queue<q_spmc>(cfg, 7, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation;
  EXPECT_EQ(r.runs, 300u);
  chk::random_driver d1(7), d2(7);
  const auto a = chk::run_program<q_spmc>(cfg, d1);
  const auto b = chk::run_program<q_spmc>(cfg, d2);
  EXPECT_EQ(a.sched, b.sched);
  EXPECT_EQ(a.streams, b.streams);
}

// The search itself.

TEST(ModelChecker, ReportsInexhaustiveOnTinyBudget) {
  const auto r = chk::dfs_queue<q_spmc>(blocking(2, 1, 4, 2, 2),
                                        {.bound = 2, .max_runs = 5});
  EXPECT_TRUE(r.ok) << r.failure.violation;
  EXPECT_FALSE(r.exhausted);
  EXPECT_EQ(r.runs, 5u);
}

// No schedule is run twice: every run of the search takes a schedule of
// its own (the stateless counterpart of telling states apart).
TEST(ModelChecker, WorldEncodingDistinguishesStates) {
  const auto cfg = blocking(2, 1, 4, 2, 2);
  chk::delay_dfs_driver d(2);
  std::set<std::string> seen;
  std::uint64_t runs = 0;
  do {
    const auto r = chk::run_program<q_spmc>(cfg, d);
    ASSERT_TRUE(r.ok) << r.violation;
    seen.insert(chk::format_schedule(r.sched));
    ++runs;
  } while (d.next());
  EXPECT_EQ(seen.size(), runs);
  EXPECT_EQ(chk::dfs_queue<q_spmc>(cfg, {.bound = 2}).runs, runs);
}

namespace {

/// A broken queue: hands the first item it dequeues out twice.
struct duplicating_queue : q_spsc {
  using q_spsc::q_spsc;
  bool try_dequeue(long long& v) noexcept {
    if (again_) {
      again_ = false;
      v = first_;
      return true;
    }
    if (!q_spsc::try_dequeue(v)) return false;
    if (!duplicated_) {
      duplicated_ = again_ = true;
      first_ = v;
    }
    return true;
  }
  bool again_ = false;
  bool duplicated_ = false;
  long long first_ = 0;
};

/// A broken queue: hands out one value nobody enqueued.
struct inventing_queue : q_spsc {
  using q_spsc::q_spsc;
  bool try_dequeue(long long& v) noexcept {
    if (!invented_) {
      invented_ = true;
      v = 7 * chk::kProducerStride;
      return true;
    }
    return q_spsc::try_dequeue(v);
  }
  bool invented_ = false;
};

}  // namespace

TEST(ModelChecker, DuplicateConsumeIsFlaggedByWorld) {
  const auto r = chk::dfs_queue<duplicating_queue>(polling(4, 1, 3, 1),
                                                   {.bound = 0});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.violation.find("duplicate"), std::string::npos)
      << r.failure.violation;
}

TEST(ModelChecker, OutOfRangeConsumeIsFlagged) {
  const auto r = chk::dfs_queue<inventing_queue>(polling(4, 1, 3, 1),
                                                 {.bound = 0});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.violation.find("never enqueued"), std::string::npos)
      << r.failure.violation;
}

TEST(CheckDfs, BoundZeroRunsExactlyOneSchedule) {
  EXPECT_EQ(chk::dfs_queue<q_spmc>(blocking(2, 1, 4, 2, 2), {.bound = 0}).runs,
            1u);
  EXPECT_EQ(chk::dfs_queue<q_mpmc>(polling(4, 2, 4, 2), {.bound = 0}).runs, 1u);
}

TEST(CheckDfs, IdenticalCallsReportTheSameRunCount) {
  const auto cfg = polling(4, 2, 4, 2);
  const auto a = chk::dfs_queue<q_mpmc>(cfg, {.bound = 1});
  const auto b = chk::dfs_queue<q_mpmc>(cfg, {.bound = 1});
  EXPECT_TRUE(a.ok && b.ok);
  EXPECT_GT(a.runs, 1u);
  EXPECT_EQ(a.runs, b.runs);
}

// The default schedule keeps running a task until it finishes or ends a
// spin-wait round, then moves round-robin to the next task; with no
// delays to spend there is nothing to backtrack to.
TEST(CheckDfs, DefaultScheduleKeepsATaskUntilItWaitsOrFinishes) {
  chk::delay_dfs_driver d(0);
  EXPECT_EQ(d.pick({0, 1, 2}, false), 0);
  EXPECT_EQ(d.pick({0, 1, 2}, false), 0);  // continue the running task
  EXPECT_EQ(d.pick({0, 1, 2}, true), 1);   // 0 spins: a free switch
  EXPECT_EQ(d.pick({0, 2}, false), 2);     // 1 finished: round-robin on
  EXPECT_EQ(d.pick({0, 2}, true), 0);      // wrap around
  EXPECT_FALSE(d.next());
}

// ---------------------------------------------------------------------------
// Real queues under the harness: seeded fuzz + schedule replay.
// ---------------------------------------------------------------------------

namespace {

chk::program_config small_cfg(int producers, int consumers) {
  chk::program_config cfg;
  cfg.capacity = 4;
  cfg.producers = producers;
  cfg.consumers = consumers;
  cfg.items_per_producer = 5;
  return cfg;
}

}  // namespace

TEST(CheckQueues, FuzzSpscPasses) {
  const auto r = chk::fuzz_queue<q_spsc>(small_cfg(1, 1), 11, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
}

TEST(CheckQueues, FuzzSpmcPasses) {
  const auto r = chk::fuzz_queue<q_spmc>(small_cfg(1, 2), 12, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
}

TEST(CheckQueues, FuzzMpmcPasses) {
  const auto r = chk::fuzz_queue<q_mpmc>(small_cfg(2, 2), 13, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
}

TEST(CheckQueues, FuzzWaitablePasses) {
  const auto r = chk::fuzz_queue<q_wait>(small_cfg(1, 1), 14, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
}

TEST(CheckQueues, BulkPathsFuzzCleanToo) {
  auto cfg = small_cfg(1, 1);
  cfg.enqueue_batch = 3;
  cfg.dequeue_batch = 2;
  const auto r = chk::fuzz_queue<q_spsc>(cfg, 15, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation;
}

// Both cell layouts: the packed default (q_shard) and dedicated lines.
TEST(CheckQueues, FuzzShardFabricBothModesPass) {
  using q_shard_aligned =
      ffq::shard::fabric<long long, layout_aligned, obs_off>;
  auto cfg = small_cfg(2, 2);
  cfg.dequeue_batch = 2;  // exercise the scheduler's bulk drain
  cfg.check_linearizability = false;  // sharded: not one FIFO by design
  const auto r = chk::fuzz_queue<q_shard_aligned>(cfg, 16, 300);
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
  const auto c = chk::fuzz_queue<q_shard>(cfg, 17, 300);
  EXPECT_TRUE(c.ok) << c.failure.violation
                    << "\nschedule: " << chk::format_schedule(c.failure.sched);
}

// A consumer may stop only after a try that began after the close: a
// fabric try visits its shards one at a time, so under a rule that stopped
// after any empty try that then saw the close, an item published during
// the try was lost. The bound-3 search of the stall shape reaches that
// schedule in run 6,450; its first 10,000 runs must stay clean.
TEST(CheckQueues, FabricConsumersStopOnlyAfterATryThatFollowsTheClose) {
  const auto r = chk::dfs_queue<q_shard>(fabric_shape(2, 5),
                                         {.bound = 3, .max_runs = 10'000});
  EXPECT_TRUE(r.ok) << r.failure.violation
                    << "\nschedule: " << chk::format_schedule(r.failure.sched);
  EXPECT_EQ(r.runs, 10'000u);
}

// A non-blocking claim is bounded by the tail it read and never owns a
// rank past it. Two try_dequeue_bulk consumers both read tail - head = 1
// before either claims; once the first has taken the only item, the
// second must return 0 instead of claiming rank 1 and waiting for it until
// close() (the shape behind the bench_shard_scaling hang).
TEST(CheckQueues, NonBlockingClaimNeverOvershootsTheTail) {
  const chk::hook_guard hooked(&fibers::yield);
  fibers s;
  q_spmc q(8);
  q.enqueue(7);
  std::size_t got[2] = {99, 99};
  for (int c = 0; c < 2; ++c) {
    s.spawn([&, c] {
      long long buf[4];
      got[c] = q.try_dequeue_bulk(buf, 4);
    });
  }
  // Step 1 stops before the claim, step 2 just after the tail read.
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(s.step(c));
    ASSERT_TRUE(s.step(c));
  }
  while (s.step(0)) {
  }
  EXPECT_EQ(got[0], 1u);
  int steps = 0;
  while (s.step(1) && ++steps < 10000) {
  }
  const bool returned = steps < 10000;  // the loop ended on a finished step
  q.close();  // releases an overshot claim so the task can finish
  while (s.step(1)) {
  }
  EXPECT_TRUE(returned) << "second consumer still waiting after " << steps
                        << " steps";
  EXPECT_EQ(got[1], 0u);
}

TEST(CheckQueues, RecordedScheduleReplaysToTheIdenticalRun) {
  const auto cfg = small_cfg(2, 2);
  chk::random_driver d(99);
  const auto first = chk::run_program<q_mpmc>(cfg, d);
  ASSERT_TRUE(first.ok) << first.violation;

  const auto again = chk::replay_queue<q_mpmc>(cfg, first.sched);
  ASSERT_TRUE(again.ok) << again.violation;
  EXPECT_EQ(again.streams, first.streams);
  EXPECT_EQ(again.steps, first.steps);
  EXPECT_EQ(again.sched, first.sched);
}
