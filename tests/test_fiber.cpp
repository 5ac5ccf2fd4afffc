// Tests for the cooperative fiber scheduler — round-robin and externally
// stepped, and the context switch under both — and its integration with
// the FFQ queues (the paper's m:n application-thread architecture, §I).
#include "ffq/runtime/fiber.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <thread>
#include <vector>

#include "ffq/core/ffq.hpp"

namespace rt = ffq::runtime;

TEST(Fiber, RunsAllFibersToCompletion) {
  rt::fiber_scheduler sched;
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    sched.spawn([&done] { ++done; });
  }
  sched.run();
  EXPECT_EQ(done, 10);
}

TEST(Fiber, YieldInterleavesRoundRobin) {
  rt::fiber_scheduler sched;
  std::vector<int> order;
  for (int id = 0; id < 3; ++id) {
    sched.spawn([&order, id] {
      for (int round = 0; round < 3; ++round) {
        order.push_back(id);
        rt::fiber_scheduler::yield();
      }
    });
  }
  sched.run();
  // Round-robin: 0 1 2 0 1 2 0 1 2.
  ASSERT_EQ(order.size(), 9u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % 3)) << "position " << i;
  }
}

TEST(Fiber, InFiberDetection) {
  EXPECT_FALSE(rt::fiber_scheduler::in_fiber());
  rt::fiber_scheduler sched;
  bool inside = false;
  sched.spawn([&] { inside = rt::fiber_scheduler::in_fiber(); });
  sched.run();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(rt::fiber_scheduler::in_fiber());
}

TEST(Fiber, YieldOutsideFiberIsNoop) {
  rt::fiber_scheduler::yield();
  SUCCEED();
}

TEST(Fiber, SpawnFromInsideAFiber) {
  rt::fiber_scheduler sched;
  int children = 0;
  sched.spawn([&] {
    for (int i = 0; i < 4; ++i) {
      sched.spawn([&children] { ++children; });
    }
  });
  sched.run();
  EXPECT_EQ(children, 4);
}

// The switch keeps what the ABI makes callee-saved per fiber: A runs
// rounding upward with live integer and floating-point locals, B runs in
// the default mode, and each yields to the other several times.
TEST(Fiber, SwitchKeepsEachFibersRoundingModeAndLocals) {
  // 1/7 rounds down to nearest in SSE double (MXCSR) and in x87 long
  // double (control word) arithmetic, so FE_UPWARD changes both results.
  volatile double one = 1.0, seven = 7.0;
  const auto sse = [&] { return one / seven; };
  const auto x87 = [&] {
    return static_cast<long double>(one) / static_cast<long double>(seven);
  };
  const double sse_nearest = sse();
  const long double x87_nearest = x87();
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);

  rt::fiber_scheduler sched;
  int a_rounds = 0, b_rounds = 0;
  sched.spawn([&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    const double sse_up = sse();
    const long double x87_up = x87();
    ASSERT_GT(sse_up, sse_nearest);
    ASSERT_GT(x87_up, x87_nearest);
    std::uint64_t i0 = a_rounds + 1, i1 = i0 * 3, i2 = i1 * 5, i3 = i2 * 7;
    double d0 = sse_up * 2, d1 = d0 * 2;
    for (int r = 0; r < 5; ++r) {
      rt::fiber_scheduler::yield();
      EXPECT_EQ(std::fegetround(), FE_UPWARD) << "round " << r;
      EXPECT_EQ(sse(), sse_up) << "round " << r;
      EXPECT_EQ(x87(), x87_up) << "round " << r;
      EXPECT_EQ(i3, i2 * 7);
      EXPECT_EQ(i2, i1 * 5);
      EXPECT_EQ(i1, i0 * 3);
      EXPECT_EQ(d1, d0 * 2);
      ++i0, i1 = i0 * 3, i2 = i1 * 5, i3 = i2 * 7, d0 += 1, d1 = d0 * 2;
      ++a_rounds;
    }
    std::fesetround(FE_TONEAREST);
  });
  sched.spawn([&] {
    std::uint64_t j0 = b_rounds + 2, j1 = j0 * 17, j2 = j1 * 19;
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "round " << r;
      EXPECT_EQ(sse(), sse_nearest) << "round " << r;
      EXPECT_EQ(x87(), x87_nearest) << "round " << r;
      EXPECT_EQ(j2, j1 * 19);
      EXPECT_EQ(j1, j0 * 17);
      j0 += 3, j1 = j0 * 17, j2 = j1 * 19;
      ++b_rounds;
      rt::fiber_scheduler::yield();
    }
  });
  sched.run();
  EXPECT_EQ(a_rounds, 5);
  EXPECT_EQ(b_rounds, 5);
  // The thread that stepped them kept its own mode throughout.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, WaitUntilResumesWhenConditionHolds) {
  rt::fiber_scheduler sched;
  bool flag = false;
  std::vector<int> events;
  sched.spawn([&] {
    rt::fiber_scheduler::wait_until([&] { return flag; });
    events.push_back(2);
  });
  sched.spawn([&] {
    events.push_back(1);
    flag = true;
  });
  sched.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], 1);
  EXPECT_EQ(events[1], 2);
}

// ---------------------------------------------------------------------------
// The paper's architecture: m app fibers on ONE OS thread keep m syscall
// requests outstanding in the submission queue; an executor thread
// serves them. The fiber yields (instead of spinning) while its response
// is in flight — total wall time approaches max(per-fiber work), not the
// sum, because requests overlap.
// ---------------------------------------------------------------------------
TEST(Fiber, ManyOutstandingSyscallsFromOneOsThread) {
  constexpr int kFibers = 8;
  constexpr std::uint64_t kCallsPerFiber = 500;

  struct request {
    std::uint32_t fiber;
    std::uint64_t seq;
  };
  ffq::core::spmc_queue<request> submission(1 << 10);
  std::vector<std::unique_ptr<ffq::core::spsc_queue<std::uint64_t>>> responses;
  for (int f = 0; f < kFibers; ++f) {
    responses.push_back(
        std::make_unique<ffq::core::spsc_queue<std::uint64_t>>(1 << 8));
  }

  // Executor (the "OS thread pool" side): serves every fiber's requests
  // from the one SPMC queue.
  std::thread executor([&] {
    request req;
    while (submission.dequeue(req)) {
      responses[req.fiber]->enqueue(req.seq * 2 + 1);
    }
  });

  std::uint64_t completed = 0;
  std::atomic<std::uint64_t> in_flight_max{0};
  std::uint64_t in_flight = 0;
  {
    rt::fiber_scheduler sched;
    for (int f = 0; f < kFibers; ++f) {
      sched.spawn([&, f] {
        for (std::uint64_t s = 0; s < kCallsPerFiber; ++s) {
          submission.enqueue(request{static_cast<std::uint32_t>(f), s});
          ++in_flight;
          if (in_flight > in_flight_max.load()) in_flight_max.store(in_flight);
          std::uint64_t resp;
          // Paper §I: yield to the scheduler instead of spinning.
          rt::fiber_scheduler::wait_until(
              [&] { return responses[f]->try_dequeue(resp); });
          --in_flight;
          ASSERT_EQ(resp, s * 2 + 1);
          ++completed;
        }
      });
    }
    sched.run();
  }
  submission.close();
  executor.join();

  EXPECT_EQ(completed, static_cast<std::uint64_t>(kFibers) * kCallsPerFiber);
  // The whole point of m:n: multiple requests were genuinely overlapped
  // from a single OS thread.
  EXPECT_GT(in_flight_max.load(), 1u);
}
