// Common battery for the MPMC baseline queues: MS-queue, CC-Queue, LCRQ,
// WFQueue, Vyukov, HTM-queue. Each queue exposes a slightly different
// API (per-thread handles, try- vs blocking ops, bounded vs unbounded);
// a small driver shim per queue normalizes that for the shared checks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "ffq/baselines/baselines.hpp"

using namespace ffq::baselines;

// ---------------------------------------------------------------------------
// Driver shims.
// ---------------------------------------------------------------------------

struct ms_driver {
  using queue = ms_queue<std::uint64_t>;
  static constexpr bool kBounded = false;
  struct ctx {};
  static queue* make() { return new queue(); }
  static ctx make_ctx(queue&, int) { return {}; }
  static void enqueue(queue& q, ctx&, std::uint64_t v) { q.enqueue(v); }
  static bool try_dequeue(queue& q, ctx&, std::uint64_t& out) {
    return q.try_dequeue(out);
  }
};

struct cc_driver {
  using queue = cc_queue<std::uint64_t>;
  static constexpr bool kBounded = false;
  using ctx = cc_queue<std::uint64_t>::handle;
  static queue* make() { return new queue(); }
  static ctx make_ctx(queue& q, int) { return ctx(q); }
  static void enqueue(queue& q, ctx& c, std::uint64_t v) { q.enqueue(c, v); }
  static bool try_dequeue(queue& q, ctx& c, std::uint64_t& out) {
    return q.try_dequeue(c, out);
  }
};

struct lcrq_driver {
  using queue = lcrq_queue;
  static constexpr bool kBounded = false;
  struct ctx {};
  static queue* make() { return new queue(/*ring_size=*/64); }
  static ctx make_ctx(queue&, int) { return {}; }
  static void enqueue(queue& q, ctx&, std::uint64_t v) { q.enqueue(v); }
  static bool try_dequeue(queue& q, ctx&, std::uint64_t& out) {
    return q.try_dequeue(out);
  }
};

struct wf_driver {
  using queue = wf_queue;
  static constexpr bool kBounded = false;
  using ctx = wf_queue::handle;
  static queue* make() { return new queue(); }
  static ctx make_ctx(queue& q, int) { return ctx(q); }
  static void enqueue(queue& q, ctx& c, std::uint64_t v) { q.enqueue(c, v); }
  static bool try_dequeue(queue& q, ctx& c, std::uint64_t& out) {
    return q.try_dequeue(c, out);
  }
};

struct vyukov_driver {
  using queue = vyukov_mpmc_queue<std::uint64_t>;
  static constexpr bool kBounded = true;
  struct ctx {};
  static queue* make() { return new queue(1024); }
  static ctx make_ctx(queue&, int) { return {}; }
  static void enqueue(queue& q, ctx&, std::uint64_t v) { q.enqueue(v); }
  static bool try_dequeue(queue& q, ctx&, std::uint64_t& out) {
    return q.try_dequeue(out);
  }
};

struct htm_driver {
  using queue = htm_queue<std::uint64_t>;
  static constexpr bool kBounded = true;
  using ctx = htm_queue<std::uint64_t>::handle;
  static queue* make() { return new queue(1024); }
  static ctx make_ctx(queue& q, int id) {
    return q.make_handle(static_cast<std::uint64_t>(id) + 1);
  }
  static void enqueue(queue& q, ctx& c, std::uint64_t v) {
    while (!q.try_enqueue(c, v)) std::this_thread::yield();
  }
  static bool try_dequeue(queue& q, ctx& c, std::uint64_t& out) {
    return q.try_dequeue(c, out);
  }
};

// ---------------------------------------------------------------------------
// Battery.
// ---------------------------------------------------------------------------

template <typename D>
class MpmcBaseline : public ::testing::Test {};

using Drivers = ::testing::Types<ms_driver, cc_driver, lcrq_driver, wf_driver,
                                 vyukov_driver, htm_driver>;
TYPED_TEST_SUITE(MpmcBaseline, Drivers);

TYPED_TEST(MpmcBaseline, EmptyDequeueFails) {
  std::unique_ptr<typename TypeParam::queue> q(TypeParam::make());
  auto c = TypeParam::make_ctx(*q, 0);
  std::uint64_t out;
  EXPECT_FALSE(TypeParam::try_dequeue(*q, c, out));
  EXPECT_FALSE(TypeParam::try_dequeue(*q, c, out));
}

TYPED_TEST(MpmcBaseline, SingleThreadFifo) {
  std::unique_ptr<typename TypeParam::queue> q(TypeParam::make());
  auto c = TypeParam::make_ctx(*q, 0);
  for (std::uint64_t i = 1; i <= 100; ++i) TypeParam::enqueue(*q, c, i);
  std::uint64_t out;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(TypeParam::try_dequeue(*q, c, out));
    ASSERT_EQ(out, i);
  }
  EXPECT_FALSE(TypeParam::try_dequeue(*q, c, out));
}

TYPED_TEST(MpmcBaseline, AlternatingEnqueueDequeueWrapsBuffers) {
  std::unique_ptr<typename TypeParam::queue> q(TypeParam::make());
  auto c = TypeParam::make_ctx(*q, 0);
  std::uint64_t out;
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    TypeParam::enqueue(*q, c, i);
    ASSERT_TRUE(TypeParam::try_dequeue(*q, c, out));
    ASSERT_EQ(out, i);
  }
}

namespace {
constexpr std::uint64_t tag(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 48) | (seq + 1);  // +1 keeps 0 out (HTM default T{})
}
constexpr std::uint64_t tag_prod(std::uint64_t t) { return t >> 48; }
constexpr std::uint64_t tag_seq(std::uint64_t t) {
  return (t & ((1ULL << 48) - 1)) - 1;
}
}  // namespace

TYPED_TEST(MpmcBaseline, ConcurrentConservationAndPerProducerFifo) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 20000;

  std::unique_ptr<typename TypeParam::queue> q(TypeParam::make());
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<int> producers_done{0};
  std::atomic<bool> order_ok{true};
  std::vector<std::atomic<std::uint8_t>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto c = TypeParam::make_ctx(*q, p);
      for (std::uint64_t s = 0; s < kPerProducer; ++s) {
        TypeParam::enqueue(*q, c, tag(static_cast<std::uint64_t>(p), s));
      }
      producers_done.fetch_add(1);
    });
  }
  for (int cid = 0; cid < kConsumers; ++cid) {
    threads.emplace_back([&, cid] {
      auto c = TypeParam::make_ctx(*q, kProducers + cid);
      std::int64_t last[kProducers];
      for (auto& l : last) l = -1;
      std::uint64_t out;
      for (;;) {
        if (TypeParam::try_dequeue(*q, c, out)) {
          const auto p = tag_prod(out);
          const auto s = tag_seq(out);
          if (static_cast<std::int64_t>(s) <= last[p]) order_ok.store(false);
          last[p] = static_cast<std::int64_t>(s);
          if (seen[p * kPerProducer + s].fetch_add(1) != 0) order_ok.store(false);
          consumed.fetch_add(1);
        } else if (producers_done.load() == kProducers) {
          if (!TypeParam::try_dequeue(*q, c, out)) return;
          const auto p = tag_prod(out);
          const auto s = tag_seq(out);
          if (static_cast<std::int64_t>(s) <= last[p]) order_ok.store(false);
          last[p] = static_cast<std::int64_t>(s);
          if (seen[p * kPerProducer + s].fetch_add(1) != 0) order_ok.store(false);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // A consumer may exit while a sibling consumer still holds items? No —
  // items only leave via try_dequeue, and every dequeued item is counted
  // before the next loop iteration. But consumers can exit while other
  // consumers are mid-count, so re-drain here to be safe.
  {
    auto c = TypeParam::make_ctx(*q, 99);
    std::uint64_t out;
    while (TypeParam::try_dequeue(*q, c, out)) {
      const auto p = tag_prod(out);
      const auto s = tag_seq(out);
      if (seen[p * kPerProducer + s].fetch_add(1) != 0) order_ok.store(false);
      consumed.fetch_add(1);
    }
  }

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_TRUE(order_ok.load());
  for (auto& s : seen) {
    ASSERT_EQ(s.load(), 1u) << "lost or duplicated item";
  }
}

// MS-queue-specific: the destructor frees the nodes (and destroys the
// items) still linked when the queue dies. A leak or corruption in that
// path tends to crash under repetition, so run a few cycles.
TEST(MsQueue, DestructorReleasesRemainingNodes) {
  for (int round = 0; round < 20; ++round) {
    ms_queue<std::uint64_t> q;
    for (std::uint64_t i = 1; i <= 100; ++i) q.enqueue(i);
    std::uint64_t out;
    for (int d = 0; d < 50; ++d) ASSERT_TRUE(q.try_dequeue(out));
  }
}

// LCRQ-specific: ring closing and linking (tiny rings force it).
TEST(Lcrq, ClosesAndLinksRings) {
  lcrq_queue q(/*ring_size=*/2);
  std::uint64_t out;
  for (std::uint64_t i = 1; i <= 100; ++i) q.enqueue(i);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(q.try_dequeue(out));
    ASSERT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_dequeue(out));
}

// WFQueue-specific: segment allocation and reclamation over a long stream.
TEST(WfQueue, SegmentsAreRecycled) {
  wf_queue q;
  auto h = q.make_handle();
  std::uint64_t out;
  constexpr std::uint64_t kItems = wf_queue::kSegmentCells * 20;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    q.enqueue(h, i);
    ASSERT_TRUE(q.try_dequeue(h, out));
    ASSERT_EQ(out, i);
  }
  EXPECT_GE(q.segments_allocated(), 20u);
  EXPECT_GT(q.segments_freed(), 0u) << "reclamation must keep memory bounded";
  EXPECT_LT(q.segments_allocated() - q.segments_freed(), 5u);
}

// HTM-specific: per-handle transaction statistics accumulate.
TEST(HtmQueueBaseline, TracksTransactionStats) {
  htm_queue<std::uint64_t> q(64);
  auto h = q.make_handle(7);
  std::uint64_t out;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(q.try_enqueue(h, i));
    ASSERT_TRUE(q.try_dequeue(h, out));
  }
  EXPECT_EQ(h.stats().attempts, 100u);
  EXPECT_EQ(h.stats().commits + h.stats().fallbacks, 100u);
}

// Vyukov-specific: full ring reports full, frees after dequeue.
TEST(VyukovQueue, BoundedSemantics) {
  vyukov_mpmc_queue<std::uint64_t> q(4);
  for (std::uint64_t i = 1; i <= 4; ++i) EXPECT_TRUE(q.try_enqueue(i));
  EXPECT_FALSE(q.try_enqueue(5));
  std::uint64_t out;
  EXPECT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(out, 1u);
  EXPECT_TRUE(q.try_enqueue(5));
}
