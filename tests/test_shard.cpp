// Tests for ffq::shard — the sharded SPMC fabric (DESIGN.md §11): the
// zero-cost claim (the off observer leaves the fabric layout
// byte-identical, asserted against a mirror struct; the counters and
// trace layouts are pinned too), the packed default shard layout, the
// item-free consumer handle, conservation and per-producer FIFO under real
// threads in both cell layouts, and the scheduler's round-robin turns and
// steals and its telemetry counters (steals, drains, empty polls/sweeps).
#include "ffq/shard/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ffq/observe/observer.hpp"
#include "ffq/runtime/cacheline.hpp"

namespace sh = ffq::shard;
namespace obs = ffq::observe;

namespace {

template <typename Observer>
using fab = sh::fabric<long long, ffq::core::layout_aligned, Observer>;
using fab_plain = fab<obs::off>;
using fab_tel = fab<obs::counters>;

// --- zero-cost layout: mirror of the off-observer fabric ------------------
// The mirror repeats the fabric's members minus the observer; equal size
// and alignment proves [[no_unique_address]] erased it.

struct fabric_mirror {
  std::size_t shard_capacity;
  std::vector<std::unique_ptr<fab_plain::shard_type>> shards;
  std::atomic<std::uint64_t> next_consumer;
  std::atomic<bool> closed;
};

static_assert(sizeof(fab_plain) == sizeof(fabric_mirror),
              "the off observer must not grow the fabric");
static_assert(alignof(fab_plain) == alignof(fabric_mirror));

// The counting observers' layouts: the scheduler counter block, plus the
// 2-byte trace id under `trace`.
template <typename F>
constexpr bool layout_is(std::size_t size, std::size_t align) {
  return sizeof(F) == size && alignof(F) == align;
}
static_assert(layout_is<fab<obs::counters>>(152, 8),
              "the counters observer must keep the fabric at 152/8");
static_assert(layout_is<fab<obs::trace>>(160, 8),
              "the trace observer must keep the fabric at 160/8");

// The shipped default: every shard packs its cells (DESIGN.md §11).
static_assert(std::is_same_v<sh::fabric<long long>::shard_type,
                             ffq::core::spmc_queue<long long,
                                                   ffq::core::layout_compact,
                                                   obs::default_observer>>);

// A consumer handle is a cursor and a turn count: it holds no item between
// calls, so destroying one before the fabric drains cannot lose an item.
// It fills a cache line of its own, so the drains that write it never
// invalidate a neighbour that producers read on every enqueue.
using consumer_handle = sh::fabric<long long>::consumer_handle;
static_assert(std::is_trivially_destructible_v<consumer_handle>);
static_assert(alignof(consumer_handle) == ffq::runtime::kCacheLineSize &&
              sizeof(consumer_handle) == ffq::runtime::kCacheLineSize);

/// The typed tests' fabrics: the shipped default layout and the explicit
/// aligned one (the tsan and asan legs run both).
struct default_layout {
  using fabric = sh::fabric<long long>;
};
struct aligned_layout {
  using fabric = sh::fabric<long long, ffq::core::layout_aligned>;
};

/// Value encoding: producer p's i-th item is p * kStride + i, so streams
/// decompose into per-producer subsequences without a side channel.
constexpr long long kStride = 1'000'000;

/// Assert `stream` preserves each producer's enqueue order.
void expect_per_producer_fifo(const std::vector<long long>& stream) {
  std::map<long long, long long> last_seq;  // producer -> last seq seen
  for (long long v : stream) {
    const long long p = v / kStride;
    const long long i = v % kStride;
    auto it = last_seq.find(p);
    if (it != last_seq.end()) {
      ASSERT_LT(it->second, i) << "producer " << p << " reordered";
    }
    last_seq[p] = i;
  }
}

/// Run `producers` threads enqueuing `items` each through Fabric, drain
/// with `consumers` threads, and return the per-consumer streams.
template <typename Fabric>
std::vector<std::vector<long long>> run_fabric(Fabric& fab, int producers,
                                               int items, int consumers) {
  std::vector<std::thread> pts;
  std::atomic<int> left{producers};
  for (int p = 0; p < producers; ++p) {
    pts.emplace_back([&, p] {
      auto ep = fab.producer(static_cast<std::size_t>(p));
      for (int i = 0; i < items; ++i) {
        ep.enqueue(static_cast<long long>(p) * kStride + i);
      }
      if (left.fetch_sub(1) == 1) fab.close();
    });
  }
  std::vector<std::vector<long long>> streams(
      static_cast<std::size_t>(consumers));
  std::vector<std::thread> cts;
  for (int c = 0; c < consumers; ++c) {
    cts.emplace_back([&, c] {
      auto ep = fab.consumer();
      long long v = 0;
      while (ep.dequeue(v)) streams[static_cast<std::size_t>(c)].push_back(v);
    });
  }
  for (auto& t : pts) t.join();
  for (auto& t : cts) t.join();
  return streams;
}

/// Flatten, sort, and compare against the full expected multiset.
void expect_conservation(const std::vector<std::vector<long long>>& streams,
                         int producers, int items) {
  std::vector<long long> got;
  for (const auto& s : streams) got.insert(got.end(), s.begin(), s.end());
  std::sort(got.begin(), got.end());
  std::vector<long long> want;
  for (int p = 0; p < producers; ++p) {
    for (int i = 0; i < items; ++i) {
      want.push_back(static_cast<long long>(p) * kStride + i);
    }
  }
  ASSERT_EQ(got, want);
}

template <typename L>
class ShardFabricLayout : public ::testing::Test {};

using Layouts = ::testing::Types<default_layout, aligned_layout>;
TYPED_TEST_SUITE(ShardFabricLayout, Layouts);

}  // namespace

TEST(ShardFabric, ShapeAndLifecycle) {
  fab_plain fab(4, 64);
  EXPECT_EQ(fab.shards(), 4u);
  EXPECT_EQ(fab.shard_capacity(), 64u);
  EXPECT_FALSE(fab.closed());
  EXPECT_EQ(fab.approx_size(), 0);
  fab.close();
  EXPECT_TRUE(fab.closed());
}

TYPED_TEST(ShardFabricLayout, UnorderedConservationAndPerProducerFifo) {
  const int kProducers = 4, kItems = 5000, kConsumers = 2;
  typename TypeParam::fabric fab(kProducers, 1024);
  const auto streams = run_fabric(fab, kProducers, kItems, kConsumers);
  expect_conservation(streams, kProducers, kItems);
  for (const auto& s : streams) expect_per_producer_fifo(s);
}

TYPED_TEST(ShardFabricLayout, BulkEnqueueAndBulkDequeueAgree) {
  const int kProducers = 2, kItems = 4096;
  typename TypeParam::fabric fab(kProducers, 512);
  std::vector<std::thread> pts;
  std::atomic<int> left{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    pts.emplace_back([&, p] {
      auto ep = fab.producer(static_cast<std::size_t>(p));
      std::vector<long long> batch;
      for (int i = 0; i < kItems; ++i) {
        batch.push_back(static_cast<long long>(p) * kStride + i);
        if (batch.size() == 64) {
          ep.enqueue_bulk(batch.begin(), batch.size());
          batch.clear();
        }
      }
      if (!batch.empty()) ep.enqueue_bulk(batch.begin(), batch.size());
      if (left.fetch_sub(1) == 1) fab.close();
    });
  }
  std::vector<std::vector<long long>> streams(1);
  std::thread ct([&] {
    auto ep = fab.consumer();
    std::vector<long long> buf(128);
    for (;;) {
      const std::size_t n = ep.dequeue_bulk(buf.begin(), buf.size());
      if (n == 0) break;
      streams[0].insert(streams[0].end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  });
  for (auto& t : pts) t.join();
  ct.join();
  expect_conservation(streams, kProducers, kItems);
  expect_per_producer_fifo(streams[0]);
}

// The scheduler's telemetry: draining through the cursor counts drains
// and items; a consumer whose cursor shard is empty while another shard
// holds items must record a steal; polling a fully-empty fabric records
// empty polls and an empty sweep.
TEST(ShardFabric, SchedulerCountersCount) {
  fab_tel fab(2, 64);
  // consumer() handles rotate start cursors: first handle starts at 0.
  auto c0 = fab.consumer();
  auto p1 = fab.producer(1);
  for (int i = 0; i < 10; ++i) p1.enqueue(i);
  std::vector<long long> buf(16);
  // Cursor shard 0 is empty, shard 1 holds 10: this drain must steal.
  const std::size_t n = c0.try_dequeue_bulk(buf.begin(), buf.size());
  EXPECT_EQ(n, 10u);
  const auto& t = fab.telemetry();
  EXPECT_EQ(t.steals(), 1u);
  EXPECT_EQ(t.drains(), 1u);
  EXPECT_EQ(t.drained_items(), 10u);
  EXPECT_GE(t.empty_polls(), 1u);  // the cursor miss before the steal
  const auto sweeps_before = t.empty_sweeps();
  long long v = 0;
  EXPECT_FALSE(c0.try_dequeue(v));  // fabric empty: full sweep fails
  EXPECT_GT(t.empty_sweeps(), sweeps_before);
  // The histogram attributes the drain to its batch-size bucket.
  std::uint64_t hist_total = 0;
  t.for_each([&](const char* name, std::uint64_t val) {
    if (std::string(name).rfind("drain_batch_", 0) == 0) hist_total += val;
  });
  EXPECT_EQ(hist_total, 1u);
}

// A producer that keeps its shard full must not keep the consumer: while
// every shard holds items, one handle's visits cycle through all shards in
// turns of two full visits. Each visit's items are put back into the shard
// they came from, so every shard stays at its starting depth.
TEST(ShardFabric, TurnsCycleThroughShardsThatStayFull) {
  const std::size_t kShards = 3, kQuota = 64, kTurn = 2;
  sh::fabric<long long> fab(kShards, 1024);
  std::vector<decltype(fab)::producer_handle> prods;
  for (std::size_t p = 0; p < kShards; ++p) {
    prods.push_back(fab.producer(p));
    for (int i = 0; i < 512; ++i) {
      prods[p].enqueue(static_cast<long long>(p) * kStride + i);
    }
  }
  auto c = fab.consumer();  // first handle: cursor starts at shard 0
  std::vector<long long> buf(kQuota);
  for (std::size_t visit = 0; visit < 2 * kTurn * kShards; ++visit) {
    ASSERT_EQ(c.try_dequeue_bulk(buf.begin(), kQuota), kQuota);
    const std::size_t want = visit / kTurn % kShards;
    for (long long v : buf) {
      ASSERT_EQ(static_cast<std::size_t>(v / kStride), want)
          << "visit " << visit << " should drain shard " << want;
    }
    prods[want].enqueue_bulk(buf.begin(), kQuota);
  }
}

// A visit that under-fills ends its shard's turn at once, and a steal
// opens the stolen shard's turn: it gets one more visit, then round-robin
// resumes from there.
TEST(ShardFabric, StealAndUnderfillEndTurnsEarly) {
  sh::fabric<long long> fab(3, 1024);
  auto p0 = fab.producer(0);
  auto p1 = fab.producer(1);
  auto p2 = fab.producer(2);
  for (int i = 0; i < 300; ++i) p1.enqueue(kStride + i);
  for (int i = 0; i < 200; ++i) p2.enqueue(2 * kStride + i);
  auto c = fab.consumer();  // cursor on the empty shard 0
  std::vector<long long> buf(64);
  for (long long want : {1, 1, 2, 2}) {  // steal + one visit, then a turn
    ASSERT_EQ(c.try_dequeue_bulk(buf.begin(), buf.size()), buf.size());
    EXPECT_EQ(buf.front() / kStride, want);
  }
  for (int i = 0; i < 10; ++i) p0.enqueue(i);
  EXPECT_EQ(c.try_dequeue_bulk(buf.begin(), buf.size()), 10u);  // shard 0
  EXPECT_EQ(c.try_dequeue_bulk(buf.begin(), buf.size()), buf.size());
  EXPECT_EQ(buf.front() / kStride, 1);  // the short visit ended 0's turn
}

TEST(ShardFabric, ConsumerCursorsRotateAcrossHandles) {
  fab_tel fab(4, 64);
  // Fill only shard 2; the third handle starts there and drains with no
  // steal, proving consumer() spreads start cursors round-robin.
  auto p2 = fab.producer(2);
  for (int i = 0; i < 4; ++i) p2.enqueue(i);
  fab.consumer();  // the first two handles take start cursors 0 and 1
  fab.consumer();
  auto c2 = fab.consumer();
  std::vector<long long> buf(8);
  EXPECT_EQ(c2.try_dequeue_bulk(buf.begin(), buf.size()), 4u);
  EXPECT_EQ(fab.telemetry().steals(), 0u);
}

TEST(ShardFabric, BlockingDequeueReturnsFalseOnlyWhenClosedAndDrained) {
  fab_plain fab(2, 64);
  auto p0 = fab.producer(0);
  p0.enqueue(7);
  fab.close();
  auto c = fab.consumer();
  long long v = 0;
  ASSERT_TRUE(c.dequeue(v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(c.dequeue(v));
  EXPECT_FALSE(c.try_dequeue(v));
}
