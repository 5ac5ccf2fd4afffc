// Tests for ffq::trace — the per-thread ring (wrap-around, seqlock
// snapshots), the registry, timestamp merging, the trace observer on real
// queues (including one hook feeding both the counters and the records)
// and the Chrome trace export (golden file, file writer). Everything
// instantiates the trace observer explicitly, so the suite is meaningful
// in every FFQ_OBSERVE build. The traced multi-threaded run with a
// correctness verdict is tools/trace_stress, registered as a ctest.
#include "ffq/trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/observe/observer.hpp"
#include "ffq/shard/shard.hpp"
#include "ffq/telemetry/telemetry.hpp"

namespace trc = ffq::trace;
namespace tel = ffq::telemetry;
using ffq::core::layout_aligned;

namespace {

using u64 = std::uint64_t;
using traced = ffq::observe::trace;
using spsc_q = ffq::core::spsc_queue<u64, layout_aligned, traced>;
using spmc_q = ffq::core::spmc_queue<u64, layout_aligned, traced>;
using waitable_q = ffq::core::waitable_spsc_queue<u64, layout_aligned, traced>;

trc::event_record make_rec(std::uint64_t seq, std::uint64_t tsc,
                           trc::event_type type, std::int64_t arg,
                           std::uint16_t queue = 0, std::uint32_t dur = 0) {
  trc::event_record r;
  r.seq = seq;
  r.tsc = tsc;
  r.arg = arg;
  r.type = type;
  r.queue = queue;
  r.dur = dur;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

TEST(TraceZeroCost, PolicyTagsAreCoherent) {
  EXPECT_TRUE(traced::kEnabled);
  EXPECT_TRUE(traced::kTrace);
  EXPECT_FALSE(ffq::observe::off::kTrace);
#if defined(FFQ_TRACE) && FFQ_TRACE
  EXPECT_TRUE((std::is_same_v<ffq::observe::default_observer, traced>));
#elif defined(FFQ_TELEMETRY) && FFQ_TELEMETRY
  EXPECT_TRUE(
      (std::is_same_v<ffq::observe::default_observer, ffq::observe::counters>));
#else
  EXPECT_TRUE(
      (std::is_same_v<ffq::observe::default_observer, ffq::observe::off>));
#endif
}

// ---------------------------------------------------------------------------
// Event record packing.
// ---------------------------------------------------------------------------

TEST(TraceEvent, PackUnpackRoundTrip) {
  const std::uint64_t w3 = trc::event_record::pack_word3(
      trc::event_type::dwcas_retry, 0xBEEF, 0xDEADBEEF);
  EXPECT_EQ(trc::event_record::unpack_type(w3), trc::event_type::dwcas_retry);
  EXPECT_EQ(trc::event_record::unpack_queue(w3), 0xBEEF);
  EXPECT_EQ(trc::event_record::unpack_dur(w3), 0xDEADBEEFu);
}

TEST(TraceEvent, DurationSaturates) {
  EXPECT_EQ(trc::saturate_dur(0), 0u);
  EXPECT_EQ(trc::saturate_dur(0xffffffffULL), 0xffffffffu);
  EXPECT_EQ(trc::saturate_dur(0x1'0000'0000ULL), 0xffffffffu);
}

TEST(TraceEvent, NamesAndDurationClassification) {
  EXPECT_STREQ(trc::to_string(trc::event_type::enqueue), "enqueue");
  EXPECT_STREQ(trc::to_string(trc::event_type::gap_created), "gap");
  EXPECT_STREQ(trc::to_string(trc::event_type::consumer_skip), "skip");
  EXPECT_TRUE(trc::is_duration(trc::event_type::enqueue));
  EXPECT_TRUE(trc::is_duration(trc::event_type::dequeue));
  EXPECT_FALSE(trc::is_duration(trc::event_type::park));
  EXPECT_FALSE(trc::is_duration(trc::event_type::full_stall));
}

// ---------------------------------------------------------------------------
// The per-thread ring: snapshots, wrap-around, progress epoch.
// ---------------------------------------------------------------------------

TEST(TraceRing, SnapshotReturnsPushedRecordsOldestFirst) {
  trc::trace_ring ring(7, "t7", 16);
  ring.push(trc::event_type::enqueue, 3, 41, 1000, 12);
  ring.push(trc::event_type::dequeue, 3, 41, 2000, 7);
  ring.push(trc::event_type::gap_created, 3, 42, 3000, 0);

  const auto snap = ring.snapshot();
  EXPECT_EQ(snap.tid, 7u);
  EXPECT_EQ(snap.name, "t7");
  EXPECT_EQ(snap.written, 3u);
  ASSERT_EQ(snap.records.size(), 3u);
  EXPECT_EQ(snap.records[0].seq, 1u);
  EXPECT_EQ(snap.records[0].type, trc::event_type::enqueue);
  EXPECT_EQ(snap.records[0].tsc, 1000u);
  EXPECT_EQ(snap.records[0].arg, 41);
  EXPECT_EQ(snap.records[0].queue, 3u);
  EXPECT_EQ(snap.records[0].dur, 12u);
  EXPECT_EQ(snap.records[2].seq, 3u);
  EXPECT_EQ(snap.records[2].type, trc::event_type::gap_created);
}

// Satellite: wrap-around must overwrite the oldest records, keep the
// newest capacity-many, and keep seq numbers monotonic across the wrap
// so the loss is observable downstream.
TEST(TraceRing, WrapAroundKeepsNewestWithMonotonicSeqs) {
  constexpr std::size_t kCap = 8;
  trc::trace_ring ring(0, "wrap", kCap);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.push(trc::event_type::enqueue, 1, static_cast<std::int64_t>(i),
              100 + i, 1);
  }
  EXPECT_EQ(ring.written(), 20u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.records.size(), kCap);
  // Newest 8 of 20: seqs 13..20 (1-based), args 12..19, oldest first.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(snap.records[i].seq, 13 + i);
    EXPECT_EQ(snap.records[i].arg, static_cast<std::int64_t>(12 + i));
    EXPECT_EQ(snap.records[i].tsc, 112 + i);
  }
}

// A snapshot taken while another thread hammers the ring must only ever
// contain internally-consistent records (the seqlock contract): seq
// strictly increasing, payloads matching the generator's pattern.
TEST(TraceRing, ConcurrentSnapshotSeesOnlyConsistentRecords) {
  trc::trace_ring ring(0, "hot", 64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Payload pattern: arg == tsc == i, dur == i & 0xffff.
      ring.push(trc::event_type::enqueue, 9, static_cast<std::int64_t>(i), i,
                static_cast<std::uint32_t>(i & 0xffff));
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    const auto snap = ring.snapshot();
    std::uint64_t prev_seq = 0;
    for (const auto& r : snap.records) {
      EXPECT_GT(r.seq, prev_seq);
      prev_seq = r.seq;
      // seq is 1-based over the same counter that generates the payload.
      EXPECT_EQ(r.tsc, r.seq - 1);
      EXPECT_EQ(r.arg, static_cast<std::int64_t>(r.seq - 1));
      EXPECT_EQ(r.dur, static_cast<std::uint32_t>((r.seq - 1) & 0xffff));
      EXPECT_EQ(r.queue, 9u);
    }
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Registry: queue ids, thread rings, reset.
// ---------------------------------------------------------------------------

TEST(TraceRegistry, QueueIdsCountPerKind) {
  auto& reg = trc::registry::instance();
  reg.reset();
  const auto a = reg.register_queue("ffq-mpmc");
  const auto b = reg.register_queue("ffq-mpmc");
  const auto c = reg.register_queue("ffq-spsc");
  EXPECT_EQ(reg.queue_name(a), "ffq-mpmc#0");
  EXPECT_EQ(reg.queue_name(b), "ffq-mpmc#1");
  EXPECT_EQ(reg.queue_name(c), "ffq-spsc#0");
  EXPECT_EQ(reg.queue_name(999), "?");
}

TEST(TraceRegistry, ThreadRingIsCachedAndNameable) {
  auto& reg = trc::registry::instance();
  reg.reset();
  auto& r1 = reg.ring_for_this_thread();
  auto& r2 = reg.ring_for_this_thread();
  EXPECT_EQ(&r1, &r2);
  trc::set_thread_name("gtest-main");
  const auto snaps = reg.snapshot_all();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "gtest-main");
}

TEST(TraceRegistry, ResetInvalidatesCachedRings) {
  auto& reg = trc::registry::instance();
  reg.reset();
  auto& before = reg.ring_for_this_thread();
  before.push(trc::event_type::park, 0, 0, 1, 0);
  reg.reset();
  auto& after = reg.ring_for_this_thread();
  EXPECT_EQ(after.written(), 0u) << "stale cached ring after reset";
  EXPECT_EQ(reg.snapshot_all().size(), 1u);
}

// ---------------------------------------------------------------------------
// Merging: total order by (tsc, tid, seq) even with skewed cross-thread
// timestamps (satellite: the merge test with skewed clocks).
// ---------------------------------------------------------------------------

TEST(TraceMerge, OrdersByTscThenTidThenSeq) {
  trc::thread_snapshot a;
  a.tid = 0;
  a.records = {make_rec(1, 100, trc::event_type::enqueue, 0),
               make_rec(2, 300, trc::event_type::enqueue, 1)};
  trc::thread_snapshot b;
  b.tid = 1;
  // Skewed: this thread's clock runs "backwards" relative to its seq
  // order — the merge must still produce a deterministic total order.
  b.records = {make_rec(1, 200, trc::event_type::dequeue, 0),
               make_rec(2, 100, trc::event_type::dequeue, 1)};

  const auto merged = trc::merge_snapshots({a, b});
  ASSERT_EQ(merged.size(), 4u);
  // tsc 100 ties between (tid 0, seq 1) and (tid 1, seq 2): tid breaks it.
  EXPECT_EQ(merged[0].tid, 0u);
  EXPECT_EQ(merged[0].rec.seq, 1u);
  EXPECT_EQ(merged[1].tid, 1u);
  EXPECT_EQ(merged[1].rec.seq, 2u);
  EXPECT_EQ(merged[2].tid, 1u);
  EXPECT_EQ(merged[2].rec.seq, 1u);
  EXPECT_EQ(merged[3].tid, 0u);
  EXPECT_EQ(merged[3].rec.seq, 2u);
}

TEST(TraceMerge, SameTscSameTidOrdersBySeq) {
  trc::thread_snapshot a;
  a.tid = 3;
  a.records = {make_rec(5, 42, trc::event_type::enqueue, 0),
               make_rec(6, 42, trc::event_type::enqueue, 1)};
  const auto merged = trc::merge_snapshots({a});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].rec.seq, 5u);
  EXPECT_EQ(merged[1].rec.seq, 6u);
}

// ---------------------------------------------------------------------------
// Tracer hooks on real queues (single-threaded determinism first).
// ---------------------------------------------------------------------------

TEST(TraceQueues, SpscEmitsOneRecordPerOperation) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spsc_q q(64);
  for (u64 i = 1; i <= 10; ++i) q.enqueue(i);
  u64 v = 0;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_dequeue(v));
  EXPECT_FALSE(q.try_dequeue(v));

  // One record per operation, ranks as the queue protocol numbers them:
  // 0..9 published in order on this one queue, then 0..9 consumed.
  const auto snaps = reg.snapshot_all();
  ASSERT_EQ(snaps.size(), 1u);
  const auto& recs = snaps[0].records;
  ASSERT_EQ(recs.size(), 20u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto want = i < 10 ? trc::event_type::enqueue : trc::event_type::dequeue;
    EXPECT_EQ(recs[i].type, want) << "record " << i;
    EXPECT_EQ(recs[i].arg, static_cast<std::int64_t>(i % 10)) << "record " << i;
    EXPECT_EQ(reg.queue_name(recs[i].queue), "ffq-spsc#0");
  }
}

TEST(TraceQueues, BulkOperationsEmitPerItemRecords) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spmc_q q(64);
  const u64 in[5] = {1, 2, 3, 4, 5};
  q.enqueue_bulk(in, 5);
  u64 out[5] = {};
  ASSERT_EQ(q.dequeue_bulk(out, 5), 5u);

  const auto merged = trc::merge_snapshots(reg.snapshot_all());
  std::size_t enq = 0, deq = 0;
  for (const auto& e : merged) {
    enq += e.rec.type == trc::event_type::enqueue ? 1 : 0;
    deq += e.rec.type == trc::event_type::dequeue ? 1 : 0;
  }
  EXPECT_EQ(enq, 5u);
  EXPECT_EQ(deq, 5u);
}

TEST(TraceQueues, WaitableEmitsParkAndWake) {
  auto& reg = trc::registry::instance();
  reg.reset();
  waitable_q q(64);
  std::thread consumer([&] {
    trc::set_thread_name("consumer");
    u64 v = 0;
    while (q.dequeue(v)) {
    }
  });
  // Give the consumer time to spin out and park on the eventcount, so
  // the enqueue takes the traced wake path.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  q.enqueue(1);
  q.close();
  consumer.join();

  std::size_t parks = 0, wakes = 0;
  for (const auto& s : reg.snapshot_all()) {
    for (const auto& r : s.records) {
      parks += r.type == trc::event_type::park ? 1 : 0;
      wakes += r.type == trc::event_type::wake ? 1 : 0;
    }
  }
  EXPECT_GE(parks, 1u);
  EXPECT_GE(wakes, 1u);
}

// ---------------------------------------------------------------------------
// One hook, both sinks: under the trace observer every counted event is
// also a trace record, so each counter equals its record count.
// ---------------------------------------------------------------------------

namespace {

std::size_t count_records(trc::event_type type) {
  std::size_t n = 0;
  for (const auto& s : trc::registry::instance().snapshot_all()) {
    for (const auto& r : s.records) n += r.type == type ? 1 : 0;
  }
  return n;
}

// The forced-gap wrap: a capacity-4 ring holds 4 items, so the 5th
// enqueue announces a gap at every cell and stalls until the consumer
// frees one; the consumer later steps over those 4 gap ranks.
template <typename Q>
void expect_gaps_and_skips_feed_both_sinks() {
  trc::registry::instance().reset();
  Q q(4);
  for (u64 v = 0; v < 4; ++v) q.enqueue(v);
  std::thread producer([&] { q.enqueue(4); });
  while (q.telemetry().full_stalls() == 0) std::this_thread::yield();
  u64 out = 0;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.dequeue(out));
  producer.join();

  EXPECT_EQ(q.gaps_created(), 4u);
  EXPECT_EQ(q.consumer_skips(), 4u);
  EXPECT_EQ(count_records(trc::event_type::gap_created), q.gaps_created());
  EXPECT_EQ(count_records(trc::event_type::consumer_skip),
            q.consumer_skips());
}

}  // namespace

TEST(TraceObserver, SpscGapsAndSkipsFeedBothSinks) {
  expect_gaps_and_skips_feed_both_sinks<spsc_q>();
}

TEST(TraceObserver, SpmcGapsAndSkipsFeedBothSinks) {
  expect_gaps_and_skips_feed_both_sinks<spmc_q>();
}

TEST(TraceObserver, WaitableParksAndWakesFeedBothSinks) {
  trc::registry::instance().reset();
  waitable_q q(8);
  std::thread consumer([&] {
    u64 out = 0;
    ASSERT_TRUE(q.dequeue(out));
  });
  // Wait until the consumer is parked so the enqueue takes the wake path.
  while (q.approx_waiters() == 0) std::this_thread::yield();
  q.enqueue(42);
  consumer.join();

  EXPECT_GE(q.telemetry().parks(), 1u);
  EXPECT_GE(q.telemetry().wakes(), 1u);
  EXPECT_EQ(count_records(trc::event_type::park), q.telemetry().parks());
  EXPECT_EQ(count_records(trc::event_type::wake), q.telemetry().wakes());
}

TEST(TraceObserver, FabricStealsAndSweepsFeedBothSinks) {
  trc::registry::instance().reset();
  ffq::shard::fabric<long long, layout_aligned, traced> fab(2, 64);
  auto c0 = fab.consumer();  // cursor starts at shard 0
  auto p1 = fab.producer(1);
  for (int i = 0; i < 10; ++i) p1.enqueue(i);
  std::vector<long long> buf(16);
  // Shard 0 is empty and shard 1 holds 10: the drain must steal.
  ASSERT_EQ(c0.try_dequeue_bulk(buf.begin(), buf.size()), 10u);
  long long v = 0;
  EXPECT_FALSE(c0.try_dequeue(v));  // fabric empty: a full sweep fails

  const auto& t = fab.telemetry();
  EXPECT_EQ(t.steals(), 1u);
  EXPECT_GE(t.empty_sweeps(), 1u);
  EXPECT_EQ(count_records(trc::event_type::shard_steal), t.steals());
  EXPECT_EQ(count_records(trc::event_type::empty_sweep), t.empty_sweeps());
}

// ---------------------------------------------------------------------------
// Export: golden file (byte-stable contract) and the file writer.
// ---------------------------------------------------------------------------

namespace {

/// Deterministic fixture for the export tests: two threads over one
/// registered queue, with an escaping-hostile thread name, a cross-thread
/// tsc tie, every event class (X, i), and a counter overlay.
std::vector<trc::thread_snapshot> golden_snapshots() {
  trc::thread_snapshot p;
  p.tid = 0;
  p.name = "producer-0";
  p.written = 4;
  p.records = {
      make_rec(1, 1000, trc::event_type::enqueue, 0, 0, 250),
      make_rec(2, 2000, trc::event_type::enqueue, 1, 0, 125),
      make_rec(3, 2500, trc::event_type::gap_created, 2, 0),
      make_rec(4, 3500, trc::event_type::full_stall, 3, 0),
  };
  trc::thread_snapshot c;
  c.tid = 1;
  c.name = "consumer \"0\"\\path\n";  // exercises the JSON escaper
  c.written = 4;
  c.records = {
      make_rec(1, 1500, trc::event_type::dequeue, 0, 0, 500),
      make_rec(2, 2000, trc::event_type::consumer_skip, 2, 0),  // tsc tie
      make_rec(3, 2600, trc::event_type::dequeue, 1, 0, 100),
      make_rec(4, 2700, trc::event_type::park, 0, 0),
  };
  return {p, c};
}

tel::metrics_snapshot golden_metrics() {
  tel::metrics_snapshot snap;
  snap.counters["queue.ffq-mpmc/consumer_skips"] = 1;
  snap.counters["queue.ffq-mpmc/gaps_created"] = 1;
  return snap;
}

}  // namespace

TEST(TraceExport, JsonMatchesGoldenFile) {
  auto& reg = trc::registry::instance();
  reg.reset();
  ASSERT_EQ(reg.register_queue("ffq-mpmc"), 0u);

  const auto metrics = golden_metrics();
  trc::export_options opts;
  opts.ticks_per_us = 1000.0;  // pinned: 1000 ticks = 1 µs, byte-stable
  opts.metrics = &metrics;
  const std::string produced = trc::chrome_trace_json(golden_snapshots(), opts);

  // Keep the produced text inspectable (and regeneratable) on mismatch.
  {
    std::ofstream f("/tmp/ffq_trace_v1_produced.json", std::ios::binary);
    f << produced;
  }
  const std::string golden =
      slurp(std::string(FFQ_GOLDEN_DIR) + "/trace_v1.json");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(produced, golden)
      << "trace JSON drifted from tests/golden/trace_v1.json; if the schema "
         "changed intentionally, bump kTraceSchema and regenerate from "
         "/tmp/ffq_trace_v1_produced.json";
}

TEST(TraceExport, TimestampsAreRebasedAndScaled) {
  auto& reg = trc::registry::instance();
  reg.reset();
  reg.register_queue("ffq-mpmc");
  trc::export_options opts;
  opts.ticks_per_us = 1000.0;
  const std::string text = trc::chrome_trace_json(golden_snapshots(), opts);
  // min tsc (1000) maps to ts 0.000; the 250-tick dur maps to 0.250 µs.
  EXPECT_NE(text.find("\"ts\":0.000,\"dur\":0.250"), std::string::npos);
  // tsc 2000 -> 1.000 µs after rebasing.
  EXPECT_NE(text.find("\"ts\":1.000"), std::string::npos);
}

// write_chrome_trace writes exactly the document chrome_trace_json
// renders for the registry's snapshots; the golden test above pins that
// rendering byte for byte.
TEST(TraceExport, WriteChromeTraceProducesParseableFile) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spmc_q q(64);
  trc::set_thread_name("exporter-test");
  for (u64 i = 1; i <= 4; ++i) q.enqueue(i);
  u64 v = 0;
  while (q.try_dequeue(v)) {
  }
  trc::export_options opts;
  opts.ticks_per_us = 1000.0;  // pinned, so both renderings agree
  const std::string path = "/tmp/ffq_test_trace_export.json";
  ASSERT_TRUE(trc::write_chrome_trace(path, opts));
  const std::string written = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(written, trc::chrome_trace_json(reg.snapshot_all(), opts));
  EXPECT_NE(written.find("\"name\":\"exporter-test\""), std::string::npos);
}
