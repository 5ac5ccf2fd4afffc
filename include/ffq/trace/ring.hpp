// ring.hpp — the per-thread trace ring: wait-free single-writer,
// overwrite-oldest, readable by other threads while the writer runs.
//
// Design constraints, in order:
//   1. The writer is a queue hot path — pushing a record must be a few
//      plain stores, no RMW, no branches that can wait (wait-free).
//   2. The exporter reads rings of *live* threads, so a concurrent read
//      must be race-free in the C++ memory model and must detect slots
//      it lost to the writer mid-copy.
//   3. Bounded memory: fixed capacity, newest-N retained, oldest
//      overwritten. Loss is observable (seq numbers are monotonic, so a
//      gap in seq == dropped records), never silent.
//
// Each slot is four atomic 64-bit words (see event.hpp for the layout).
// The writer publishes a slot by storing words 1..3 relaxed and then
// word 0 (seq, nonzero) with release; `head_` (total records ever
// written) is bumped with a release store after the slot. A reader scans
// slots, loads word 0 (acquire), the payload words, then word 0 again:
// the slot is consistent iff both seq reads agree and are nonzero —
// a per-slot seqlock whose "lock word" is the monotonically-unique seq
// itself. An in-place overwrite always changes seq (by ±capacity), so
// the ABA window of a classic seqlock does not exist here.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ffq/trace/event.hpp"

namespace ffq::trace {

/// Everything a reader learns from one ring: identity plus the
/// consistent records it managed to copy, oldest-first.
struct thread_snapshot {
  std::uint32_t tid = 0;        ///< registry-assigned thread index
  std::string name;             ///< set_thread_name() or "thread-<tid>"
  std::uint64_t written = 0;    ///< total records the thread ever pushed
  std::vector<event_record> records;  ///< oldest-first, seq ascending
};

class trace_ring {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit trace_ring(std::uint32_t tid, std::string name,
                      std::size_t capacity = kDefaultCapacity)
      : tid_(tid), name_(std::move(name)), mask_(capacity - 1),
        slots_(capacity) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "trace ring capacity must be a power of two");
  }

  trace_ring(const trace_ring&) = delete;
  trace_ring& operator=(const trace_ring&) = delete;

  std::uint32_t tid() const noexcept { return tid_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Owner thread only. Wait-free: four relaxed stores, one release
  /// store, one release bump of the write count.
  void push(event_type type, std::uint16_t queue, std::int64_t arg,
            std::uint64_t tsc, std::uint32_t dur) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slot& s = slots_[static_cast<std::size_t>(h) & mask_];
    const std::uint64_t seq = h + 1;  // 1-based so 0 marks "never written"
    // Invalidate first so a concurrent reader that catches the slot
    // mid-rewrite sees mismatched seq reads, not a stale-but-plausible
    // pairing of old seq with new payload. The release fence is the
    // seqlock writer's store-store barrier: the 0 must land before any
    // payload word does.
    s.w[0].store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.w[1].store(tsc, std::memory_order_relaxed);
    s.w[2].store(static_cast<std::uint64_t>(arg), std::memory_order_relaxed);
    s.w[3].store(event_record::pack_word3(type, queue, dur),
                 std::memory_order_relaxed);
    s.w[0].store(seq, std::memory_order_release);
    head_.store(seq, std::memory_order_release);
  }

  /// Total records ever pushed (not capped by capacity).
  std::uint64_t written() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Copy the newest ≤ capacity records, any thread, writer may be live.
  /// Slots the writer overwrote mid-copy are simply omitted; the seq
  /// numbering lets readers (written vs records) see exactly what was
  /// lost. Records are returned oldest-first in seq order.
  thread_snapshot snapshot() const {
    thread_snapshot out;
    out.tid = tid_;
    out.name = name_;
    const std::uint64_t h = written();
    out.written = h;
    const std::uint64_t n = h < capacity() ? h : capacity();
    out.records.reserve(static_cast<std::size_t>(n));
    const std::uint64_t first = h - n;  // oldest seq - 1 still in the ring
    for (std::uint64_t i = first; i < h; ++i) {
      event_record r;
      if (read_slot(static_cast<std::size_t>(i) & mask_, r)) {
        // The writer may have lapped us: accept only the seq we expected
        // (i + 1); a later seq in this slot means the record was lost.
        if (r.seq == i + 1) out.records.push_back(r);
      }
    }
    return out;
  }

 private:
  struct alignas(32) slot {
    std::atomic<std::uint64_t> w[4] = {};
  };

  /// Seqlock-style consistent read of one slot. False when the slot is
  /// empty or was concurrently rewritten.
  bool read_slot(std::size_t idx, event_record& out) const noexcept {
    const slot& s = slots_[idx];
    const std::uint64_t seq_before = s.w[0].load(std::memory_order_acquire);
    if (seq_before == 0) return false;
    const std::uint64_t tsc = s.w[1].load(std::memory_order_relaxed);
    const std::uint64_t arg = s.w[2].load(std::memory_order_relaxed);
    const std::uint64_t w3 = s.w[3].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t seq_after = s.w[0].load(std::memory_order_relaxed);
    if (seq_before != seq_after) return false;
    out.seq = seq_before;
    out.tsc = tsc;
    out.arg = static_cast<std::int64_t>(arg);
    out.type = event_record::unpack_type(w3);
    out.queue = event_record::unpack_queue(w3);
    out.dur = event_record::unpack_dur(w3);
    return true;
  }

  std::uint32_t tid_;
  std::string name_;
  std::size_t mask_;
  std::vector<slot> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< records ever written
};

}  // namespace ffq::trace
