// registry.hpp — process-wide ownership of trace rings and queue ids.
//
// Header-only on purpose: the queue templates (ffq_core is an INTERFACE
// library) emit records through this registry, so it cannot live in a
// linked .cpp the way telemetry::registry does — every target that
// instantiates a trace-observer queue must get it for free.
//
// Ownership model mirrors telemetry::latency_recorder: rings live in a
// deque (stable addresses) owned by the singleton and survive their
// thread's exit, so the exporter can merge a full run after workers have
// joined. `ring_for_this_thread()` is amortized-free: a thread_local
// cache holds the pointer and is re-validated against a generation
// counter so registry::reset() (tests, phase boundaries) cannot leave a
// dangling cached ring behind.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ffq/trace/ring.hpp"

namespace ffq::trace {

class registry {
 public:
  static registry& instance() {
    static registry r;
    return r;
  }

  /// The calling thread's ring, created and registered on first use.
  /// Safe to call from any thread at any time; the fast path is one
  /// thread_local load plus one relaxed generation check.
  trace_ring& ring_for_this_thread() {
    struct cache {
      trace_ring* ring = nullptr;
      std::uint64_t generation = 0;
    };
    thread_local cache c;
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (c.ring == nullptr || c.generation != gen) {
      c.ring = &make_ring();
      c.generation = gen;
    }
    return *c.ring;
  }

  /// Rename a ring's display track. Serialized with snapshot_all()
  /// through the registry mutex, because thread_snapshot copies the name
  /// string.
  void rename_ring(trace_ring& ring, std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    ring.set_name(std::string(name));
  }

  /// Register a queue instance; returns the id events carry. `kind` is
  /// the queue family's kName; the display name becomes "<kind>#<n>"
  /// with n counting instances of that kind.
  std::uint16_t register_queue(std::string_view kind) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t nth = 0;
    for (const auto& q : queues_) {
      nth += q.compare(0, kind.size(), kind) == 0 &&
                     q.size() > kind.size() && q[kind.size()] == '#'
                 ? 1
                 : 0;
    }
    queues_.push_back(std::string(kind) + "#" + std::to_string(nth));
    return static_cast<std::uint16_t>(queues_.size() - 1);
  }

  /// Display name for a queue id ("?" for ids from before a reset()).
  std::string queue_name(std::uint16_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return id < queues_.size() ? queues_[id] : std::string("?");
  }

  /// Snapshot every ring (live writers welcome; see trace_ring).
  std::vector<thread_snapshot> snapshot_all() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<thread_snapshot> out;
    out.reserve(rings_.size());
    for (const auto& r : rings_) out.push_back(r.snapshot());
    return out;
  }

  /// Capacity (power of two) of rings created after this call.
  void set_ring_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    ring_capacity_ = capacity;
  }

  /// Drop all rings and queue names and invalidate every thread's cached
  /// ring pointer. Only call between phases when no traced queue
  /// operation can be in flight.
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.clear();
    queues_.clear();
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  registry() = default;

  trace_ring& make_ring() {
    std::lock_guard<std::mutex> lock(mu_);
    const auto tid = static_cast<std::uint32_t>(rings_.size());
    rings_.emplace_back(tid, "thread-" + std::to_string(tid), ring_capacity_);
    return rings_.back();
  }

  mutable std::mutex mu_;
  std::deque<trace_ring> rings_;
  std::vector<std::string> queues_;
  std::size_t ring_capacity_ = trace_ring::kDefaultCapacity;
  std::atomic<std::uint64_t> generation_{1};
};

/// Name the calling thread's trace track, e.g. "producer-0" or
/// "consumer-3". Last write wins.
inline void set_thread_name(std::string_view name) {
  auto& reg = registry::instance();
  reg.rename_ring(reg.ring_for_this_thread(), name);
}

}  // namespace ffq::trace
