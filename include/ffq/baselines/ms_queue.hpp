// ms_queue.hpp — the Michael & Scott non-blocking queue (PODC'96).
//
// Paper §II: "a non-blocking list-based unbounded MPMC queue ... does not
// scale well in practice due to contention on tail and head pointers" —
// it is the worst performer in Fig. 8 and the reference point every other
// baseline improves on.
//
// This implementation is the classic two-pointer CAS algorithm with
// hazard-pointer reclamation (slot 0 protects the node being operated on,
// slot 1 the successor during dequeue). Progress: lock-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/hazard.hpp"

namespace ffq::baselines {

template <typename T>
class ms_queue {
  static_assert(std::is_nothrow_move_constructible_v<T>);

  struct node {
    std::atomic<node*> next{nullptr};
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
    bool has_value = false;

    T* ptr() noexcept { return std::launder(reinterpret_cast<T*>(storage)); }
  };

 public:
  using value_type = T;
  static constexpr const char* kName = "ms-queue";

  ms_queue() {
    node* dummy = new node;
    head_->store(dummy, std::memory_order_relaxed);
    tail_->store(dummy, std::memory_order_relaxed);
  }

  ms_queue(const ms_queue&) = delete;
  ms_queue& operator=(const ms_queue&) = delete;

  ~ms_queue() {
    node* n = head_->load(std::memory_order_relaxed);
    while (n != nullptr) {
      node* next = n->next.load(std::memory_order_relaxed);
      if (n->has_value) std::destroy_at(n->ptr());
      delete n;
      n = next;
    }
  }

  /// Lock-free; any thread.
  void enqueue(T value) {
    node* n = new node;
    std::construct_at(n->ptr(), std::move(value));
    n->has_value = true;

    auto& hz = ffq::runtime::tls_global_hazard();
    ffq::runtime::exp_backoff bo;
    for (;;) {
      node* tail = hz->protect(0, *tail_);
      node* next = tail->next.load(std::memory_order_acquire);
      if (tail != tail_->load(std::memory_order_acquire)) continue;
      if (next != nullptr) {
        // Tail lagging: help swing it forward.
        tail_->compare_exchange_weak(tail, next, std::memory_order_release,
                                     std::memory_order_relaxed);
        continue;
      }
      node* expected = nullptr;
      if (tail->next.compare_exchange_weak(expected, n,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        tail_->compare_exchange_strong(tail, n, std::memory_order_release,
                                       std::memory_order_relaxed);
        hz->clear(0);
        return;
      }
      bo.pause();
    }
  }

  /// Lock-free; any thread. False when the queue is empty.
  bool try_dequeue(T& out) {
    auto& hz = ffq::runtime::tls_global_hazard();
    ffq::runtime::exp_backoff bo;
    for (;;) {
      node* head = hz->protect(0, *head_);
      node* tail = tail_->load(std::memory_order_acquire);
      node* next = hz->protect(1, head->next);
      if (head != head_->load(std::memory_order_acquire)) continue;
      if (next == nullptr) {
        hz->clear_all();
        return false;  // empty (head is the dummy)
      }
      if (head == tail) {
        // Tail lagging behind an in-flight enqueue: help.
        tail_->compare_exchange_weak(tail, next, std::memory_order_release,
                                     std::memory_order_relaxed);
        continue;
      }
      // Read the value *before* the CAS publishes the node for reuse;
      // hazard slot 1 keeps `next` alive even if we lose the race.
      if (head_->compare_exchange_weak(head, next, std::memory_order_release,
                                       std::memory_order_relaxed)) {
        out = std::move(*next->ptr());
        std::destroy_at(next->ptr());
        next->has_value = false;
        hz->clear_all();
        hz->retire(head);  // old dummy
        return true;
      }
      bo.pause();
    }
  }

 private:
  ffq::runtime::padded<std::atomic<node*>> head_;
  ffq::runtime::padded<std::atomic<node*>> tail_;
};

}  // namespace ffq::baselines
