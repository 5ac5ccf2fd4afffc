// oracles.hpp — what "correct" means for an explored schedule.
//
// Three layers, cheapest first:
//
//  1. conservation — every enqueued value dequeued exactly once, nothing
//     invented, nothing lost (tools/trace_stress runs layers 1 and 2
//     on a real multi-threaded run too);
//  2. per-producer FIFO — each consumer's stream, restricted to one
//     producer, is increasing in that producer's sequence numbers (the
//     paper's order guarantee survives gap-skipping);
//  3. linearizability — the timed history of invocations/responses has a
//     witness sequential execution of a FIFO queue spec, found by a
//     Wing–Gong style search: repeatedly fire some *minimal* pending
//     operation (one whose invocation precedes every pending response)
//     whose effect the spec accepts. Memoized on (done-mask, spec state)
//     and bounded to histories of <= 64 operations, which covers every
//     program the harness generates while keeping the search tractable.
//
// Values carry their producer and per-producer sequence number by
// construction (value = producer * 1'000'000 + seq), so the oracles need
// no out-of-band metadata.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ffq::check {

/// One completed operation in a concurrent history. Timestamps come from
/// a single monotone counter stamped at invocation and response; in the
/// cooperative scheduler these are exact (no clock skew to reason about).
struct lin_op {
  int tid = 0;               // task that performed the operation
  bool is_enqueue = false;   // else dequeue
  long long value = 0;       // enqueued / dequeued value
  std::uint64_t invoked = 0; // stamp at operation start
  std::uint64_t returned = 0;// stamp at operation completion
};

/// Decompose a harness value into (producer, sequence-within-producer).
constexpr long long kProducerStride = 1'000'000;

/// Layer 1: multiset equality between what went in and what came out.
/// `expected` is every enqueued value; `got` is every dequeued value.
inline bool check_conservation(std::vector<long long> expected,
                               std::vector<long long> got,
                               std::string* why) {
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  if (expected == got) return true;
  if (why != nullptr) {
    std::multiset<long long> in(expected.begin(), expected.end());
    std::multiset<long long> out(got.begin(), got.end());
    for (long long v : out) {
      auto it = in.find(v);
      if (it == in.end()) {
        *why = "conservation: value " + std::to_string(v) +
               " dequeued but never enqueued (duplicate or invented)";
        return false;
      }
      in.erase(it);
    }
    if (!in.empty()) {
      *why = "conservation: value " + std::to_string(*in.begin()) +
             " enqueued but never dequeued (lost)";
      return false;
    }
    *why = "conservation: multiset mismatch";
  }
  return false;
}

/// Layer 2: within each consumer's dequeue stream, values from any single
/// producer must appear in increasing sequence order.
/// `streams[c]` is consumer c's dequeues in the order it observed them.
inline bool check_per_producer_fifo(
    const std::vector<std::vector<long long>>& streams, std::string* why) {
  for (std::size_t c = 0; c < streams.size(); ++c) {
    std::map<long long, long long> last_seq;  // producer -> last seq seen
    for (long long v : streams[c]) {
      const long long producer = v / kProducerStride;
      const long long seq = v % kProducerStride;
      auto it = last_seq.find(producer);
      if (it != last_seq.end() && seq <= it->second) {
        if (why != nullptr) {
          *why = "fifo: consumer " + std::to_string(c) + " saw producer " +
                 std::to_string(producer) + " seq " + std::to_string(seq) +
                 " after seq " + std::to_string(it->second);
        }
        return false;
      }
      last_seq[producer] = seq;
    }
  }
  return true;
}

/// Layer 3: Wing–Gong linearizability against a sequential FIFO queue.
/// Returns true when a witness linearization exists. Histories longer
/// than 64 ops are reported as trivially true (the caller logs the skip);
/// the bitmask memoization requires the bound and the harness never
/// exceeds it.
inline bool check_linearizable(const std::vector<lin_op>& history,
                               std::string* why) {
  const std::size_t n = history.size();
  if (n == 0) return true;
  if (n > 64) return true;  // out of scope for the bounded checker

  // DFS over subsets of completed ops. A pending op is minimal iff no
  // other pending op returned before it was invoked.
  std::set<std::pair<std::uint64_t, std::string>> visited;

  struct frame {
    std::uint64_t done;
    std::deque<long long> q;
  };
  auto spec_key = [](const std::deque<long long>& q) {
    std::string k;
    for (long long v : q) {
      k += std::to_string(v);
      k += ',';
    }
    return k;
  };

  std::vector<frame> stack;
  stack.push_back({0, {}});
  const std::uint64_t all = (n == 64) ? ~0ULL : ((1ULL << n) - 1);

  while (!stack.empty()) {
    frame f = std::move(stack.back());
    stack.pop_back();
    if (f.done == all) return true;
    if (!visited.insert({f.done, spec_key(f.q)}).second) continue;

    for (std::size_t i = 0; i < n; ++i) {
      if ((f.done >> i) & 1ULL) continue;
      // Minimality: no pending op j returned strictly before i invoked.
      bool minimal = true;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || ((f.done >> j) & 1ULL)) continue;
        if (history[j].returned < history[i].invoked) {
          minimal = false;
          break;
        }
      }
      if (!minimal) continue;

      const lin_op& op = history[i];
      frame next = f;
      next.done |= (1ULL << i);
      if (op.is_enqueue) {
        next.q.push_back(op.value);
      } else {
        if (next.q.empty() || next.q.front() != op.value) continue;
        next.q.pop_front();
      }
      stack.push_back(std::move(next));
    }
  }

  if (why != nullptr) {
    *why = "linearizability: no witness ordering exists for the " +
           std::to_string(n) + "-op history";
  }
  return false;
}

}  // namespace ffq::check
