// validate.hpp — offline trace validation: a second correctness oracle.
//
// The delay-bounded DFS (ffq/check) checks the queues over exhaustive
// small schedule sets; the trace validator checks that a *real
// execution* of the real code respected the queue contract, by
// replaying a merged event timeline:
//
//   * per-producer FIFO — within one (thread, queue), published ranks
//     strictly increase (a producer's items leave in issue order);
//   * no duplication    — a (queue, rank) is consumed at most once;
//   * no fabrication    — every consumed rank was published;
//   * no loss           — every published rank is consumed (checked only
//     when the trace is complete: no ring overwrite drops and the
//     workload drained its queues; callers say which).
//
// Ring overwrite is not silent: per-thread seq numbers are contiguous,
// so any gap is counted as `dropped` and the loss check downgrades
// itself (a dropped dequeue record would otherwise read as a loss).
//
// Consumes the neutral `trace_op` form so both in-process snapshots
// (tests) and parsed "ffq.trace.v1" files (tools/trace_check) feed it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ffq/trace/export.hpp"

namespace ffq::trace {

/// One timeline entry in neutral form.
struct trace_op {
  std::uint32_t tid = 0;
  std::uint64_t seq = 0;
  std::string type;   ///< "enqueue", "dequeue", or any instant name
  std::string queue;  ///< queue display name ("" for park/wake)
  std::int64_t rank = 0;
};

struct validation_report {
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t instants = 0;
  std::uint64_t dropped = 0;  ///< records lost to ring overwrite (seq gaps)
  std::vector<std::string> errors;  ///< hard violations (dup, fifo, ...)
  std::uint64_t lost = 0;     ///< published but never consumed (info when
                              ///< dropped > 0 or !expect_drained)

  bool ok() const noexcept { return errors.empty(); }
};

/// Replay `ops` in any cross-thread order (irrelevant to these checks).
/// A thread's program order is its *seq* order, not its timeline order:
/// duration records are timestamped at operation start, so an instant
/// emitted mid-operation (e.g. a DWCAS retry) legitimately appears after
/// a later-seq record in a tsc-sorted merge. The validator re-establishes
/// per-thread program order itself before replaying. `expect_drained` =
/// the workload consumed everything it produced, so unconsumed ranks are
/// losses — only enforced when no records were dropped.
inline validation_report validate_trace(const std::vector<trace_op>& ops,
                                        bool expect_drained,
                                        std::size_t max_errors = 16) {
  validation_report rep;
  auto fail = [&](std::string msg) {
    if (rep.errors.size() < max_errors) rep.errors.push_back(std::move(msg));
  };

  std::vector<const trace_op*> ordered;
  ordered.reserve(ops.size());
  for (const auto& o : ops) ordered.push_back(&o);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const trace_op* a, const trace_op* b) {
                     return a->tid != b->tid ? a->tid < b->tid
                                             : a->seq < b->seq;
                   });

  std::map<std::uint32_t, std::uint64_t> last_seq;          // tid -> seq
  std::map<std::pair<std::string, std::uint32_t>, std::int64_t>
      last_published;                                       // (q,tid) -> rank
  std::map<std::string, std::set<std::int64_t>> published;  // q -> ranks
  std::map<std::string, std::set<std::int64_t>> consumed;   // q -> ranks

  for (const trace_op* p : ordered) {
    const trace_op& op = *p;
    // Seq bookkeeping: 1-based, unique and contiguous per thread; gaps =
    // ring overwrite. Overwrite-oldest keeps the *newest* contiguous
    // window, so a wrapped ring shows up as a leading gap (first seq
    // > 1), not an interior one — count it, or a long run would pass as
    // "0 dropped" and the fabrication/loss checks below would fire on
    // records whose counterparts were simply overwritten. After the
    // sort a regression can only be a duplicate.
    auto [it, fresh] = last_seq.try_emplace(op.tid, op.seq);
    if (fresh) {
      rep.dropped += op.seq - 1;
    } else {
      if (op.seq <= it->second) {
        fail("thread " + std::to_string(op.tid) + ": duplicate seq " +
             std::to_string(op.seq));
      } else {
        rep.dropped += op.seq - it->second - 1;
      }
      it->second = op.seq;
    }

    if (op.type == "enqueue") {
      ++rep.enqueues;
      const auto key = std::make_pair(op.queue, op.tid);
      auto [pit, first] = last_published.try_emplace(key, op.rank);
      if (!first) {
        if (op.rank <= pit->second) {
          fail("producer FIFO violated on " + op.queue + ": thread " +
               std::to_string(op.tid) + " published rank " +
               std::to_string(op.rank) + " after " +
               std::to_string(pit->second));
        }
        pit->second = op.rank;
      }
      if (!published[op.queue].insert(op.rank).second) {
        fail("rank published twice on " + op.queue + ": " +
             std::to_string(op.rank));
      }
    } else if (op.type == "dequeue") {
      ++rep.dequeues;
      if (!consumed[op.queue].insert(op.rank).second) {
        fail("rank consumed twice on " + op.queue + ": " +
             std::to_string(op.rank));
      }
    } else {
      ++rep.instants;
    }
  }

  // Fabrication: consumed but never published. Only provable when the
  // producer's records were not overwritten; with drops we stay quiet.
  if (rep.dropped == 0) {
    for (const auto& [q, ranks] : consumed) {
      for (const std::int64_t r : ranks) {
        if (published[q].count(r) == 0) {
          fail("rank consumed but never published on " + q + ": " +
               std::to_string(r));
        }
      }
    }
  }

  // Loss: published but never consumed.
  for (const auto& [q, ranks] : published) {
    for (const std::int64_t r : ranks) {
      if (consumed[q].count(r) == 0) ++rep.lost;
    }
  }
  if (expect_drained && rep.dropped == 0 && rep.lost > 0) {
    fail(std::to_string(rep.lost) +
         " rank(s) published but never consumed in a drained trace");
  }
  return rep;
}

/// Adapt in-process merged snapshots (export.hpp) to trace_op form.
/// `queue_name(id)` resolves queue ids — usually
/// registry::instance().queue_name.
template <typename QueueNameFn>
std::vector<trace_op> to_trace_ops(const std::vector<merged_event>& events,
                                   QueueNameFn&& queue_name) {
  std::vector<trace_op> ops;
  ops.reserve(events.size());
  for (const auto& e : events) {
    trace_op op;
    op.tid = e.tid;
    op.seq = e.rec.seq;
    op.type = to_string(e.rec.type);
    op.queue = queue_name(e.rec.queue);
    op.rank = e.rec.arg;
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace ffq::trace
