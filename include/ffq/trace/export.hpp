// export.hpp — merging per-thread rings and writing Chrome Trace Event
// JSON (schema "ffq.trace.v1", loadable at ui.perfetto.dev).
//
// The document is a JSON object (not a bare array) so it can carry the
// schema tag; Perfetto and chrome://tracing both accept the object form:
//
//   {
//     "schema": "ffq.trace.v1",
//     "displayTimeUnit": "ns",
//     "traceEvents": [
//       {"ph":"M", ... "process_name"/"thread_name" metadata ...},
//       {"ph":"X","name":"enqueue","cat":"queue","pid":1,"tid":2,
//        "ts":0.000,"dur":0.042,
//        "args":{"queue":"ffq-mpmc#0","rank":3,"seq":7}},
//       {"ph":"i","name":"gap","cat":"queue","s":"t", ...},
//       {"ph":"C","name":"queue.ffq-mpmc/gaps_created","pid":1,
//        "ts":...,"args":{"value":145}}
//     ]
//   }
//
// One event per line, keys in a fixed order, all strings escaped through
// telemetry::json_escape (the repo's single RFC 8259 writer) — the
// output is byte-stable for a given input, which makes it golden-file
// testable (tests/golden/trace_v1.json) and parseable by any strict JSON
// reader (the CI trace leg loads it with Python's).
//
// Timestamps: ts = (tsc - base) / ticks_per_us, microseconds with 3
// decimals (nanosecond display resolution). ticks_per_us defaults to the
// calibrated TSC frequency; tests pin it for determinism.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ffq/telemetry/snapshot.hpp"
#include "ffq/trace/ring.hpp"

namespace ffq::trace {

inline constexpr const char* kTraceSchema = "ffq.trace.v1";

/// One ring record plus the identity of the thread that emitted it.
struct merged_event {
  std::uint32_t tid = 0;
  event_record rec;
};

/// Merge per-thread snapshots into one timeline ordered by (tsc, tid,
/// seq). Records within a thread are already seq-ordered; the tie-break
/// on (tid, seq) makes the merge a total order, so the export is
/// deterministic even with duplicate timestamps (e.g. synthetic traces
/// or coarse non-x86 clocks).
std::vector<merged_event> merge_snapshots(
    const std::vector<thread_snapshot>& snaps);

struct export_options {
  /// TSC ticks per exported microsecond; 0 = calibrate via
  /// runtime::tsc_ghz(). Tests pin this (e.g. 1000.0) for byte-stable
  /// output.
  double ticks_per_us = 0.0;
  /// Timestamp subtracted before scaling; ~0 = the minimum tsc across
  /// all records (the export starts at ts 0.000).
  std::uint64_t base_tsc = ~std::uint64_t{0};
  /// Optional "ffq.metrics.v1" snapshot rendered as Chrome counter
  /// events at the end of the timeline (histograms are omitted; counter
  /// tracks are the useful overlay next to an event timeline).
  const ffq::telemetry::metrics_snapshot* metrics = nullptr;
};

/// Render the trace document for the given snapshots.
std::string chrome_trace_json(const std::vector<thread_snapshot>& snaps,
                              const export_options& opts = {});

/// Snapshot every ring in the trace registry and write the document to
/// `path`. Optionally folds the process-wide telemetry snapshot in as
/// counter tracks. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const export_options& opts = {});

}  // namespace ffq::trace
