// trace.hpp — umbrella header for the ffq::trace subsystem.
//
// What lives where:
//   event.hpp     event vocabulary + packed 4-word record format
//   ring.hpp      per-thread wait-free SPSC trace ring (seqlock reads)
//   registry.hpp  process-wide ring/queue-id ownership (header-only)
//   tracer.hpp    queue_tracer — the record emitter of the trace observer
//   export.hpp    snapshot merge + Chrome Trace Event JSON ("ffq.trace.v1")
//
// Queues only depend on event/ring/registry/tracer (all header-only,
// compiled in only under the trace observer, observe/observer.hpp); the
// exporter is the ffq_trace static library. Nothing here judges a run:
// tools/trace_stress checks its traced run on the values themselves with
// the checker's oracles (check/oracles.hpp), and counts the records.
#pragma once

#include "ffq/trace/event.hpp"     // IWYU pragma: export
#include "ffq/trace/export.hpp"    // IWYU pragma: export
#include "ffq/trace/registry.hpp"  // IWYU pragma: export
#include "ffq/trace/ring.hpp"      // IWYU pragma: export
#include "ffq/trace/tracer.hpp"    // IWYU pragma: export
