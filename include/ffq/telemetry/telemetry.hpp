// telemetry.hpp — umbrella header for the ffq::telemetry subsystem.
//
// See DESIGN.md §8. The pieces:
//   counters.hpp  — queue event counter block (what the counters and
//                   trace observers of observe/observer.hpp write)
//   histogram.hpp — log-bucketed latency shards + lock-free merge
//   registry.hpp  — process-wide recorders and counter totals
//   snapshot.hpp  — versioned "ffq.metrics.v1" snapshot + JSON export
#pragma once

#include "ffq/telemetry/counters.hpp"
#include "ffq/telemetry/histogram.hpp"
#include "ffq/telemetry/json.hpp"
#include "ffq/telemetry/registry.hpp"
#include "ffq/telemetry/snapshot.hpp"
