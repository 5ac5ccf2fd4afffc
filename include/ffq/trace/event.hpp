// event.hpp — the trace event vocabulary and the packed record format.
//
// One record per queue operation or liveness-relevant incident,
// TSC-timestamped at the emitting thread. A record is exactly four
// 64-bit words so a ring slot can be published with four relaxed atomic
// stores plus one release store (see ring.hpp):
//
//   word 0  seq    per-thread sequence number, starts at 1, monotonically
//                  increasing across ring wrap-arounds (0 = slot empty)
//   word 1  tsc    runtime::rdtsc() at the *start* of the operation
//   word 2  arg    event-specific payload: the rank for queue events,
//                  0 otherwise
//   word 3  packed [type:16 | queue:16 | dur:32] — event type, queue id
//                  from the trace registry, and the operation duration in
//                  TSC cycles saturated to 32 bits (~1.4 s at 3 GHz;
//                  a longer operation reads as that maximum). Instant
//                  events carry dur = 0.
//
// Duration events (enqueue/dequeue) describe one completed operation —
// begin and end are folded into a single record (tsc + dur), which keeps
// the hot path at one ring push per operation instead of two.
#pragma once

#include <cstdint>

namespace ffq::trace {

enum class event_type : std::uint16_t {
  enqueue = 1,       ///< duration; arg = published rank
  dequeue = 2,       ///< duration; arg = consumed rank
  gap_created = 3,   ///< instant; arg = skipped rank (Alg. 1 l.13 / DWCAS)
  consumer_skip = 4, ///< instant; arg = abandoned rank ("gap >= rank")
  dwcas_retry = 5,   ///< instant; arg = contended rank (MPMC cell races)
  full_stall = 6,    ///< instant; arg = rank awaited in the full-ring regime
  park = 7,          ///< instant; consumer parked on the eventcount
  wake = 8,          ///< instant; producer woke a parked consumer
  shard_steal = 9,   ///< instant; arg = shard a fabric consumer stole from
  empty_sweep = 10,  ///< instant; a fabric poll found every shard dry
};

/// Display name used in the Chrome trace export and the validator.
constexpr const char* to_string(event_type t) noexcept {
  switch (t) {
    case event_type::enqueue:
      return "enqueue";
    case event_type::dequeue:
      return "dequeue";
    case event_type::gap_created:
      return "gap";
    case event_type::consumer_skip:
      return "skip";
    case event_type::dwcas_retry:
      return "dwcas_retry";
    case event_type::full_stall:
      return "full_stall";
    case event_type::park:
      return "park";
    case event_type::wake:
      return "wake";
    case event_type::shard_steal:
      return "steal";
    case event_type::empty_sweep:
      return "empty_sweep";
  }
  return "?";
}

/// True for the two operation (duration) events; everything else renders
/// as a Chrome "instant" event.
constexpr bool is_duration(event_type t) noexcept {
  return t == event_type::enqueue || t == event_type::dequeue;
}

/// Unpacked trace record (the ring stores the packed 4-word form).
struct event_record {
  std::uint64_t seq = 0;   ///< 0 = invalid / empty slot
  std::uint64_t tsc = 0;
  std::int64_t arg = 0;
  event_type type = event_type::enqueue;
  std::uint16_t queue = 0;
  std::uint32_t dur = 0;  ///< TSC cycles, saturated

  static constexpr std::uint64_t pack_word3(event_type t, std::uint16_t q,
                                            std::uint32_t dur) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(t)) << 48) |
           (static_cast<std::uint64_t>(q) << 32) | dur;
  }

  static constexpr event_type unpack_type(std::uint64_t w3) noexcept {
    return static_cast<event_type>(static_cast<std::uint16_t>(w3 >> 48));
  }
  static constexpr std::uint16_t unpack_queue(std::uint64_t w3) noexcept {
    return static_cast<std::uint16_t>(w3 >> 32);
  }
  static constexpr std::uint32_t unpack_dur(std::uint64_t w3) noexcept {
    return static_cast<std::uint32_t>(w3);
  }
};

/// Saturate a TSC delta into the record's 32-bit duration field.
constexpr std::uint32_t saturate_dur(std::uint64_t cycles) noexcept {
  return cycles > 0xffffffffULL ? 0xffffffffU
                                : static_cast<std::uint32_t>(cycles);
}

}  // namespace ffq::trace
