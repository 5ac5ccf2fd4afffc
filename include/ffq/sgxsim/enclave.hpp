// enclave.hpp — performance model of an SGX enclave runtime.
//
// We have no SGX hardware (DESIGN.md §5.1); what Fig. 7 needs is not the
// security property but the *cost structure* that motivates the paper's
// asynchronous system-call design:
//   * crossing the enclave boundary (EENTER/EEXIT) costs thousands of
//     cycles — the paper quotes "up to 50,000 cycles" for the signal/AEX
//     path; SDK literature puts a synchronous ocall round trip at
//     ~8,000–14,000 cycles;
//   * code running inside the enclave pays a small surcharge when its
//     working set leaves the CPU cache (memory encryption), modelled as
//     a fixed per-operation overhead.
//
// Costs are charged by spinning the calibrated TSC, so the simulated
// timings translate directly into the throughput/latency the benchmark
// measures, on any machine.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace ffq::sgxsim {

struct enclave_cost_model {
  /// One-way boundary crossing (EENTER or EEXIT), in cycles.
  std::uint64_t transition_cycles = 6000;
  /// Surcharge per operation executed inside the enclave (encryption /
  /// EPC effects), in cycles.
  std::uint64_t inside_op_cycles = 200;
};

/// Per-thread enclave context: tracks whether the thread is "inside" and
/// charges boundary crossings. Not thread-safe by design (one per
/// thread); aggregate counters are atomic so the service can report
/// transition totals.
class enclave_thread {
 public:
  explicit enclave_thread(const enclave_cost_model& model,
                          std::atomic<std::uint64_t>* transition_counter = nullptr)
      : model_(model), counter_(transition_counter) {}

  /// Cross into the enclave (charges one transition).
  void eenter();

  /// Cross out of the enclave (charges one transition).
  void eexit();

  /// Charge the inside-the-enclave surcharge for one operation. No-op
  /// when the thread is outside.
  void charge_inside_op();

  /// Synchronous ocall: exit, run `fn` outside, re-enter. This is the
  /// *traditional* system-call path the async design replaces.
  template <typename Fn>
  auto ocall(Fn&& fn) {
    eexit();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      eenter();
    } else {
      auto r = fn();
      eenter();
      return r;
    }
  }

  bool inside() const noexcept { return inside_; }
  std::uint64_t transitions() const noexcept { return transitions_; }

 private:
  void charge(std::uint64_t cycles);

  enclave_cost_model model_;
  std::atomic<std::uint64_t>* counter_;
  bool inside_ = false;
  std::uint64_t transitions_ = 0;
};

}  // namespace ffq::sgxsim
