// perfbench.hpp — the repository benchmark: workloads, output checks,
// benchmark-side spans and the statistics the report prints.
//
// Every number comes from the benchmark's own calls into the public
// entry points of sgxsim, core (spsc / spmc / mpmc) and shard; nothing
// is instrumented inside the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Items and output checks
// ---------------------------------------------------------------------------

/// One stream item: who produced it, its per-producer sequence number,
/// and a payload drawn from the run's seed (runtime::xoshiro256ss).
struct item {
  std::uint64_t key = 0;  ///< producer << 48 | seq
  std::uint64_t payload = 0;
};

inline constexpr unsigned kSeqBits = 48;
inline constexpr std::uint64_t make_key(std::uint32_t producer,
                                        std::uint64_t seq) noexcept {
  return (std::uint64_t{producer} << kSeqBits) | seq;
}
inline constexpr std::uint32_t key_producer(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key >> kSeqBits);
}
inline constexpr std::uint64_t key_seq(std::uint64_t key) noexcept {
  return key & ((std::uint64_t{1} << kSeqBits) - 1);
}

/// Order-independent checksum term of one item (a splitmix64 finalizer,
/// so a dropped item and a duplicated one cannot cancel out).
inline constexpr std::uint64_t digest(const item& it) noexcept {
  std::uint64_t z = it.key * 0x9e3779b97f4a7c15ULL ^ it.payload;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Running count + checksum of a set of items.
struct tally {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  void add(const item& it) noexcept {
    ++count;
    sum += digest(it);
  }
  void merge(const tally& o) noexcept {
    count += o.count;
    sum += o.sum;
  }
};

/// The check one consumer stream runs: exactly-once accounting (tally)
/// plus per-producer FIFO (sequence numbers strictly increase per
/// producer within the stream). State is inline, so a check embedded in a
/// cache-aligned per-thread block shares no line with another thread's.
class stream_check {
 public:
  static constexpr std::size_t kMaxProducers = 4;

  void take(const item& it) noexcept {
    const std::uint32_t p = key_producer(it.key);
    const std::uint64_t s = key_seq(it.key);
    if (p >= kMaxProducers || s < next_[p]) {
      ++order_violations;
    } else {
      next_[p] = s + 1;
    }
    seen.add(it);
  }

  tally seen;
  std::uint64_t order_violations = 0;

 private:
  std::uint64_t next_[kMaxProducers] = {};
};

/// Failed operations implied by comparing what was sent with what
/// arrived: every order violation, every missing or extra item, and one
/// for a checksum that differs while the counts agree.
std::uint64_t count_failures(const tally& sent, const tally& got,
                             std::uint64_t order_violations) noexcept;

/// Consumer-side output corruptions the self-test injects to prove the
/// checks catch them. `none` in every benchmark run.
enum class fault { none, drop, duplicate, swap };
const char* to_string(fault f) noexcept;

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------

enum class span_name : std::uint16_t {
  producer,  ///< root: a producer thread's measured window
  consumer,  ///< root: a consumer thread's measured window
  service,   ///< root: one sgxsim::run_syscall_service invocation
  spmc_enqueue_bulk,
  spmc_dequeue_bulk,
  spsc_enqueue_bulk,
  spsc_try_dequeue_bulk,
  mpmc_enqueue,
  mpmc_dequeue_bulk,
  shard_enqueue,
  shard_dequeue_bulk,
  take,  ///< instant: a consumer took a sampled item (key = its key)
};
const char* to_string(span_name n) noexcept;

/// One span: name, start/end TSC, the span that caused it (index in the
/// same thread's buffer, kNoParent for roots) and the key of the first
/// item it carried, which joins producer- and consumer-side spans.
struct span {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t key = 0;
  std::uint32_t parent = 0;
  span_name name = span_name::producer;
  std::uint16_t flags = 0;  ///< kStatSample: counts toward duration stats
};
inline constexpr std::uint32_t kNoParent = 0xffffffffu;
inline constexpr std::uint16_t kStatSample = 1;

/// Per-thread span buffer: fixed capacity, reserved before the measured
/// window, never reallocated; spans past capacity are not recorded.
class span_buffer {
 public:
  span_buffer(std::uint32_t tid, std::size_t capacity) : tid_(tid) {
    spans_.reserve(capacity);
  }

  std::uint32_t record(span_name n, std::uint32_t parent, std::uint64_t key,
                       std::uint64_t t0, std::uint64_t t1,
                       std::uint16_t flags = kStatSample) noexcept {
    if (spans_.size() == spans_.capacity()) return kNoParent;
    spans_.push_back(span{t0, t1, key, parent, n, flags});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Close a root span opened with record(n, kNoParent, key, t0, t0).
  void close(std::uint32_t idx, std::uint64_t t1) noexcept {
    if (idx < spans_.size()) spans_[idx].t1 = t1;
  }

  std::uint32_t tid() const noexcept { return tid_; }
  const std::vector<span>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<span> spans_;
};

/// Write the span buffers as a Chrome trace (the repository's
/// "ffq.trace.v1" layout, which Perfetto opens): the first
/// kMaxExportedSpans spans of each thread, which keeps the file to a few
/// megabytes. Returns false on an I/O error.
inline constexpr std::size_t kMaxExportedSpans = std::size_t{1} << 14;
bool write_chrome_trace(const std::string& path,
                        const std::vector<const span_buffer*>& buffers,
                        const std::string& process_name);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Quantile q of `v` (sorted in place), linearly interpolated between
/// order statistics; 0 for an empty sample.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Split a set of per-trial values at its widest gap and flag it when the
/// two sides differ by more than 1.5x (3-7x low outlier runs have been
/// seen on shared hosts). Returns an empty string for one cluster.
std::string bimodal_note(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"syscall", "fanout_bulk",
                                                 "fanin_mpmc", "fanin_shard"};
  return names;
}

/// One trial: set up (allocate, start and pin threads, warm up the
/// rings), then measure for `measure_s` seconds, then tear down and
/// check every output.
struct trial_config {
  std::string workload;
  std::uint64_t seed = 1;
  double measure_s = 1.0;
  bool traced = false;
  fault inject = fault::none;
  /// When non-empty, write this trial's spans as a Chrome trace here.
  std::string trace_path;
};

struct trial_result {
  bool traced = false;
  double setup_s = 0;
  double items_per_s = 0;
  double calls_per_s = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable check details
  /// Per-layer metrics this workload produces (traced trials; the
  /// sgxsim recorders fill theirs in every trial).
  std::map<std::string, double> layer;
};

trial_result run_trial(const trial_config& cfg);

// ---------------------------------------------------------------------------
// Report header
// ---------------------------------------------------------------------------

/// "key: value" lines describing host and build: CPU model, logical CPUs,
/// compiler and flags, build type, FFQ_* policy macros.
std::vector<std::pair<std::string, std::string>> host_build_info();

}  // namespace perfbench
