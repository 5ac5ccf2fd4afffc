// report.cpp — checks, statistics, trace export and the host/build
// header of the repository benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "ffq/runtime/timing.hpp"

namespace perfbench {

std::uint64_t count_failures(const tally& sent, const tally& got,
                             std::uint64_t order_violations) noexcept {
  std::uint64_t failed = order_violations;
  failed += sent.count > got.count ? sent.count - got.count
                                   : got.count - sent.count;
  if (sent.count == got.count && sent.sum != got.sum) ++failed;
  return failed;
}

const char* to_string(fault f) noexcept {
  switch (f) {
    case fault::none:
      return "none";
    case fault::drop:
      return "drop";
    case fault::duplicate:
      return "duplicate";
    case fault::swap:
      return "swap";
  }
  return "?";
}

const char* to_string(span_name n) noexcept {
  switch (n) {
    case span_name::producer:
      return "producer";
    case span_name::consumer:
      return "consumer";
    case span_name::service:
      return "sgxsim.run_syscall_service";
    case span_name::spmc_enqueue_bulk:
      return "spmc.enqueue_bulk";
    case span_name::spmc_dequeue_bulk:
      return "spmc.dequeue_bulk";
    case span_name::spsc_enqueue_bulk:
      return "spsc.enqueue_bulk";
    case span_name::spsc_try_dequeue_bulk:
      return "spsc.try_dequeue_bulk";
    case span_name::mpmc_enqueue:
      return "mpmc.enqueue";
    case span_name::mpmc_dequeue_bulk:
      return "mpmc.dequeue_bulk";
    case span_name::shard_enqueue:
      return "shard.enqueue";
    case span_name::shard_dequeue_bulk:
      return "shard.dequeue_bulk";
    case span_name::take:
      return "take";
  }
  return "?";
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const span_buffer*>& buffers,
                        const std::string& process_name) {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t base = ~0ULL;
  for (const auto* b : buffers) {
    const auto& spans = b->spans();
    for (std::size_t i = 0; i < std::min(spans.size(), kMaxExportedSpans); ++i) {
      base = std::min(base, spans[i].t0);
    }
  }
  const double ticks_per_us = ffq::runtime::tsc_ghz() * 1e3;
  char line[384];
  out << "{\"schema\":\"ffq.trace.v1\",\"displayTimeUnit\":\"ns\","
         "\"traceEvents\":[\n";
  std::snprintf(line, sizeof line,
                "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
                "\"args\":{\"name\":\"%s\"}}",
                process_name.c_str());
  out << line;
  for (const auto* b : buffers) {
    std::snprintf(line, sizeof line,
                  ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"worker-%u\"}}",
                  b->tid(), b->tid());
    out << line;
    const auto& spans = b->spans();
    const std::size_t n = std::min(spans.size(), kMaxExportedSpans);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = spans[i];
      const double ts = static_cast<double>(s.t0 - base) / ticks_per_us;
      const double dur = static_cast<double>(s.t1 - s.t0) / ticks_per_us;
      const long long parent =
          s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
      std::snprintf(line, sizeof line,
                    ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"perfbench\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"span\":%zu,\"parent\":%lld,"
                    "\"producer\":%u,\"seq\":%llu}}",
                    to_string(s.name), b->tid(), ts, dur, i, parent,
                    key_producer(s.key),
                    static_cast<unsigned long long>(key_seq(s.key)));
      out << line;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::string bimodal_note(const std::vector<double>& values) {
  constexpr double kRatio = 1.5;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  if (v.size() < 2 || v.front() <= 0.0) return {};
  std::size_t split = 0;
  double widest = 1.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double r = v[i] / v[i - 1];
    if (r > widest) {
      widest = r;
      split = i;
    }
  }
  if (widest <= kRatio) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "BIMODAL: %zu trial(s) <= %.6g and %zu trial(s) >= %.6g "
                "(gap %.2fx); the median is reported, not a mean",
                split, v[split - 1], v.size() - split, v[split], widest);
  return buf;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

std::string policy_macros() {
  std::string s;
  auto add = [&s](const char* name, bool on) {
    if (!s.empty()) s += ' ';
    s += name;
    s += on ? "=1" : "=0";
  };
#ifdef FFQ_TELEMETRY
  add("FFQ_TELEMETRY", true);
#else
  add("FFQ_TELEMETRY", false);
#endif
#ifdef FFQ_TRACE
  add("FFQ_TRACE", true);
#else
  add("FFQ_TRACE", false);
#endif
#ifdef FFQ_CHECK
  add("FFQ_CHECK", true);
#else
  add("FFQ_CHECK", false);
#endif
#ifdef FFQ_HAVE_RTM
  add("FFQ_HAVE_RTM", true);
#else
  add("FFQ_HAVE_RTM", false);
#endif
  return s;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_build_info() {
  return {
      {"cpu_model", cpu_model()},
      {"logical_cpus", std::to_string(std::thread::hardware_concurrency())},
      {"tsc_ghz", std::to_string(ffq::runtime::tsc_ghz())},
      {"compiler", PERFBENCH_COMPILER},
      {"flags", PERFBENCH_FLAGS},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"policy_macros", policy_macros()},
  };
}

}  // namespace perfbench
