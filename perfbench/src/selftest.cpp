// selftest.cpp — the benchmark's own tests.
//
//   * smoke: a short untraced and a short traced trial of every workload
//     pass their output checks and report positive rates;
//   * mutation: for each stream workload, a consumer that drops one item,
//     duplicates one item, or swaps two of one producer's items must make
//     the output check fail.
//
// Exits 0 when every case holds; prints one line per case.
#include <cstdio>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!ok) ++failures;
}

trial_config smoke(const std::string& workload, bool traced, fault f) {
  trial_config cfg;
  cfg.workload = workload;
  cfg.seed = 12345;
  cfg.measure_s = 0.2;
  cfg.traced = traced;
  cfg.inject = f;
  return cfg;
}

}  // namespace

int main() {
  for (const auto& w : workload_names()) {
    for (const bool traced : {false, true}) {
      const auto r = run_trial(smoke(w, traced, fault::none));
      const std::string name =
          "smoke " + w + (traced ? " traced" : " untraced");
      expect(r.failed == 0 && r.attempted > 0, name + ": output checks pass");
      expect(r.items_per_s > 0 && r.calls_per_s > 0 && r.setup_s > 0 &&
                 r.rtt_p50_us > 0 && r.rtt_p99_us >= r.rtt_p50_us,
             name + ": positive rates, set-up time and latencies");
      if (traced) expect(!r.layer.empty(), name + ": per-layer metrics");
    }
  }

  for (const auto& w : workload_names()) {
    if (w == "syscall") continue;  // no consumer stream the benchmark owns
    for (const fault f : {fault::drop, fault::duplicate, fault::swap}) {
      const auto r = run_trial(smoke(w, false, f));
      expect(r.failed > 0, "mutation " + w + " " + to_string(f) +
                               ": output check fails (failed=" +
                               std::to_string(r.failed) + ")");
    }
  }

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "OK", failures);
  return failures ? 1 : 0;
}
