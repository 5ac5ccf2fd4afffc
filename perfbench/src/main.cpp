// main.cpp — one benchmark run: a number of trials of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--trace-out <path>]
//
// The run is split into kTrials trials; each sets itself up again, so
// set-up time is the median of kTrials set-ups and every metric is the
// median over trials. With --trace 1, odd trials are traced and even ones
// are not: the per-layer metrics come from the traced trials, and
// trace.overhead_frac compares the two halves. Every trial's value is
// printed; a set of trials that splits into two clusters is flagged.
//
// The last line of standard output is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "ffq/runtime/rng.hpp"

namespace {

using namespace perfbench;

constexpr int kTrials = 6;

struct metric_def {
  const char* name;
  const char* unit;
};

const std::vector<metric_def>& end_to_end_metrics() {
  static const std::vector<metric_def> m = {
      {"items_per_s", "1/s"}, {"calls_per_s", "1/s"},
      {"rtt_p50_us", "us"},   {"rtt_p99_us", "us"},
      {"setup_s", "s"},       {"peak_rss_mib", "MiB"},
  };
  return m;
}

const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> m = {
      {"sgxsim.submit_ns.p50", "ns"},
      {"sgxsim.submit_ns.p99", "ns"},
      {"sgxsim.executor_wait_ns.p50", "ns"},
      {"sgxsim.executor_wait_ns.p99", "ns"},
      {"sgxsim.enclave_transitions", "count"},
      {"spmc.enqueue_bulk_ns.p50", "ns"},
      {"spmc.enqueue_bulk_ns.p99", "ns"},
      {"spmc.dequeue_bulk_ns.p50", "ns"},
      {"spmc.dequeue_bulk_ns.p99", "ns"},
      {"spmc.dequeue_bulk_fill", "ratio"},
      {"spmc.residency_ns.p50", "ns"},
      {"spmc.residency_ns.p99", "ns"},
      {"spmc.consumer_busy_frac", "ratio"},
      {"spsc.enqueue_bulk_ns.p50", "ns"},
      {"spsc.enqueue_bulk_ns.p99", "ns"},
      {"spsc.try_dequeue_bulk_ns.p50", "ns"},
      {"spsc.empty_poll_frac", "ratio"},
      {"mpmc.enqueue_ns.p50", "ns"},
      {"mpmc.enqueue_ns.p99", "ns"},
      {"mpmc.dequeue_bulk_ns.p50", "ns"},
      {"mpmc.dequeue_bulk_ns.p99", "ns"},
      {"mpmc.dequeue_bulk_fill", "ratio"},
      {"mpmc.residency_ns.p50", "ns"},
      {"shard.enqueue_ns.p50", "ns"},
      {"shard.enqueue_ns.p99", "ns"},
      {"shard.dequeue_bulk_ns.p50", "ns"},
      {"shard.dequeue_bulk_ns.p99", "ns"},
      {"shard.dequeue_bulk_fill", "ratio"},
      {"shard.residency_ns.p50", "ns"},
      {"flow.producer_throttle_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return m;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--trace-out <path>]\n",
               msg);
  std::exit(2);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename Field>
double median_of(const std::vector<trial_result>& trials, bool traced,
                 Field trial_result::*field) {
  std::vector<double> v;
  for (const auto& t : trials) {
    if (t.traced == traced) v.push_back(static_cast<double>(t.*field));
  }
  return median(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_sha = "unknown", trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed takes an integer");
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(seconds > 0) || seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      trace = v[0] - '0';
    } else if (a == "--git-sha") {
      git_sha = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  bool known = false;
  for (const auto& n : workload_names()) known |= n == workload;
  if (!known) usage("--workload must be one of syscall, fanout_bulk, fanin_mpmc, fanin_shard");
  if (seconds <= 0) usage("--seconds is required");
  if (trace < 0) usage("--trace is required");

  // A fixed mmap threshold turns off glibc's adaptive one, which would
  // serve the first trial's rings from fresh mappings and later trials'
  // from recycled heap pages: every trial now maps and first-touches its
  // rings during set-up.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  std::printf("# perfbench report\n");
  for (const auto& [k, v] : host_build_info()) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  std::printf("# git_sha: %s\n# workload: %s\n# seed: %llu\n# trace: %d\n"
              "# trials: %d x %.3f s measured\n",
              git_sha.c_str(), workload.c_str(),
              static_cast<unsigned long long>(seed), trace, kTrials,
              seconds / kTrials);
  std::fflush(stdout);

  ffq::runtime::splitmix64 seeds(seed);
  std::vector<trial_result> trials;
  std::uint64_t attempted = 0, failed = 0;
  for (int k = 0; k < kTrials; ++k) {
    trial_config cfg;
    cfg.workload = workload;
    cfg.seed = seeds.next();
    cfg.measure_s = seconds / kTrials;
    cfg.traced = trace == 1 && k % 2 == 1;
    if (cfg.traced && k == 1) cfg.trace_path = trace_out;
    auto r = run_trial(cfg);
    std::printf("trial %d/%d%s: setup_s=%.6g items_per_s=%.6g "
                "calls_per_s=%.6g rtt_p50_us=%.6g rtt_p99_us=%.6g "
                "(rtt samples %llu) failed=%llu/%llu\n",
                k + 1, kTrials, r.traced ? " [traced]" : "", r.setup_s,
                r.items_per_s, r.calls_per_s, r.rtt_p50_us, r.rtt_p99_us,
                static_cast<unsigned long long>(r.rtt_samples),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto& [name, value] : r.layer) {
      std::printf("  %s = %.6g\n", name.c_str(), value);
    }
    for (const auto& n : r.notes) std::printf("  check: %s\n", n.c_str());
    std::fflush(stdout);
    attempted += r.attempted;
    failed += r.failed;
    trials.push_back(std::move(r));
  }

  // Bimodality is judged on the untraced trials' throughput.
  std::vector<double> rates;
  for (const auto& t : trials) {
    if (!t.traced) rates.push_back(t.items_per_s);
  }
  const std::string note = bimodal_note(rates);
  if (!note.empty()) std::printf("%s\n", note.c_str());

  std::vector<double> setups;
  for (const auto& t : trials) setups.push_back(t.setup_s);
  const double untraced_rate =
      median_of(trials, false, &trial_result::items_per_s);
  std::map<std::string, double> values;
  if (trace == 0) {
    values = {
        {"items_per_s", untraced_rate},
        {"calls_per_s", median_of(trials, false, &trial_result::calls_per_s)},
        {"rtt_p50_us", median_of(trials, false, &trial_result::rtt_p50_us)},
        {"rtt_p99_us", median_of(trials, false, &trial_result::rtt_p99_us)},
        {"setup_s", median(setups)},
        {"peak_rss_mib", peak_rss_mib()},
    };
  } else {
    // Per-layer values are medians over the traced trials; a layer the
    // workload does not run reports 0.
    for (const auto& m : per_layer_metrics()) {
      std::vector<double> v;
      for (const auto& t : trials) {
        const auto it = t.layer.find(m.name);
        if (t.traced && it != t.layer.end()) v.push_back(it->second);
      }
      values[m.name] = v.empty() ? 0.0 : median(v);
    }
    const double traced_rate = median_of(trials, true, &trial_result::items_per_s);
    values["trace.overhead_frac"] =
        untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate : 0;
  }

  const auto& defs = trace == 1 ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& d : defs) {
    std::printf("%s = %.10g %s\n", d.name, values.at(d.name), d.unit);
  }
  if (trace == 0) {
    std::printf("rtt samples per trial (median) = %.0f\n",
                median_of(trials, false, &trial_result::rtt_samples));
  }
  std::printf("failed_frac = %.10g (failed %llu / attempted %llu)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (trace == 1) {
    std::printf("trace.overhead_frac[%s] = %.10g\n", workload.c_str(),
                values.at("trace.overhead_frac"));
  }

  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name, values.at(defs[i].name),
                defs[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
