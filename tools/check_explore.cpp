// check_explore — drive ffq::check over the real queues from the command
// line.
//
//   check_explore --queue spmc --bound 2           every schedule, <= 2 delays
//   check_explore --queue all --fuzz 10000 --seed 1
//   check_explore --queue spmc_blocking --mutate skip_line29_recheck --bound 2
//   check_explore --queue spmc_blocking --mutate skip_line29_recheck
//                 --replay '2*14.0.2*3.1*7'
//
// Each queue name is one fixed program shape (queue type, capacity,
// producers x items, consumer kind), so a printed schedule replays against
// an identical program. --bound and --fuzz may be combined; --replay runs
// one schedule. --mutate switches one safeguard off in the queue code
// (ffq/check/yield.hpp) for every run.
//
// Exit codes: 0 = every explored schedule passed; 1 = an oracle was
// violated (the offending schedule string is printed for --replay);
// 2 = usage error, or a DFS that hit its run cap before finishing.
#ifndef FFQ_CHECK
#define FFQ_CHECK 1  // instrument the queue headers in this TU
#endif

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "ffq/check/check.hpp"
#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/shard/shard.hpp"

namespace {

using namespace ffq::check;

constexpr const char* kUsage =
    "usage: check_explore --queue NAME [--bound N] [--fuzz N] [--seed S]\n"
    "                     [--mutate MUTATION]\n"
    "       check_explore --queue NAME --replay SCHEDULE [--mutate MUTATION]\n"
    "       check_explore --help\n"
    "queues (polling consumers): spsc spmc mpmc waitable shard shard_ordered\n"
    "       shard_stall\n"
    "queues (blocking consumers): spsc_blocking spmc_blocking spmc_bulk\n"
    "       mpmc_blocking\n"
    "       all (every queue above; not with --replay)\n"
    "mutations: publish_before_data skip_line29_recheck\n"
    "       claim_publishes_directly gap_ignores_rank claim_ignores_gap\n"
    "       throttle_ignores_rank_order\n";

int usage_error() {
  std::fputs(kUsage, stderr);
  return 2;
}

struct request {
  int bound = -1;
  std::uint64_t fuzz = 0;
  std::uint64_t seed = 1;
  std::optional<schedule> replay;
  mutation mutate = mutation::none;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int report_violation(const std::string& what, const run_result& r) {
  std::printf("check_explore: VIOLATION (%s)\n  %s\n  schedule: %s\n",
              what.c_str(), r.violation.c_str(),
              format_schedule(r.sched).c_str());
  return 1;
}

template <typename Queue>
int explore(const std::string& name, program_config cfg, const request& req) {
  cfg.mutate = req.mutate;
  if (req.replay) {
    const run_result r = replay_queue<Queue>(cfg, *req.replay);
    if (!r.ok) return report_violation("queue " + name + " replay", r);
    std::printf("check_explore: queue %s replay passed (%llu steps)\n",
                name.c_str(), static_cast<unsigned long long>(r.steps));
    return 0;
  }
  if (req.bound >= 0) {
    const auto t0 = std::chrono::steady_clock::now();
    const explore_result r = dfs_queue<Queue>(cfg, {.bound = req.bound});
    const std::string what =
        "queue " + name + " DFS bound " + std::to_string(req.bound);
    if (!r.ok) {
      return report_violation(what + ", run " + std::to_string(r.runs), r.failure);
    }
    std::printf("check_explore: %s %s (%llu runs, %.2f s)\n", what.c_str(),
                r.exhausted ? "passed" : "stopped at the run cap",
                static_cast<unsigned long long>(r.runs), seconds_since(t0));
    if (!r.exhausted) return 2;
  }
  if (req.fuzz > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    const explore_result r = fuzz_queue<Queue>(cfg, req.seed, req.fuzz);
    if (!r.ok) {
      return report_violation(
          "queue " + name + ", run " + std::to_string(r.runs - 1), r.failure);
    }
    std::printf("check_explore: queue %s passed %llu schedules (seed %llu, %.2f s)\n",
                name.c_str(), static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(req.seed), seconds_since(t0));
  }
  return 0;
}

using q_spsc = ffq::core::spsc_queue<long long>;
using q_spmc = ffq::core::spmc_queue<long long>;
using q_mpmc = ffq::core::mpmc_queue<long long>;
using q_wait = ffq::core::waitable_spsc_queue<long long>;
using q_shard = ffq::shard::fabric<long long, false>;
using q_shard_ord = ffq::shard::fabric<long long, true>;

// The step bound turns a deadlock into a liveness violation; passing runs
// of these shapes take a few hundred steps (all pass under 1,000).
constexpr std::uint64_t kMaxSteps = 5'000;

/// Polling shapes stay small enough for the Wing-Gong bound; blocking
/// shapes put two cells under each queue so wraps, gaps and full-ring
/// throttles are reachable within a few delays.
constexpr program_config kSpsc{.capacity = 4, .producers = 1, .consumers = 1,
                               .items_per_producer = 6, .max_steps = kMaxSteps};
constexpr program_config kSpmc{.capacity = 4, .producers = 1, .consumers = 2,
                               .items_per_producer = 6, .max_steps = kMaxSteps};
constexpr program_config kMpmc{.capacity = 4, .producers = 2, .consumers = 2,
                               .items_per_producer = 4, .max_steps = kMaxSteps};
constexpr program_config kShard{.capacity = 4, .producers = 2, .consumers = 2,
                                .items_per_producer = 4, .dequeue_batch = 2,
                                .max_steps = kMaxSteps,
                                .check_linearizability = false};
/// One producer finishes while the other is throttled on a full shard.
constexpr program_config kShardStall{
    .capacity = 2, .producers = 2, .consumers = 2, .items_per_producer = 5,
    .dequeue_batch = 2, .max_steps = kMaxSteps, .check_linearizability = false};
constexpr program_config kSpscBlocking{
    .capacity = 2, .producers = 1, .consumers = 1, .items_per_producer = 4,
    .consumer_quota = 4, .max_steps = kMaxSteps};
constexpr program_config kSpmcBlocking{
    .capacity = 2, .producers = 1, .consumers = 2, .items_per_producer = 4,
    .consumer_quota = 2, .max_steps = kMaxSteps};
constexpr program_config kSpmcBulk{
    .capacity = 2, .producers = 1, .consumers = 2, .items_per_producer = 4,
    .enqueue_batch = 2, .dequeue_batch = 2, .consumer_quota = 2,
    .max_steps = kMaxSteps};
constexpr program_config kMpmcBlocking{
    .capacity = 2, .producers = 2, .consumers = 1, .items_per_producer = 2,
    .consumer_quota = 4, .max_steps = kMaxSteps};

/// Runs `req` on the queue called `name`, or on every queue for "all";
/// -1 if no queue has that name.
int run_named(const std::string& name, const request& req) {
  const bool all = name == "all";
  bool found = false;
  int rc = 0;
  auto run = [&]<typename Queue>(const char* n, const program_config& cfg) {
    if (!all && name != n) return;
    found = true;
    const int r = explore<Queue>(n, cfg, req);
    if (r == 1 || rc == 0) rc = r;  // a violation outranks a run cap
  };
  run.operator()<q_spsc>("spsc", kSpsc);
  run.operator()<q_spmc>("spmc", kSpmc);
  run.operator()<q_mpmc>("mpmc", kMpmc);
  run.operator()<q_wait>("waitable", kSpsc);
  run.operator()<q_shard>("shard", kShard);
  run.operator()<q_shard_ord>("shard_ordered", kShard);
  run.operator()<q_shard>("shard_stall", kShardStall);
  run.operator()<q_spsc>("spsc_blocking", kSpscBlocking);
  run.operator()<q_spmc>("spmc_blocking", kSpmcBlocking);
  run.operator()<q_spmc>("spmc_bulk", kSpmcBulk);
  run.operator()<q_mpmc>("mpmc_blocking", kMpmcBlocking);
  return found ? rc : -1;
}

bool parse_count(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string queue_name;
  request req;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg != "--queue" && arg != "--mutate" && arg != "--replay" &&
        arg != "--bound" && arg != "--fuzz" && arg != "--seed") {
      std::fprintf(stderr, "check_explore: unknown flag '%s'\n", arg.c_str());
      return usage_error();
    }
    if (!value && i + 1 < argc) value = argv[++i];
    if (!value) {
      std::fprintf(stderr, "check_explore: %s needs a value\n", arg.c_str());
      return usage_error();
    }
    std::uint64_t n = 0;
    if (arg == "--queue") {
      queue_name = *value;
    } else if (arg == "--mutate") {
      const auto m = parse_mutation(*value);
      if (!m) {
        std::fprintf(stderr, "check_explore: unknown mutation '%s'\n",
                     value->c_str());
        return usage_error();
      }
      req.mutate = *m;
    } else if (arg == "--replay") {
      req.replay = parse_schedule(*value);
      if (!req.replay) {
        std::fprintf(stderr, "check_explore: malformed schedule '%s'\n",
                     value->c_str());
        return 2;
      }
    } else if (arg == "--bound" && parse_count(*value, n) && n <= 64) {
      req.bound = static_cast<int>(n);
    } else if (arg == "--fuzz" && parse_count(*value, n)) {
      req.fuzz = n;
    } else if (arg == "--seed" && parse_count(*value, n)) {
      req.seed = n;
    } else {
      std::fprintf(stderr, "check_explore: bad value '%s' for %s\n",
                   value->c_str(), arg.c_str());
      return usage_error();
    }
  }

  const bool explores = req.bound >= 0 || req.fuzz > 0;
  if (queue_name.empty() || explores == req.replay.has_value() ||
      (req.replay && queue_name == "all")) {
    return usage_error();
  }
  const int rc = run_named(queue_name, req);
  if (rc < 0) {
    std::fprintf(stderr, "check_explore: unknown queue '%s'\n",
                 queue_name.c_str());
    return usage_error();
  }
  return rc;
}
