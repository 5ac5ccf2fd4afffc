// drivers.hpp — the three ways a schedule gets chosen.
//
// A driver is anything with `int pick(const std::vector<int>& runnable,
// bool waiting)`: given the runnable task indices (spawn order, never
// empty) and whether the task stepped last ended a spin-wait round
// (the FFQ_CHECK_SPIN mark, harness.hpp), return the one to step next, or -1 to abandon
// the run. The harness records every pick into a schedule so any run —
// random or exhaustive — replays.
//
//  * random_driver    — seeded xoshiro256**; uniform over runnable tasks.
//    Same seed, same program => same schedule, bit for bit.
//  * replay_driver    — plays back a recorded schedule; returns -1 when
//    the schedule is exhausted or names a task that is not runnable
//    (divergence means the program changed since the schedule was
//    recorded — the harness reports it rather than exploring silently).
//  * delay_dfs_driver — one step of a stateless, delay-bounded DFS
//    (CHESS, Musuvathi et al., OSDI'08, in the delay-bounded form of
//    Emmi, Qadeer and Rakamarić, POPL'11). The deterministic default
//    schedule keeps running the current task; once it finishes or ends a
//    spin-wait round, the default moves round-robin to the next task.
//    Picking the task d places further along that round-robin order
//    costs d delays. The driver records every choice point of a run;
//    next() backtracks to the deepest one with an untried pick that fits
//    the delay bound, and the caller re-runs the program from scratch
//    under the new prefix (explore.hpp, dfs_queue). No state is
//    memoized: spin loops terminate because a spin is never the default
//    and keeping a spinner running costs a delay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ffq/check/schedule.hpp"
#include "ffq/runtime/rng.hpp"

namespace ffq::check {

class random_driver {
 public:
  explicit random_driver(std::uint64_t seed) noexcept : rng_(seed) {}

  int pick(const std::vector<int>& runnable, bool /*waiting*/) noexcept {
    if (runnable.empty()) return -1;
    return runnable[rng_.bounded(runnable.size())];
  }

 private:
  ffq::runtime::xoshiro256ss rng_;
};

class replay_driver {
 public:
  explicit replay_driver(schedule s) noexcept : sched_(std::move(s)) {}

  int pick(const std::vector<int>& runnable, bool /*waiting*/) noexcept {
    if (pos_ >= sched_.picks.size()) return -1;  // schedule exhausted
    const int t = sched_.picks[pos_];
    if (std::find(runnable.begin(), runnable.end(), t) == runnable.end()) {
      diverged_ = true;
      return -1;
    }
    ++pos_;
    return t;
  }

  /// True if a pick named a task that was no longer runnable — the
  /// program being replayed differs from the one that was recorded.
  bool diverged() const noexcept { return diverged_; }

  /// True if every recorded pick was consumed.
  bool exhausted() const noexcept { return pos_ >= sched_.picks.size(); }

 private:
  schedule sched_;
  std::size_t pos_ = 0;
  bool diverged_ = false;
};

class delay_dfs_driver {
 public:
  explicit delay_dfs_driver(int bound) noexcept : bound_(bound) {}

  int pick(const std::vector<int>& runnable, bool waiting) {
    const int n = static_cast<int>(runnable.size());
    // The default: the last task again, unless it finished or is waiting,
    // then the next task after it in round-robin (spawn index) order.
    int first = 0;
    if (last_ >= 0) {
      const auto it = std::lower_bound(runnable.begin(), runnable.end(), last_);
      first = static_cast<int>(it - runnable.begin());
      if (it != runnable.end() && *it == last_ && waiting) ++first;
    }
    int delays = 0;
    if (pos_ < trail_.size()) {  // replaying the prefix chosen by next()
      const choice& c = trail_[pos_];
      if (c.options != n) {  // the program is not deterministic
        diverged_ = true;
        return -1;
      }
      delays = c.delays;
    } else {
      trail_.push_back({n, 0, spent_});
    }
    ++pos_;
    spent_ += delays;
    last_ = runnable[static_cast<std::size_t>((first + delays) % n)];
    return last_;
  }

  /// Move to the next schedule within the bound; false once every one has
  /// been run. Call after each run; the next run replays the new prefix.
  bool next() {
    while (!trail_.empty()) {
      choice& c = trail_.back();
      if (c.delays + 1 < c.options && c.spent + c.delays + 1 <= bound_) {
        ++c.delays;
        pos_ = 0;
        spent_ = 0;
        last_ = -1;
        return true;
      }
      trail_.pop_back();
    }
    return false;
  }

  /// True if a replayed choice point offered a different number of tasks
  /// than when it was recorded.
  bool diverged() const noexcept { return diverged_; }

 private:
  struct choice {
    int options;  ///< runnable tasks at this point
    int delays;   ///< round-robin distance of the pick from the default
    int spent;    ///< delays spent before this point
  };

  int bound_;
  std::vector<choice> trail_;
  std::size_t pos_ = 0;
  int spent_ = 0;
  int last_ = -1;
  bool diverged_ = false;
};

}  // namespace ffq::check
