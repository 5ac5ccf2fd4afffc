#include "ffq/check/sched.hpp"

#include <ucontext.h>

#include <cassert>
#include <vector>

#include "ffq/check/yield.hpp"

namespace ffq::check {

namespace {

struct task_state {
  ucontext_t ctx{};
  // Not zero-filled: the exploring drivers build thousands of schedulers,
  // and a recycled heap block spares each one its page faults.
  std::unique_ptr<char[]> stack;
  std::function<void()> fn;
  bool started = false;
  bool finished = false;
  bool waiting = false;  // last yield ended a spin-wait round
};

constexpr std::size_t kStackBytes = 64 * 1024;

}  // namespace

struct coop_sched::impl {
  ucontext_t driver_ctx{};
  std::vector<std::unique_ptr<task_state>> tasks;
  task_state* current = nullptr;

  static thread_local impl* active;  // scheduler stepping on this OS thread

  static void trampoline() {
    impl* self = active;
    task_state* t = self->current;
    t->fn();
    t->finished = true;
    // Back to step(); this context is never resumed again.
    swapcontext(&t->ctx, &self->driver_ctx);
  }

  static void yield_from_hook() { coop_sched::yield(); }
};

thread_local coop_sched::impl* coop_sched::impl::active = nullptr;

coop_sched::coop_sched() : impl_(std::make_unique<impl>()) {}
coop_sched::~coop_sched() = default;

int coop_sched::spawn(std::function<void()> fn) {
  auto t = std::make_unique<task_state>();
  t->stack.reset(new char[kStackBytes]);
  t->fn = std::move(fn);
  getcontext(&t->ctx);
  t->ctx.uc_stack.ss_sp = t->stack.get();
  t->ctx.uc_stack.ss_size = kStackBytes;
  t->ctx.uc_link = nullptr;  // termination handled by the trampoline
  makecontext(&t->ctx, reinterpret_cast<void (*)()>(&impl::trampoline), 0);
  impl_->tasks.push_back(std::move(t));
  return static_cast<int>(impl_->tasks.size()) - 1;
}

bool coop_sched::step(int t) {
  if (t < 0 || static_cast<std::size_t>(t) >= impl_->tasks.size()) return false;
  task_state* task = impl_->tasks[static_cast<std::size_t>(t)].get();
  if (task->finished) return false;
  assert(impl::active == nullptr && "nested coop_sched steps on one OS thread");

  impl* prev_active = impl::active;
  impl::active = impl_.get();
  impl_->current = task;
  task->started = true;
  tl_spinning = false;  // a mark left outside any task is not this task's
  ++steps_;
  {
    // Route FFQ_CHECK_YIELD() in the resumed code back to this driver.
    hook_guard hooked(&impl::yield_from_hook);
    swapcontext(&impl_->driver_ctx, &task->ctx);
  }
  impl_->current = nullptr;
  impl::active = prev_active;
  return !task->finished;
}

bool coop_sched::done(int t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= impl_->tasks.size()) return true;
  return impl_->tasks[static_cast<std::size_t>(t)]->finished;
}

bool coop_sched::waiting(int t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= impl_->tasks.size()) return false;
  return impl_->tasks[static_cast<std::size_t>(t)]->waiting;
}

bool coop_sched::all_done() const {
  for (const auto& t : impl_->tasks) {
    if (!t->finished) return false;
  }
  return true;
}

std::vector<int> coop_sched::runnable() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < impl_->tasks.size(); ++i) {
    if (!impl_->tasks[i]->finished) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::size_t coop_sched::task_count() const noexcept { return impl_->tasks.size(); }

void coop_sched::yield() {
  impl* self = impl::active;
  if (self == nullptr || self->current == nullptr) return;  // not in a task
  task_state* t = self->current;
  t->waiting = tl_spinning;
  tl_spinning = false;
  swapcontext(&t->ctx, &self->driver_ctx);
}

}  // namespace ffq::check
