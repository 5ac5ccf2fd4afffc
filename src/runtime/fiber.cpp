#include "ffq/runtime/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>

// The one context switch. Saves what the x86-64 SysV ABI makes
// callee-saved on the current stack — rbp, rbx, r12–r15, then the MXCSR
// and x87 control words in one 8-byte slot — stores rsp to *save_sp,
// loads load_sp and pops the same frame from there. Everything else is
// caller-saved, so the compiler has spilled it around the call already.
// The signal mask is not touched: no system call.
extern "C" void ffq_fiber_switch(void** save_sp, void* load_sp);

asm(R"(
        .text
        .globl  ffq_fiber_switch
        .hidden ffq_fiber_switch
        .type   ffq_fiber_switch, @function
ffq_fiber_switch:
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        subq    $8, %rsp
        stmxcsr (%rsp)
        fnstcw  4(%rsp)
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        ret
        .size   ffq_fiber_switch, .-ffq_fiber_switch
)");

namespace ffq::runtime {

struct fiber_scheduler::fiber {
  void* sp = nullptr;  // saved stack pointer while switched out
  // Not zero-filled: the exploring checker builds thousands of
  // schedulers, and a recycled heap block spares each one its page faults.
  std::unique_ptr<char[]> stack =
      std::make_unique_for_overwrite<char[]>(kStackBytes);
  std::function<void()> fn;
  bool finished = false;
};

thread_local fiber_scheduler* fiber_scheduler::active_ = nullptr;

fiber_scheduler::fiber_scheduler() = default;
fiber_scheduler::~fiber_scheduler() = default;

void fiber_scheduler::entry() noexcept {
  fiber_scheduler* self = active_;
  fiber* f = self->current_;
  f->fn();
  f->finished = true;
  // Back to step(); this stack is never resumed again.
  ffq_fiber_switch(&f->sp, self->driver_sp_);
  __builtin_unreachable();
}

int fiber_scheduler::spawn(std::function<void()> fn) {
  auto f = std::make_unique<fiber>();
  f->fn = std::move(fn);
  // The frame the first switch into the fiber pops: the spawner's control
  // words, six zeroed registers, then entry() as the return address. A
  // null word above it stands for entry()'s own return address, so entry
  // starts with the stack alignment of a called function.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpcw = 0;
  asm("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
  const std::uint64_t frame[9] = {
      mxcsr | std::uint64_t{fpcw} << 32, 0, 0, 0, 0, 0, 0,
      reinterpret_cast<std::uint64_t>(&entry), 0};
  char* top = f->stack.get() + kStackBytes;
  top -= reinterpret_cast<std::uintptr_t>(top) % 16;
  f->sp = std::memcpy(top - sizeof frame, frame, sizeof frame);
  fibers_.push_back(std::move(f));
  return static_cast<int>(fibers_.size()) - 1;
}

bool fiber_scheduler::step(int i) {
  if (i < 0 || static_cast<std::size_t>(i) >= fibers_.size()) return false;
  fiber* f = fibers_[static_cast<std::size_t>(i)].get();
  if (f->finished) return false;
  assert(active_ == nullptr && "nested fiber steps on one OS thread");
  active_ = this;
  current_ = f;
  ffq_fiber_switch(&driver_sp_, f->sp);
  current_ = nullptr;
  active_ = nullptr;
  return !f->finished;
}

void fiber_scheduler::run() {
  for (bool live = true; live;) {
    live = false;
    // Re-reads the size: a fiber spawned during the pass runs in it.
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      live |= step(static_cast<int>(i));
    }
  }
}

void fiber_scheduler::yield() {
  fiber_scheduler* self = active_;
  if (self == nullptr) return;  // not in a fiber
  ffq_fiber_switch(&self->current_->sp, self->driver_sp_);
}

bool fiber_scheduler::in_fiber() noexcept { return active_ != nullptr; }

}  // namespace ffq::runtime
