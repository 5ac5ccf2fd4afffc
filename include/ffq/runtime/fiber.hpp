// fiber.hpp — a minimal cooperative (m:n) user-level thread scheduler.
//
// Paper §I: "Modern programming languages like Go and Rust support
// application level threads, i.e., they have their own scheduler that
// maps m application threads to n operating system threads. In such
// settings, to avoid spinning while waiting for a return from an
// operating system call, we can call the scheduler to indicate that
// another application thread can execute."
//
// This is that scheduler, reduced to what the asynchronous-syscall
// architecture needs: one `fiber_scheduler` per OS thread, cooperative
// fibers, `yield()` from inside a fiber, and a `wait_until(pred)` helper
// that yields until a condition holds — the idiom an app fiber uses while
// its syscall response is in flight. With m fibers per OS thread, a single
// producer keeps up to m requests outstanding in its SPMC submission
// queue, which is exactly the "implicit flow control" population the
// paper dimensions queues for.
//
// It is also the checker's scheduler: `step(i)` resumes one chosen fiber
// until it yields or finishes, so an external driver (ffq::check,
// harness.hpp) decides every interleaving; `run()` is round-robin over
// `step`.
//
// The context switch (fiber.cpp) is x86-64 SysV only: it saves and
// restores the callee-saved registers (rbx, rbp, r12–r15, rsp) and the
// MXCSR and x87 control words, and leaves the signal mask alone, so a
// switch makes no system call. It carries no sanitizer fiber
// annotations, so the sanitizer CI legs leave fibers out (ci.sh).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace ffq::runtime {

class fiber_scheduler {
 public:
  /// Per-fiber stack size. Syscall-shim fibers are shallow; 64 KiB is
  /// plenty and keeps m:n configurations cheap.
  static constexpr std::size_t kStackBytes = 64 * 1024;

  fiber_scheduler();
  ~fiber_scheduler();

  fiber_scheduler(const fiber_scheduler&) = delete;
  fiber_scheduler& operator=(const fiber_scheduler&) = delete;

  /// Register a fiber; returns its index (0, 1, 2, ... in spawn order).
  /// May be called before run() or from inside a running fiber of this
  /// scheduler. The fiber does not start until it is first stepped. An
  /// exception that escapes `fn` ends the program (std::terminate).
  int spawn(std::function<void()> fn);

  /// Resume fiber i until it yields or finishes. Returns true if it can
  /// still run; stepping a finished or unknown fiber is a no-op that
  /// returns false.
  bool step(int i);

  /// Step every fiber round-robin on the calling OS thread until all have
  /// finished. Fibers spawned meanwhile are picked up.
  void run();

  // --- static API usable from inside a fiber ---------------------------

  /// Cooperative yield: back to the caller of step(). No-op when called
  /// outside a fiber.
  static void yield();

  /// Yield until `pred()` returns true (checked each time this fiber is
  /// rescheduled). Returns immediately if it already holds.
  template <typename Pred>
  static void wait_until(Pred&& pred) {
    while (!pred()) yield();
  }

  /// True when the caller runs inside a fiber of some scheduler.
  static bool in_fiber() noexcept;

 private:
  struct fiber;

  [[noreturn]] static void entry() noexcept;

  std::vector<std::unique_ptr<fiber>> fibers_;
  fiber* current_ = nullptr;  // the fiber being stepped
  void* driver_sp_ = nullptr;  // the stepping caller's saved stack pointer

  static thread_local fiber_scheduler* active_;  // stepping on this thread
};

}  // namespace ffq::runtime
