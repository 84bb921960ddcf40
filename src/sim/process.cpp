#include "sim/process.hpp"

#include <cstdint>

#include "util/check.hpp"

// Switch mechanism selection. The first entry into a fiber must go through
// ucontext (only makecontext can start execution on a fresh stack), but every
// later engine<->fiber transfer only needs to save and restore registers —
// which _setjmp/_longjmp do entirely in user space, while glibc's swapcontext
// adds a sigprocmask system call per switch. Sanitizers, however, hook the
// ucontext entry points to track stack switches and would mis-poison frames
// jumped over by a cross-stack longjmp, so they keep the pure ucontext path.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CNI_FIBER_UCONTEXT_ONLY 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#ifndef CNI_FIBER_UCONTEXT_ONLY
#define CNI_FIBER_UCONTEXT_ONLY 1
#endif
#endif
#endif
#ifndef CNI_FIBER_UCONTEXT_ONLY
#define CNI_FIBER_UCONTEXT_ONLY 0
#endif

namespace cni::sim {

namespace {

/// The fiber whose body is executing on this OS thread (engine running:
/// nullptr). Set by resume_from_engine before control transfers, so the
/// trampoline reads it directly instead of reassembling `this` from the two
/// unsigned halves makecontext can pass — one less indirect dance on entry,
/// and SimThread::current() gets a one-load implementation.
thread_local SimThread* t_current = nullptr;

}  // namespace

SimThread* SimThread::current() { return t_current; }

SimThread::SimThread(Engine& engine, std::string name, Body body, SimTime start)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      // Mapped inside ZeroPages' constructor, so no local of this one lives
      // across the mmap (set up inline, GCC 12 flags them -Wclobbered).
      stack_(kStackBytes, util::ZeroPages::Guard::kPage) {
  CNI_CHECK(getcontext(&fiber_) == 0);
  fiber_.uc_stack.ss_sp = stack_.data();
  fiber_.uc_stack.ss_size = stack_.size();
  fiber_.uc_link = nullptr;  // the trampoline always swaps back explicitly
  makecontext(&fiber_, &SimThread::trampoline, 0);
  engine_.schedule_at(start, [this] { resume_from_engine(); });
}

void SimThread::trampoline() {
  SimThread* const self = t_current;
  CNI_CHECK_MSG(self != nullptr, "fiber entered outside resume_from_engine");
  try {
    self->body_(*self);
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->yield_to_engine(State::kFinished);
  CNI_CHECK_MSG(false, "resumed a finished fiber");
}

void SimThread::resume_from_engine() {
  CNI_CHECK_MSG(state_ != State::kFinished, "resumed a finished SimThread");
  CNI_CHECK_MSG(state_ != State::kRunning, "resumed a running SimThread");
  wake_pending_ = false;
  state_ = State::kRunning;
  SimThread* const prev = t_current;
  t_current = this;
#if CNI_FIBER_UCONTEXT_ONLY
  if (!started_) started_ = true;
  CNI_CHECK(swapcontext(&engine_ctx_, &fiber_) == 0);
#else
  if (_setjmp(engine_jmp_) == 0) {
    if (started_) {
      _longjmp(fiber_jmp_, 1);
    }
    started_ = true;
    // First entry: only ucontext can start the fresh stack. The context
    // saved into engine_ctx_ is never resumed — the fiber's first yield
    // longjmps straight back to the _setjmp above.
    CNI_CHECK(swapcontext(&engine_ctx_, &fiber_) == 0);
  }
#endif
  // The fiber yielded back (delay/block/finish).
  t_current = prev;
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void SimThread::yield_to_engine(State s) {
  state_ = s;
#if CNI_FIBER_UCONTEXT_ONLY
  CNI_CHECK(swapcontext(&fiber_, &engine_ctx_) == 0);
#else
  if (_setjmp(fiber_jmp_) == 0) _longjmp(engine_jmp_, 1);
#endif
}

void SimThread::delay(SimDuration dt) {
  if (dt == 0) return;
  engine_.schedule_after(dt, [this] { resume_from_engine(); });
  yield_to_engine(State::kDelaying);
}

void SimThread::block() { yield_to_engine(State::kBlocked); }

void SimThread::wake() { wake_at(engine_.now()); }

void SimThread::wake_at(SimTime t) {
  // Several same-instant events may try to unblock the same waiter; only the
  // first wake schedules a resume.
  if (wake_pending_) return;
  CNI_CHECK_MSG(state_ == State::kBlocked,
                "wake() requires the target to be parked in block()");
  wake_pending_ = true;
  engine_.schedule_at(t, [this] { resume_from_engine(); });
}

}  // namespace cni::sim
