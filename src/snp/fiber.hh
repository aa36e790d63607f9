/**
 * @file
 * Cooperative fibers used to give every VMSA its own execution context.
 * A guest fiber blocks inside vmgexit() and resumes at the corresponding
 * vmenter(), which is exactly how the paper's replicated-VCPU domain
 * switch behaves (§5.2).
 *
 * A switch is a few instructions of x86-64 assembly (fiber.cc) that
 * save the callee-saved registers, MXCSR and the x87 control word and
 * swap stack pointers. Unlike swapcontext it never saves the signal
 * mask, which nothing here changes, so it makes no system call.
 *
 * Deterministic by construction on one thread. Multicore mode runs
 * each VCPU's fibers on that VCPU's own host thread (the thread_local
 * current-fiber pointer keeps per-thread scheduling independent). A
 * fleet steal may resume a suspended fiber on another host thread, so
 * the current-fiber pointer is only touched through out-of-line
 * accessors that find the TLS slot after the switch.
 */
#ifndef VEIL_SNP_FIBER_HH_
#define VEIL_SNP_FIBER_HH_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

#if defined(__SANITIZE_THREAD__)
#define VEIL_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VEIL_FIBER_TSAN 1
#endif
#endif

namespace veil::snp {

/** One cooperative fiber with its own stack. */
class Fiber
{
  public:
    using Fn = std::function<void()>;

    explicit Fiber(Fn fn, size_t stack_size = kDefaultStackSize);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the scheduler context into this fiber. Returns when
     * the fiber yields or finishes. Rethrows any exception that escaped
     * the fiber body (other than the shutdown marker).
     */
    void resume();

    /** Yield back to the scheduler (call only from inside the fiber). */
    static void yieldToScheduler();

    /** The fiber currently executing, or nullptr in scheduler context. */
    static Fiber *current();

    bool finished() const { return finished_; }
    bool started() const { return started_; }

    static constexpr size_t kDefaultStackSize = 1024 * 1024;

  private:
    static void trampoline();

    Fn fn_;
    uint8_t *stack_ = nullptr; ///< own mapping: pages fault in on first use
    size_t stackSize_ = 0;
    void *sp_ = nullptr;      ///< saved fiber stack pointer
    void *schedSp_ = nullptr; ///< saved scheduler stack pointer
    bool started_ = false;
    bool finished_ = false;
    std::exception_ptr pending_;

#if defined(__SANITIZE_ADDRESS__)
    // ASan fiber-switch bookkeeping (__sanitizer_{start,finish}_switch_fiber):
    // fake-stack handles for each side of a switch plus the scheduler
    // stack bounds learned on first entry.
    void *schedFakeStack_ = nullptr;
    void *fiberFakeStack_ = nullptr;
    const void *schedStackBottom_ = nullptr;
    size_t schedStackSize_ = 0;
#endif
#if defined(VEIL_FIBER_TSAN)
    // TSan fiber bookkeeping (__tsan_{create,switch_to,destroy}_fiber):
    // without it TSan sees one thread's shadow stack teleporting
    // between fiber stacks and reports bogus races. tsanSched_ is the
    // scheduler-side fiber recaptured on every resume (the VEIL_TSAN
    // build of the multicore battery, satellite of ISSUE 7).
    void *tsanFiber_ = nullptr;
    void *tsanSched_ = nullptr;
#endif
};

} // namespace veil::snp

#endif // VEIL_SNP_FIBER_HH_
