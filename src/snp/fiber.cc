#include "snp/fiber.hh"

#include <sys/mman.h>

#include "base/log.hh"
#include "snp/fault.hh"
#include "snp/types.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(VEIL_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "snp/fiber.cc: the fiber switch is written for x86-64 only"
#endif

/**
 * veil_fiber_switch(save, load): push the callee-saved registers plus
 * one slot holding MXCSR (low half) and the x87 control word, store
 * rsp to *save, load rsp from @p load, and pop the same frame. A new
 * fiber's first frame (Fiber::resume) has this layout with the
 * trampoline as its return address.
 */
extern "C" void veil_fiber_switch(void **save, void *load);

asm(R"(
    .pushsection .text
    .p2align 4
    .globl  veil_fiber_switch
    .hidden veil_fiber_switch
    .type   veil_fiber_switch, @function
veil_fiber_switch:
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
    .size   veil_fiber_switch, .-veil_fiber_switch
    .popsection
)");

namespace veil::snp {

namespace {

thread_local Fiber *g_current = nullptr;

// g_current is read and written only through these out-of-line
// accessors. A fleet steal may resume a fiber on another host thread,
// and a TLS address computed before a switch (kept in a callee-saved
// register across it) would then name the old thread's slot.
[[gnu::noinline]] Fiber *
loadCurrent()
{
    return g_current;
}

[[gnu::noinline]] void
storeCurrent(Fiber *f)
{
    g_current = f;
}

} // namespace

// The stack is its own anonymous mapping, not a heap buffer: a fiber
// then costs one mmap/munmap pair and a fault per stack page it
// touches, every time. A zero-filled heap vector cost 256 page faults
// per 1 MiB stack whenever malloc served it from fresh memory, and none
// when it reused a freed one, so the same session ran 3x slower in
// some CVMs than in others.
Fiber::Fiber(Fn fn, size_t stack_size)
    : fn_(std::move(fn)),
      stackSize_((stack_size + kPageSize - 1) & ~(kPageSize - 1))
{
    ensure(stackSize_ > 0, "Fiber: zero stack size");
    void *p = mmap(nullptr, stackSize_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ensure(p != MAP_FAILED, "Fiber: stack mmap failed");
    stack_ = static_cast<uint8_t *>(p);
}

Fiber::~Fiber()
{
    // Owners (Machine) are responsible for unwinding live fibers via the
    // shutdown protocol before destruction; a still-running fiber here
    // means its stack objects leak, which we tolerate only if the
    // process is already dying from an exception.
#if defined(VEIL_FIBER_TSAN)
    if (tsanFiber_ != nullptr)
        __tsan_destroy_fiber(tsanFiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
    // Frames the fiber never returned from keep their redzones poisoned;
    // clear them, or the next mapping at this address inherits them.
    __asan_unpoison_memory_region(stack_, stackSize_);
#endif
    munmap(stack_, stackSize_);
}

Fiber *
Fiber::current()
{
    return loadCurrent();
}

void
Fiber::trampoline()
{
    Fiber *self = loadCurrent();
#if defined(__SANITIZE_ADDRESS__)
    // First entry onto the fiber stack; record where we came from so
    // yields can switch back to the scheduler stack.
    __sanitizer_finish_switch_fiber(nullptr, &self->schedStackBottom_,
                                    &self->schedStackSize_);
#endif
    try {
        self->fn_();
    } catch (const FiberShutdown &) {
        // Clean teardown requested by the Machine destructor.
    } catch (...) {
        self->pending_ = std::current_exception();
    }
    self->finished_ = true;
#if defined(__SANITIZE_ADDRESS__)
    // Final exit: null save pointer tells ASan to destroy this fiber's
    // fake stack.
    __sanitizer_start_switch_fiber(nullptr, self->schedStackBottom_,
                                   self->schedStackSize_);
#endif
#if defined(VEIL_FIBER_TSAN)
    __tsan_switch_to_fiber(self->tsanSched_, 0);
#endif
    veil_fiber_switch(&self->sp_, self->schedSp_);
    // Unreachable: a finished fiber is never resumed.
    panic("Fiber: resumed after finish");
}

void
Fiber::resume()
{
    ensure(!finished_, "Fiber::resume on finished fiber");
    ensure(loadCurrent() == nullptr,
           "Fiber::resume: nested fibers unsupported");

    if (!started_) {
        started_ = true;
        // First frame, as veil_fiber_switch pops it (low to high):
        // MXCSR + x87 CW, r15..r12, rbx, rbp, return address = the
        // trampoline, then a null fake return address. The trampoline
        // slot sits 16-byte aligned, so the trampoline starts with
        // rsp = 8 (mod 16) as after a call.
        uintptr_t top = reinterpret_cast<uintptr_t>(stack_) + stackSize_;
        auto *frame = reinterpret_cast<uint64_t *>((top & ~uintptr_t(15)) -
                                                   16 - 7 * sizeof(uint64_t));
        uint32_t mxcsr;
        uint16_t fpucw;
        asm volatile("stmxcsr %0" : "=m"(mxcsr));
        asm volatile("fnstcw %0" : "=m"(fpucw));
        frame[0] = mxcsr | uint64_t(fpucw) << 32;
        for (int i = 1; i <= 6; ++i)
            frame[i] = 0; // r15, r14, r13, r12, rbx, rbp
        frame[7] = reinterpret_cast<uint64_t>(&Fiber::trampoline);
        frame[8] = 0;
        sp_ = frame;
    }

    storeCurrent(this);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&schedFakeStack_, stack_, stackSize_);
#endif
#if defined(VEIL_FIBER_TSAN)
    if (tsanFiber_ == nullptr)
        tsanFiber_ = __tsan_create_fiber(0);
    // Recaptured every resume: multicore teardown may resume from a
    // different scheduler context than the one that ran the fiber.
    tsanSched_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
    veil_fiber_switch(&schedSp_, sp_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(schedFakeStack_, nullptr, nullptr);
#endif
    storeCurrent(nullptr);

    if (pending_) {
        std::exception_ptr p = pending_;
        pending_ = nullptr;
        std::rethrow_exception(p);
    }
}

void
Fiber::yieldToScheduler()
{
    Fiber *self = loadCurrent();
    ensure(self != nullptr, "Fiber::yieldToScheduler outside fiber");
    storeCurrent(nullptr);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&self->fiberFakeStack_,
                                   self->schedStackBottom_,
                                   self->schedStackSize_);
#endif
#if defined(VEIL_FIBER_TSAN)
    __tsan_switch_to_fiber(self->tsanSched_, 0);
#endif
    veil_fiber_switch(&self->sp_, self->schedSp_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(self->fiberFakeStack_,
                                    &self->schedStackBottom_,
                                    &self->schedStackSize_);
#endif
    storeCurrent(self);
}

} // namespace veil::snp
