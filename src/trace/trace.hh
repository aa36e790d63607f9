/**
 * @file
 * VeilTrace: deterministic, zero-simulated-cost event tracing and cycle
 * attribution (DESIGN.md §8).
 *
 * The tracer is pure host-side observability. It never charges
 * simulated cycles, never touches guest memory, the RMP, or any VMSA,
 * and consumes the virtual TSC through a read-only pointer — so guest
 * TSC sequences and MachineStats are bit-identical whether tracing is
 * enabled or disabled (VEIL_TRACE=off, or TraceConfig::enabled). A
 * dedicated equivalence test pins this contract.
 *
 * Model:
 *  - Events land in fixed-capacity per-VCPU ring buffers (plus one host
 *    ring) that overwrite oldest-first; overwritten events are counted
 *    in explicit drop counters — never silently truncated.
 *  - Spans are recorded at close as complete events (start + duration),
 *    so a wrapped ring can never produce an unmatched begin/end pair.
 *  - Every simulated cycle charged while tracing is attributed to
 *    exactly one category: the innermost open span of the execution
 *    context that charged it, or the context's default category
 *    (guest-run / host-sched) when no span is open. Summing the
 *    per-category cycle counters therefore reconciles exactly with the
 *    machine's TSC delta — drops affect only the event timeline, never
 *    the attribution.
 *  - Execution contexts mirror the fiber structure: one per VMSA plus
 *    the hypervisor ("host") context; Machine switches them on
 *    VMENTER/exit, so spans left open across a yield keep accumulating
 *    only their own context's cycles.
 */
#ifndef VEIL_TRACE_TRACE_HH_
#define VEIL_TRACE_TRACE_HH_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <deque>
#include <vector>

#include "base/spinlock.hh"

namespace veil::trace {

/** Event/attribution categories. */
enum class Category : uint8_t {
    HostSched = 0,   ///< hypervisor dispatch loop (default host context)
    GuestRun,        ///< VMSA residency from VMENTER to the next exit
    VmEnter,         ///< VMENTER state restore
    VmgExit,         ///< VMGEXIT / automatic-exit state save
    TimerIntr,       ///< timer interrupt fired
    IntrDeliver,     ///< injected vector delivered through the IDT
    DomainSwitch,    ///< hypervisor-relayed domain switch granted
    DeniedSwitch,    ///< domain switch denied (§6.2 defenses)
    Rmpadjust,       ///< RMPADJUST instruction
    Pvalidate,       ///< PVALIDATE instruction
    Npf,             ///< #NPF that halted the CVM
    Syscall,         ///< guest kernel syscall enter..exit
    MonitorReq,      ///< VeilMon IDCB request dispatch
    ServiceKci,      ///< VeilS-KCI request dispatch
    ServiceEnc,      ///< VeilS-ENC request dispatch
    ServiceLog,      ///< VeilS-LOG request dispatch
    EnclavePageIn,   ///< enclave page restored from sealed storage
    EnclavePageOut,  ///< enclave page sealed out
    CryptoKeySetup,  ///< AES key schedule / HMAC midstate derivation
    AuditFlush,      ///< no longer emitted: batched audit drains under
                     ///< RingFlush; kept so category ids stay stable
    AuditTruncate,   ///< audit record clamped to transport (arg = size)
    FaultInject,     ///< VeilChaos fault injected by the hypervisor
    RingFlush,       ///< VeilOp ring doorbell/drain (arg = ops, §11)
    FleetSched,      ///< fleet clone/steal/quantum switch (§13)
    Evict,           ///< memory-pressure page evict/restore (§13)
    kCount,
};

constexpr size_t kCategoryCount = static_cast<size_t>(Category::kCount);

/** Stable kebab-case name (used in exports, metrics, and tests). */
const char *categoryName(Category c);

/** Tracing knobs carried inside MachineConfig. */
struct TraceConfig
{
    /// Master switch. The VEIL_TRACE environment variable overrides it
    /// at runtime: "off"/"0"/"false" disable, "on"/"1" force-enable.
    bool enabled = true;
    /// Event capacity of each ring (one ring per VCPU plus one for the
    /// host context). Oldest events are overwritten and counted.
    size_t ringCapacity = 1 << 15;
};

enum class EventKind : uint8_t {
    Instant, ///< point event; dur/self are zero
    Span,    ///< recorded at close: [tsc, tsc+dur), self-cycles in self
};

/** One trace record. */
struct Event
{
    Category cat = Category::HostSched;
    EventKind kind = EventKind::Instant;
    uint8_t vmpl = 0;    ///< VMPL of the owning track (0xff = host)
    uint32_t vcpu = 0;   ///< VCPU of the owning track (0xffffffff = host)
    uint64_t tsc = 0;    ///< virtual-TSC start timestamp
    uint64_t dur = 0;    ///< span wall duration in simulated cycles
    uint64_t self = 0;   ///< span self-attributed cycles (nested excluded)
    uint64_t arg = 0;    ///< category-specific payload (op, gpa, ...)
};

/** Log2-bucketed distribution of span self-cycles for one category. */
struct SpanHistogram
{
    static constexpr size_t kBuckets = 40;
    uint64_t buckets[kBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
};

constexpr uint32_t kHostVcpu = 0xffffffffu;
constexpr uint8_t kHostVmpl = 0xff;

/** The per-machine tracer. All methods are no-ops while disabled. */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Wire the tracer to its machine: @p tsc is the machine's virtual
     * TSC (read-only), @p num_vcpus sizes the ring set. Applies the
     * VEIL_TRACE environment override.
     */
    void configure(const TraceConfig &config, uint32_t num_vcpus,
                   const uint64_t *tsc);

    bool enabled() const { return enabled_; }

    // ---- Multicore support (DESIGN.md §12) ----
    //
    // Off (the default), nothing below is consulted and every path is
    // byte-identical to the single-threaded tracer. On, each worker
    // thread gets its own host context + clock (bindThread), ring
    // appends take a per-ring spinlock, and shared counters (totals,
    // per-category cycles, histograms) use relaxed atomics — the
    // attribution reconciliation invariant survives, per-VCPU rings
    // stay monotonic in their own virtual time.

    /** Enable thread-safe paths (call before any worker runs). */
    void setMulticore(bool on);
    /** Pre-size guest contexts so enterContext never reallocates while
     *  workers run (call before spawning; @p n = VMSA count). */
    void presizeGuest(size_t n);
    /** Bind the calling worker thread: its VCPU track + time source. */
    void bindThread(uint32_t vcpu, const uint64_t *clock);
    void unbindThread();

    // ---- Context switching (Machine only) ----

    /** Enter guest context @p vmsa (on VMENTER). */
    void enterContext(uint32_t vmsa, uint32_t vcpu, uint8_t vmpl);
    /** Return to the host (hypervisor) context. */
    void exitContext();

    /** Attribute @p cycles to the current context's innermost span. */
    void onCharge(uint64_t cycles)
    {
        if (!enabled_)
            return;
        if (mt_) {
            onChargeMt(cycles);
            return;
        }
        total_ += cycles;
        Ctx &ctx = *cur_;
        if (ctx.stack.empty()) {
            cyclesByCat_[static_cast<size_t>(ctx.defaultCat)] += cycles;
        } else {
            OpenSpan &top = ctx.stack.back();
            top.self += cycles;
            cyclesByCat_[static_cast<size_t>(top.cat)] += cycles;
        }
    }

    // ---- Event recording ----

    /** Point event in the current context. */
    void instant(Category cat, uint64_t arg = 0);
    /** Point event on an explicit (vcpu, vmpl) track. */
    void instantAt(uint32_t vcpu, uint8_t vmpl, Category cat,
                   uint64_t arg = 0);
    /** Open a span in the current context (close with endSpan). */
    void beginSpan(Category cat, uint64_t arg = 0);
    /** Close the current context's innermost span and record it. */
    void endSpan();
    /** Record a pre-measured span [t0, t1) on an explicit track. */
    void spanAt(uint32_t vcpu, uint8_t vmpl, Category cat, uint64_t t0,
                uint64_t t1, uint64_t arg = 0);

    // ---- Results (host-side observability) ----

    uint64_t cycles(Category cat) const
    {
        return cyclesByCat_[static_cast<size_t>(cat)];
    }
    /** Total cycles charged while tracing was enabled. */
    uint64_t totalCycles() const { return total_; }

    uint64_t recordedEvents() const;
    uint64_t droppedEvents() const;

    /** Number of rings (numVcpus + 1; the last one is the host ring). */
    size_t ringCount() const { return rings_.size(); }
    size_t ringCapacity() const { return cap_; }
    uint64_t ringDropped(size_t ring) const;
    /** Chronological (oldest-first) copy of one ring. */
    std::vector<Event> ringEvents(size_t ring) const;

    const SpanHistogram &histogram(Category cat) const
    {
        return hist_[static_cast<size_t>(cat)];
    }

  private:
    struct Ring
    {
        std::vector<Event> buf;
        size_t head = 0;      ///< next overwrite position once full
        uint64_t dropped = 0; ///< events overwritten (flight recorder)
    };

    friend struct TracerThreadState;

    struct OpenSpan
    {
        Category cat;
        uint64_t start;
        uint64_t arg;
        uint64_t self = 0;
    };

    struct Ctx
    {
        uint32_t vcpu = kHostVcpu;
        uint8_t vmpl = kHostVmpl;
        Category defaultCat = Category::HostSched;
        std::vector<OpenSpan> stack;
    };

    uint64_t now() const;
    size_t ringIdxFor(uint32_t vcpu) const;
    void record(size_t ring_idx, const Event &e);
    void onChargeMt(uint64_t cycles);
    Ctx *currentCtx();
    const Ctx *currentCtx() const;

    bool enabled_ = false;
    const uint64_t *tsc_ = nullptr;
    size_t cap_ = 0;
    std::vector<Ring> rings_; ///< [vcpu 0..n-1, host]
    Ctx host_;
    /// Indexed by VmsaId. A deque on purpose: bound worker threads
    /// cache raw Ctx pointers (t_trace.cur), and presizeGuest() must be
    /// able to grow the table mid-run (fleet clones create VMSAs) while
    /// every cached pointer to an existing element stays valid.
    std::deque<Ctx> guest_;
    Ctx *cur_ = &host_;
    uint64_t total_ = 0;
    uint64_t cyclesByCat_[kCategoryCount] = {};
    SpanHistogram hist_[kCategoryCount];
    // ---- Multicore state ----
    bool mt_ = false;
    uint32_t numVcpus_ = 0;
    std::vector<Ctx> mtHost_; ///< per-worker-thread host contexts
    std::unique_ptr<base::Spinlock[]> ringLocks_; ///< one per ring
    base::Spinlock histLock_;
};


/** RAII span: opens on construction, closes (and records) on scope exit. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, Category cat, uint64_t arg = 0)
        : tracer_(tracer)
    {
        tracer_.beginSpan(cat, arg);
    }
    ~SpanScope() { tracer_.endSpan(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
};

} // namespace veil::trace

#endif // VEIL_TRACE_TRACE_HH_
