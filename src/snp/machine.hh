/**
 * @file
 * The simulated SEV-SNP machine: guest memory + RMP + VMSA slots with
 * one fiber each + virtual TSC + PSP.
 *
 * Control flow mirrors hardware: the hypervisor calls enter() (VMENTER)
 * which switches into the VMSA's fiber; guest software eventually
 * performs a VMGEXIT (non-automatic, GHCB-carrying) or suffers an
 * automatic exit (timer), which switches back and yields a VmExit.
 * An RMP violation (#NPF) that reaches the fiber root halts the whole
 * CVM, matching the paper's "CVM halts with continuous #NPFs" (§8.3).
 *
 * Execution modes (DESIGN.md §12):
 *  - hostThreads == 0 (default): all VCPU fibers multiplex on the
 *    calling host thread, round-robin scheduled by the hypervisor.
 *    Simulated cycle counts are bit-identical run to run.
 *  - hostThreads != 0: one host thread per VCPU (QEMU-MTTCG style).
 *    Per-VCPU hot state (TSC shard, timer deadline, fiber) is
 *    thread-local; cross-VCPU mutations go through sharded RMP locks
 *    and the safe-point ExclusiveCoordinator. Cycle counts become
 *    per-VCPU and scheduling-dependent; safety invariants (RMP check
 *    ordering, attributed halts, per-VCPU ring monotonicity) hold.
 */
#ifndef VEIL_SNP_MACHINE_HH_
#define VEIL_SNP_MACHINE_HH_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/stat_counter.hh"
#include "snp/cycles.hh"
#include "snp/exclusive.hh"
#include "snp/fiber.hh"
#include "snp/memory.hh"
#include "snp/psp.hh"
#include "snp/rmp.hh"
#include "snp/vmsa.hh"
#include "trace/trace.hh"

namespace veil::snp {

/** Static configuration of a machine. */
struct MachineConfig
{
    size_t memBytes = 64 * 1024 * 1024;
    uint32_t numVcpus = 4;
    CostModel costs;
    /// Deliver periodic timer interrupts to unmasked contexts.
    bool interruptsEnabled = true;
    /// SEV-SNP machine (heavy VMGEXIT) vs plain VM (cheap VMCALL); the
    /// latter exists for the paper's 1100-cycle exit anchor (§9.1).
    bool snpMode = true;
    /// 2 MiB large-page fast path (DESIGN.md §14): huge RMP entries,
    /// PS-bit leaves, and batched lazy acceptance.
    /// Off (default), no huge-page code runs and simulated cycle counts
    /// are bit-identical to the historical 4 KiB-only machine.
    bool hugePages = false;
    /// Multicore mode: run each VCPU's fiber loop on its own host
    /// thread (any non-zero value enables it; one thread per VCPU).
    /// 0 keeps the bit-deterministic single-threaded fiber scheduler.
    uint32_t hostThreads = 0;
    /// VeilTrace observability (host-side only; zero simulated cost —
    /// see trace/trace.hh for the determinism contract).
    trace::TraceConfig trace;
    /// Platform (PSP) provisioning seed: the ARK/ASK/VCEK-analog
    /// signing hierarchy is derived from it (attest::PlatformKeys).
    Bytes pspKey = {0x50, 0x53, 0x50, 0x2d, 0x6b, 0x65, 0x79};
    /// Platform TCB version: selects the versioned chip (VCEK analog)
    /// signing key and is stamped into every attestation report, so a
    /// verifier with a minimum-TCB policy detects rollback.
    uint64_t tcbVersion = attest::kDefaultTcbVersion;
};

/** Why control returned to the hypervisor. */
enum class ExitReason : uint8_t {
    NonAutomatic,  ///< VMGEXIT with GHCB contents (I/O-like, §3)
    AutomaticIntr, ///< timer interrupt, no guest state exposed
    Halted,        ///< the VMSA's software returned (orderly stop)
    NpfHalt,       ///< RMP violation halted the CVM
};

/** One exit event. */
struct VmExit
{
    ExitReason reason;
    VmsaId vmsa;
};

/** Machine-wide halt record (sticky). */
struct HaltInfo
{
    bool halted = false;
    std::string reason;
    Gpa gpa = 0;
    Vmpl vmpl = Vmpl::Vmpl0;
};

/** Hardware event counters (relaxed-atomic; see base/stat_counter.hh). */
struct MachineStats
{
    base::StatCounter entries;
    base::StatCounter nonAutomaticExits;
    base::StatCounter automaticExits;
    base::StatCounter timerInterrupts;
    base::StatCounter rmpadjusts;
    base::StatCounter pvalidates;
    // Interrupt-queue accounting: every injected vector is delivered
    // (vectorsQueued counts injections that found one already pending —
    // the case the old single-slot latch silently overwrote).
    base::StatCounter vectorsInjected;
    base::StatCounter vectorsQueued;
    // Timer ticks that went due while the running context was masked:
    // latched (held for delivery on unmask) rather than dropped.
    base::StatCounter timerTicksLatched;
    base::StatCounter timerTicksCoalesced; ///< quanta merged into one delivery
    // Guest-side resilience counters (DESIGN.md §10): bounded recovery
    // from hypervisor misbehaviour. All zero on a well-behaved host.
    base::StatCounter hypercallRetries;    ///< GHCB requests re-issued
    base::StatCounter switchRetries;       ///< switches re-issued (dropped)
    base::StatCounter switchDeniedRetries; ///< switches re-asked after denial
    base::StatCounter idcbResends;         ///< IDCB waits re-entered
    // Always 0 since the software TLB was deleted; perfbench.cc reads them.
    base::StatCounter tlbHits;
    base::StatCounter tlbMisses;
    base::StatCounter tlbFlushes;
    base::StatCounter tlbShootdowns;
    // Large-page path (DESIGN.md §14); all zero with hugePages off.
    base::StatCounter pvalidates2m;  ///< PVALIDATE-2M instructions
    base::StatCounter pscBatches;      ///< grouped multi-entry PSC requests
    base::StatCounter pscBatchedPages; ///< 4 KiB pages covered by them
};

/** The simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return config_; }
    GuestMemory &memory() { return memory_; }
    const GuestMemory &memory() const { return memory_; }
    RmpTable &rmp() { return rmp_; }
    const RmpTable &rmp() const { return rmp_; }
    const CostModel &costs() const { return config_.costs; }
    Psp &psp() { return psp_; }

    /** Whether multicore mode is on (hostThreads != 0). */
    bool multicore() const { return multicore_; }

    /**
     * Virtual TSC. Single-threaded: the machine-global counter.
     * Multicore: the calling thread's own VCPU shard if bound to this
     * machine, otherwise the max over all shards (host-side readers).
     */
    uint64_t tsc() const
    {
        if (!multicore_) [[likely]]
            return tsc_;
        return tscMt();
    }

    void charge(uint64_t cycles)
    {
        if (!multicore_) [[likely]] {
            tsc_ += cycles;
            // Attribution only: the tracer reads, it never charges back.
            tracer_.onCharge(cycles);
            return;
        }
        chargeMt(cycles);
    }

    trace::Tracer &tracer() { return tracer_; }
    const trace::Tracer &tracer() const { return tracer_; }

    const MachineStats &stats() const { return stats_; }
    MachineStats &stats() { return stats_; }

    /** Register a VMSA slot; RMP bookkeeping is the caller's business.
     *  Forbidden while multicore worker threads are running. */
    VmsaId addVmsa(Vmsa state);

    Vmsa &vmsaState(VmsaId id);
    size_t vmsaCount() const { return slots_.size(); }

    /** VMENTER: run the VMSA until its next exit (hypervisor only). In
     *  multicore mode the calling thread must be bound (bindThread) to
     *  the VMSA's vcpuId. */
    VmExit enter(VmsaId id);

    bool halted() const { return halted_.load(std::memory_order_acquire); }
    const HaltInfo &haltInfo() const { return halt_; }

    /** The VMSA currently executing (valid only inside guest fibers).
     *  Multicore: the one executing on the *calling* thread. */
    VmsaId currentVmsaId() const;

    // ---- Multicore thread management (hypervisor worker loop) ----

    /**
     * Bind the calling host thread to @p vcpu: its TSC shard becomes
     * the thread's time source and the thread joins the safe-point
     * protocol. Must be paired with unbindThread() before join.
     */
    void bindThread(uint32_t vcpu);
    void unbindThread();

    /**
     * Run @p fn with every bound worker thread parked at a safe point
     * (the RMPUPDATE-shootdown rendezvous). Single-threaded mode runs
     * @p fn directly. Callers must not hold RMP shard locks.
     */
    template <typename F> void exclusive(F &&fn)
    {
        if (!multicore_) {
            fn();
            return;
        }
        ExclusiveSection section(excl_.get());
        fn();
    }

    /** Completed exclusive sections (multicore observability). */
    uint64_t exclusiveEpochs() const
    {
        return excl_ ? excl_->epoch() : 0;
    }

    /** The rendezvous coordinator (null when single-threaded); the
     *  hypervisor uses begin/endQuiescent around offline-VCPU waits. */
    ExclusiveCoordinator *exclusiveCoordinator() { return excl_.get(); }

    // ---- Guest-fiber-side hardware services (used by Vcpu) ----

    /** Exit to the hypervisor; returns when re-entered. */
    void guestExit(ExitReason reason);

    /** Deliver a pending timer interrupt if due (called from burn). */
    void pollTimer();

    /** Record a CVM halt (e.g. on #NPF). */
    void recordHalt(const std::string &reason, Gpa gpa, Vmpl vmpl);

    /** Whether the 2 MiB large-page fast path is on. */
    bool hugePagesEnabled() const { return config_.hugePages; }

    /**
     * Queue an interrupt vector for @p id: on its next resume the
     * hardware fetches the context's IDT handler (exec-checked against
     * page tables and RMP, then charged the handler cost). This is how
     * the hypervisor delivers timer interrupts — and how forcing
     * interrupt handling into DomENC halts the CVM (§6.2, Table 2).
     * Vectors queue per-VMSA and are delivered in order; injecting on
     * top of a pending vector counts vectorsQueued instead of silently
     * overwriting it. Multicore: only the owning VCPU's thread may
     * inject (vector queues are thread-local by VCPU affinity).
     */
    void injectVector(VmsaId id);

  private:
    /** Per-VCPU virtual-time shard (multicore). Owner thread writes
     *  tsc via atomic_ref; cross-thread readers load via atomic_ref. */
    struct alignas(64) TscShard
    {
        uint64_t tsc = 0;
        uint64_t nextTimerTsc = 0; ///< owner-thread only (per-core APIC)
    };

    struct Slot
    {
        Vmsa state;
        std::unique_ptr<Fiber> fiber;
        uint32_t pendingVectors = 0; ///< injected, not yet delivered
        bool timerLatched = false;   ///< tick went due while masked
        /// Exit event from the most recent guestExit on this slot.
        /// Written by the slot's fiber, read by enter() — same thread.
        VmExit pendingExit{ExitReason::Halted, kInvalidVmsa};
    };

    Slot &slotFor(VmsaId id);
    void startFiber(VmsaId id);
    void shutdownFibers();
    void deliverVector();
    uint64_t tscMt() const;
    void chargeMt(uint64_t cycles);
    void pollTimerMt(Slot &slot);

    MachineConfig config_;
    GuestMemory memory_;
    RmpTable rmp_;
    Psp psp_;
    trace::Tracer tracer_;
    std::deque<Slot> slots_;
    uint64_t tsc_ = 0;
    uint64_t nextTimerTsc_ = 0;
    VmsaId currentVmsa_ = kInvalidVmsa;
    HaltInfo halt_;
    std::atomic<bool> halted_{false};
    std::mutex haltMu_;
    MachineStats stats_;
    bool shuttingDown_ = false;
    // ---- Multicore state ----
    bool multicore_ = false;
    std::vector<TscShard> tscShards_;
    std::unique_ptr<ExclusiveCoordinator> excl_;
    std::atomic<uint32_t> boundThreads_{0};
};

} // namespace veil::snp

#endif // VEIL_SNP_MACHINE_HH_
