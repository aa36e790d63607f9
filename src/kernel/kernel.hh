/**
 * @file
 * The mini guest kernel. Plays the role of the paper's modified Linux
 * guest (§7): it runs at Dom-UNT under Veil (or at VMPL-0 in a native
 * CVM), delegates VCPU boot and page-state changes to VeilMon (§5.3),
 * hooks its audit framework into VeilS-LOG (§6.3), routes module
 * loading through VeilS-KCI (§6.1), and ships the enclave driver that
 * sets up VeilS-ENC enclaves (§6.2).
 */
#ifndef VEIL_KERNEL_KERNEL_HH_
#define VEIL_KERNEL_KERNEL_HH_

#include <functional>

#include "base/spinlock.hh"
#include "base/stat_counter.hh"
#include "kernel/audit.hh"
#include "kernel/process.hh"
#include "kernel/uapi.hh"
#include "veil/layout.hh"
#include "veil/module_format.hh"
#include "veil/proto.hh"

namespace veil::kern {

/** Kernel configuration. */
struct KernelConfig
{
    AuditBackend auditBackend = AuditBackend::None;
    std::set<uint32_t> auditRules;
    /// Exit-less VeilOp batching (DESIGN.md §11): queue deferrable
    /// service calls (LogAppend, EncSyncPerms, EncFreePage) in the
    /// per-VCPU submission ring and ring the doorbell in groups instead
    /// of paying a domain-switch round trip per call. Off by default:
    /// the sync path stays bit-identical.
    bool serviceBatching = false;
    /// Op ring (serviceBatching, or VeilLogBatched, whose records queue
    /// as LogAppend slots): doorbell once this many ops queue up.
    uint32_t opBatchSize = 32;
    /// Op ring: doorbell on the first timer tick once the oldest queued
    /// op has been pending this many cycles (bounds how long a queued
    /// audit record stays unprotected).
    uint64_t opFlushDeadlineCycles = 2'000'000;
    /// Lazy acceptance (DESIGN.md §14): launch leaves the OS region
    /// (at/above kernelBase) unassigned; boot accepts it via
    /// PageStateChange-to-private. VeilVm also hands it to the launch
    /// and to VeilMon. With huge pages on the requests are grouped
    /// (multi-entry 2 MiB PSC); off, each page pays its own round trip
    /// (ablation baseline).
    bool lazyAccept = false;
    /// Module signing key known to the kernel build (native verify
    /// path) and provisioned to VeilS-KCI.
    Bytes moduleKey = {'m', 'o', 'd', '-', 'k', 'e', 'y'};
};

/** Cumulative kernel event counters (relaxed-atomic StatCounters so
 *  host-side readers never tear a value while a VCPU thread bumps it). */
struct KernelStats
{
    base::StatCounter syscalls;
    base::StatCounter auditRecords;
    base::StatCounter auditTruncations; ///< records clamped to fit transport
    /// Audit records the transport lost. The op ring never drops one (a
    /// record it cannot queue takes the sync LogAppend), so this stays 0.
    base::StatCounter auditRingDrops;
    base::StatCounter auditBatchFlushes;  ///< doorbells that drained records
    base::StatCounter auditFlushedRecords;///< LogAppends served from the ring
    base::StatCounter monitorCalls;
    base::StatCounter serviceCalls;
    base::StatCounter enclaveFaults;
    base::StatCounter modulesLoaded;
    // ---- VeilOp ring batching (§11) ----
    base::StatCounter opSubmitted;       ///< ops queued in the ring
    base::StatCounter opDoorbells;       ///< OpRingDoorbell calls issued
    base::StatCounter opDoorbellRetries; ///< re-rings after partial drain
    base::StatCounter opSyncFallbacks;   ///< deferrable ops forced sync
                                         ///< (full, oversized, or illegal)
    base::StatCounter opCompletions;     ///< completions harvested
    base::StatCounter opCplErrors;       ///< completions with status != Ok
    base::StatCounter opCplResyncs;      ///< completion-header resyncs
                                         ///< (stale or inconsistent index)
    base::StatCounter opFlushSize;       ///< doorbells from batch size
    base::StatCounter opFlushDeadline;   ///< doorbells from the deadline
    base::StatCounter opFlushBarrier;    ///< doorbells from barriers
    base::StatCounter opMaxDepth;        ///< deepest submission queue seen
    /// Per-VeilOp call counts across both transports (sync IDCB calls
    /// count at issue, batched ops at submission).
    base::StatCounter veilOpCalls[core::kVeilOpCount];
};

/** The kernel. */
class Kernel
{
  public:
    using InitFn = std::function<void(Kernel &, Process &)>;

    /** @p veil: running under Veil (Dom-UNT, with VeilS-KCI W^X and
     *  signed module loading) rather than as a native CVM (VMPL-0
     *  boot); VeilVm passes VmConfig::veilEnabled. */
    Kernel(snp::Machine &machine, const core::CvmLayout &layout,
           KernelConfig config, bool veil);
    ~Kernel();

    /** Boot entry for the BSP (VCPU 0). */
    snp::GuestEntry bspEntry();
    /** Boot entry for a hotplugged AP. */
    snp::GuestEntry apEntry(uint32_t vcpu);

    /** The "init program": the workload driver run after boot. */
    void setInit(InitFn fn) { init_ = std::move(fn); }

    /**
     * Fleet worker body run by each hotplugged AP after its bring-up
     * handshake (multicore fleet mode). Runs in the AP's guest fiber on
     * the AP's host thread with that VCPU bound as the thread's kernel
     * CPU, so syscalls and enclave sessions issued from it use the
     * AP's own GHCB/IDCB/rings.
     */
    using WorkerFn = std::function<void(Kernel &, snp::Vcpu &, uint32_t)>;
    void setWorkerMain(WorkerFn fn) { workerMain_ = std::move(fn); }

    /**
     * Bind @p cpu as the calling host thread's kernel CPU: kernel
     * entry points invoked on this thread resolve cpu() to it instead
     * of the BSP. Pass nullptr to unbind.
     */
    static void bindWorkerCpu(snp::Vcpu *cpu);

    // ---- Syscall interface (used by the SDK environments) ----

    int64_t syscall(Process &proc, uint32_t no, const uint64_t args[6]);

    // ---- Kernel services ----

    /**
     * @p light_as: give the process a supervisor identity map bounded
     * to the kernel image (fleet sessions; see AddressSpace) instead of
     * all physical memory.
     */
    Process &makeProcess(const std::string &comm, bool light_as = false);
    /**
     * Tear a finished process down and return its memory — remaining
     * user data frames, then the whole page-table tree — to the frame
     * allocator. The classic kernel never bothered (processes lived for
     * the whole VM); fleet sessions churn thousands of processes, so
     * their ~dozen frames each must come back. The enclave (if any)
     * must already be destroyed. Invalidates @p proc.
     */
    void reapProcess(Process &proc);
    snp::Vcpu &cpu();
    bool booted() const { return booted_; }
    const KernelStats &stats() const { return stats_; }
    AuditSubsystem &audit() { return audit_; }
    RamFs &fs() { return fs_; }
    NetStack &net() { return net_; }
    FrameAllocator &frames() { return *frames_; }
    const FrameAllocator &frames() const { return *frames_; }
    const KernelConfig &config() const { return config_; }
    bool veilEnabled() const { return veil_; }
    const core::CvmLayout &layout() const { return layout_; }

    /** Buffered kernel console (printk + fd 1/2 writes). */
    const std::string &console() const { return console_; }

    // ---- §5.3 delegation clients ----

    // Request and reply share @p msg: the reply overwrites the request
    // in place so the ~3.2 KB message block is never copied through the
    // call chain.
    void callMonitor(core::IdcbMessage &msg);
    void callService(core::IdcbMessage &msg);

    /**
     * Batched transport (§11): queue the call in this VCPU's VeilOp
     * submission ring when it is deferrable and batching is legal here,
     * falling back to the sync path otherwise. A queued call returns
     * with status Ok optimistically; the real status arrives with its
     * completion (a refusal counts in opCplErrors). With
     * serviceBatching disabled this is exactly callService.
     */
    void callServiceBatched(core::IdcbMessage &msg);

    /** VeilOps queued in this VCPU's submission ring, not yet drained. */
    uint64_t opRingPending(uint32_t vcpu) const;

    /** Drain barrier: doorbell + harvest until the op ring is empty. */
    void opRingBarrier();

    /** Boot an additional VCPU (hotplug) through VeilMon. */
    bool bootVcpu(uint32_t vcpu);
    bool vcpuOnline(uint32_t vcpu) const { return onlineVcpus_.count(vcpu); }

    // ---- §6.1 module loading (load_module / free_module hooks) ----

    /** Load a signed VKO image; returns handle or -errno. */
    int64_t loadModule(const Bytes &image);
    int64_t unloadModule(int64_t handle);
    /** Execute the module entry (exec-checked fetch + banner print). */
    int64_t invokeModule(int64_t handle);
    snp::Gpa moduleText(int64_t handle) const;

    // ---- §6.2 enclave driver ----

    int64_t enclaveCreate(Process &proc, VeilEnclaveCreateArgs &args);
    int64_t enclaveDestroy(Process &proc);
    /** §13: seal the process's enclave as a copy-on-write template. */
    int64_t enclaveSnapshot(Process &proc, VeilSnapshotArgs &args);
    /** §13: instantiate a CoW clone of a sealed template. */
    int64_t enclaveClone(Process &proc, VeilCloneArgs &args);
    /** §13: drop the kernel's reference on a sealed template. */
    int64_t enclaveSnapshotRelease(uint64_t snapshotId);
    /** Memory-pressure path: evict one enclave page to "disk". */
    int64_t enclaveFreePage(Process &proc, snp::Gva va);
    /** #PF handler path: restore an evicted page / sync a lazy map. */
    int64_t enclaveHandleFault(Process &proc, snp::Gva va);
    /** Scheduler hook: select the enclave GHCB before entering (§6.2). */
    void prepEnclaveRun(Process &proc);
    /** Back in kernel context after an enclave session. */
    void finishEnclaveRun(Process &proc);

    /** Kernel text/data ranges (for KCI and attack tests). */
    snp::Gpa textLo() const { return textLo_; }
    snp::Gpa textHi() const { return textHi_; }
    snp::Gpa dataLo() const { return dataLo_; }
    snp::Gpa dataHi() const { return dataHi_; }
    snp::Gva idtHandler() const { return idtHandlerVa_; }

    /** Orderly shutdown (Terminate hypercall). */
    void terminate(uint64_t status);

    /**
     * Compromised-kernel model for security experiments: rewrite
     * syscall results before they are returned (e.g. IAGO attacks [37]
     * returning enclave-interior pointers from mmap).
     */
    using SyscallTamper = std::function<int64_t(uint32_t no, int64_t ret)>;
    void setSyscallTamper(SyscallTamper fn) { tamper_ = std::move(fn); }

  private:
    void bspMain(snp::Vcpu &cpu);
    void validateAllMemoryNative(snp::Vcpu &cpu);
    /** The calling thread's kernel CPU (worker binding, else the BSP);
     *  nullptr before boot. */
    snp::Vcpu *curCpu() const;
    /** Append to the kernel console (spinlocked in multicore mode). */
    void conAppend(const std::string &s);
    void pageStateChange(snp::Gpa page, bool shared);
    /** One hypercall through this VCPU's OS GHCB; the GHCB MSR is
     *  restored afterwards. */
    void osHypercall(const snp::Ghcb &g);
    /** Per-enclave GHCB (§6.2): a fresh frame, made hypervisor-shared
     *  via VeilMon, mapped at @p gva in @p proc and restricted to
     *  UNT<->ENC switches. Returns the frame. */
    snp::Gpa enclaveGhcbSetup(Process &proc, snp::Gva gva);
    /** Undo enclaveGhcbSetup. */
    void enclaveGhcbRelease(Process &proc, snp::Gva gva, snp::Gpa frame);
    void auditHook(Process &proc, uint32_t no, const uint64_t args[6]);

    // ---- Batched VeilOp submission (exit-less service calls, §11) ----
    enum class OpFlushTrigger { Size, Deadline, Barrier };
    /// Producer view of one VCPU's submission ring + consumer view of
    /// its completion ring; the shared headers are kept in sync.
    struct OpRingState
    {
        uint64_t head = 0;        ///< submission producer index (monotonic)
        uint64_t pending = 0;     ///< head - drained tail
        uint64_t submitted = 0;   ///< total ops ever queued (== next seq)
        uint64_t harvested = 0;   ///< completions consumed (cpl tail)
        uint64_t oldestTsc = 0;   ///< TSC when the oldest op queued
        bool initialized = false; ///< headers written to guest memory
    };
    /// The op ring is in use: serviceBatching, or batched audit.
    bool opRingOn() const;
    bool opDeferrable(uint32_t op) const;
    /// No ring flush (nor queueing) before boot, mid-IDCB or in-session.
    bool opFlushAllowed() const;
    /// Queue one call; false when it must go sync (ring full with flush
    /// impossible, oversized payload, batching off). On success the
    /// submission sequence number is stored in *seq_out.
    bool opSubmit(const core::IdcbMessage &msg, uint32_t *seq_out = nullptr);
    void opRingFlush(OpFlushTrigger trigger);
    void opHarvestCompletions();
    void opMaybeDeadlineFlush();
    void opCompletionArrived(const core::VeilOpCompletion &cpl);

    // Syscall bodies.
    int64_t sysOpen(Process &p, snp::Gva path, int flags);
    int64_t sysClose(Process &p, int fd);
    int64_t sysRead(Process &p, int fd, snp::Gva buf, uint64_t len,
                    std::optional<uint64_t> at);
    int64_t sysWrite(Process &p, int fd, snp::Gva buf, uint64_t len,
                     std::optional<uint64_t> at);
    int64_t sysLseek(Process &p, int fd, int64_t off, int whence);
    int64_t sysStat(Process &p, snp::Gva path, snp::Gva out);
    int64_t sysFstat(Process &p, int fd, snp::Gva out);
    int64_t sysMmap(Process &p, snp::Gva addr, uint64_t len, int prot,
                    int flags, int fd);
    int64_t sysMunmap(Process &p, snp::Gva addr, uint64_t len);
    int64_t sysMprotect(Process &p, snp::Gva addr, uint64_t len, int prot);
    int64_t sysSocket(Process &p, int family, int type);
    int64_t sysBind(Process &p, int fd, snp::Gva addr_gva);
    int64_t sysListen(Process &p, int fd, int backlog);
    int64_t sysConnect(Process &p, int fd, snp::Gva addr_gva);
    int64_t sysAccept(Process &p, int fd);
    int64_t sysSendto(Process &p, int fd, snp::Gva buf, uint64_t len);
    int64_t sysRecvfrom(Process &p, int fd, snp::Gva buf, uint64_t len);
    int64_t sysIoctl(Process &p, int fd, uint64_t cmd, snp::Gva arg);
    int64_t sysUnlink(Process &p, snp::Gva path);
    int64_t sysRename(Process &p, snp::Gva oldp, snp::Gva newp);
    int64_t sysMkdir(Process &p, snp::Gva path);
    int64_t sysFtruncate(Process &p, int fd, uint64_t len);
    int64_t sysClockGettime(Process &p, snp::Gva out);

    snp::Machine &machine_;
    core::CvmLayout layout_;
    KernelConfig config_;
    const bool veil_;
    AuditSubsystem audit_;
    RamFs fs_;
    NetStack net_;
    std::unique_ptr<FrameAllocator> frames_;
    std::vector<std::unique_ptr<Process>> processes_;
    InitFn init_;
    snp::Vcpu *cpu_ = nullptr;
    bool booted_ = false;
    KernelStats stats_;
    std::string console_;
    std::set<uint32_t> onlineVcpus_;

    snp::Gpa textLo_ = 0, textHi_ = 0, dataLo_ = 0, dataHi_ = 0;
    snp::Gva idtHandlerVa_ = 0;
    std::map<std::string, uint64_t> kernelSymbols_;

    struct Module
    {
        uint64_t kciHandle = 0; ///< 0 = natively loaded
        snp::Gpa dest = 0;
        uint32_t destPages = 0;
        snp::Gva entry = 0;
    };
    std::map<int64_t, Module> modules_;
    int64_t nextModule_ = 1;

    int nextPid_ = 1;
    uint32_t nextEphemeralPort_ = 40000;
    /// Per-VCPU: the Dom-ENC VMSA the hypervisor's slot currently
    /// points at (the fleet scheduler re-registers on a mismatch).
    std::vector<snp::VmsaId> scheduledEnclaveVmsa_;
    /// Per-VCPU: true while servicing an ocall from a running enclave —
    /// such requests originate *inside* the enclave (§6.2).
    std::vector<uint8_t> inEnclaveSession_;
    std::vector<OpRingState> opRings_; ///< one per VCPU (§11)
    /// EncFreePage post-processing (seal-capture + unmap + frame free)
    /// deferred until the op's completion is harvested. Per VCPU: the
    /// sequence numbers are per-VCPU ring sequences.
    struct DeferredFreePage
    {
        uint32_t seq;
        Process *proc;
        snp::Gva va;
        snp::Gpa pa;
    };
    std::vector<std::vector<DeferredFreePage>> deferredFreePages_;
    /// Per-VCPU: true while an IDCB call is in flight; the timer flush
    /// hook must not start a nested call.
    std::vector<uint8_t> idcbBusy_;
    WorkerFn workerMain_;
    /// Guards console_ and onlineVcpus_ against concurrent fleet
    /// workers (only taken in multicore mode).
    mutable base::Spinlock kernMu_;
    SyscallTamper tamper_;
};

} // namespace veil::kern

#endif // VEIL_KERNEL_KERNEL_HH_
