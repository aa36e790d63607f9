/**
 * @file
 * The (untrusted) host hypervisor. Mirrors the paper's ~400-line KVM
 * modification (§7): it maintains the VMSAs of newly-created domains,
 * installs hypercall handling for hypervisor-relayed domain switches
 * (§5.2), and redirects automatic interrupt exits taken during enclave
 * execution to DomUNT (§6.2).
 *
 * Policy knobs let security tests play a *malicious* hypervisor:
 * refusing interrupt relay, attempting to touch private memory, etc. —
 * the attacks of Table 2.
 *
 * Execution modes (DESIGN.md §12): with MachineConfig::hostThreads == 0
 * run() is the deterministic single-threaded round-robin relay loop.
 * In multicore mode run() spawns one host thread per VCPU, each driving
 * its own VCPU's relay loop; cross-VCPU state (the VMSA registry, the
 * per-VCPU current-context table, the console, the chaos RNG) is
 * guarded by the mutexes below, and host-side RMP mutations go through
 * the machine's exclusive (safe-point) mechanism.
 */
#ifndef VEIL_HV_HYPERVISOR_HH_
#define VEIL_HV_HYPERVISOR_HH_

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "base/spinlock.hh"
#include "base/stat_counter.hh"
#include "chaos/chaos.hh"
#include "hv/hvview.hh"
#include "snp/vcpu.hh"

namespace veil::hv {

/** Values the hypervisor writes into Ghcb::result. */
enum class HvResult : uint64_t {
    Ok = 0,
    Denied = 1,
    /// The context was resumed because an interrupt was redirected to
    /// it, not because its own request completed.
    IntrRedirect = 2,
};

/**
 * Host-side event counters. StatCounter fields are individually
 * relaxed-atomic so concurrent VCPU worker threads can bump them (and
 * printVmStats can read them) without tearing; they are plain counters
 * in effect and cost on the single-threaded path.
 */
struct HvStats
{
    base::StatCounter exits;
    base::StatCounter domainSwitches;
    base::StatCounter deniedSwitches;
    base::StatCounter intrRedirects;
    base::StatCounter pageStateChanges;
    base::StatCounter consoleWrites;
    base::StatCounter vmsaRegistrations;
    base::StatCounter vcpuStarts;
    base::StatCounter chaosInjections; ///< VeilChaos faults injected
};

/** The hypervisor for one machine. */
class Hypervisor
{
  public:
    explicit Hypervisor(snp::Machine &machine);

    snp::Machine &machine() { return machine_; }
    HvView &view() { return view_; }

    // ---- Policy (default = what Veil instructs, §6.2) ----

    /** Relay enclave interrupt exits to DomUNT (true) or force them
     *  back into the enclave context (malicious, halts the CVM). */
    void setRelayInterruptsToUnt(bool relay) { relayIntr_ = relay; }

    /** Only allow DomUNT <-> DomENC switches via this (user-mapped)
     *  GHCB page — the errant-hypercall defense of §6.2. */
    void restrictGhcbToEnclaveSwitches(snp::Gpa ghcb_page);

    // ---- VeilChaos (DESIGN.md §10) ----

    /**
     * Install a fault injector consulted at every relay decision point.
     * nullptr (the default) keeps the relay path byte-for-byte the
     * well-behaved one. The injector must outlive run(). In multicore
     * mode the injector's RNG is serialized behind a spinlock (one
     * stream, arbitrary interleaving — stochastic by design).
     */
    void setFaultInjector(chaos::FaultInjector *injector)
    {
        chaos_ = injector;
    }

    /**
     * Livelock detector for soak runs: run() bails out with
     * RunResult::exitCapHit after this many exits (0 = unlimited).
     * Approximate in multicore mode (workers race past the threshold
     * by at most one exit each).
     */
    void setExitCap(uint64_t cap) { exitCap_ = cap; }

    // ---- VMSA registry (struct vcpu_svm analogue) ----

    void registerVmsa(uint32_t vcpu, snp::Vmpl vmpl, snp::VmsaId id);
    snp::VmsaId lookupVmsa(uint32_t vcpu, snp::Vmpl vmpl) const;

    // ---- Execution ----

    struct RunResult
    {
        bool terminated = false; ///< orderly Terminate hypercall
        uint64_t status = 0;     ///< Terminate status
        bool halted = false;     ///< CVM halted (#NPF etc.)
        bool exitCapHit = false; ///< run() stopped by setExitCap
    };

    /**
     * Run the CVM from its boot VMSA until termination or halt.
     * Single-threaded when the machine is (the deterministic relay
     * loop); otherwise spawns one worker thread per VCPU and joins
     * them all before returning.
     */
    RunResult run(snp::VmsaId boot_vmsa);

    const HvStats &stats() const { return stats_; }
    /** Console text. Read only after run() returns (not synchronized
     *  against in-flight ConsoleWrite relays). */
    const std::string &console() const { return console_; }

  private:
    void handleIntrExit(uint32_t vcpu, snp::VmsaId exiting);
    void handleGhcbExit(uint32_t vcpu, snp::VmsaId exiting);
    void relayNonAutomatic(uint32_t vcpu, snp::VmsaId exiting);
    bool chaosRoll(chaos::FaultSite site, uint32_t vcpu);
    uint64_t chaosPick(uint64_t bound);
    void chaosMaybeRmpFlip(uint32_t vcpu);
    snp::VmsaId chaosPickMisroute(uint32_t vcpu, snp::VmsaId intended);
    bool ghcbEnclaveOnly(snp::Gpa ghcb_gpa) const;

    RunResult runMulticore(snp::VmsaId boot_vmsa);
    void workerLoop(uint32_t vcpu);
    void requestStop();
    bool allVcpusOffline() const;

    /// current_[vcpu] accessors: relaxed-atomic via atomic_ref so
    /// StartVcpu on one worker publishes to the target VCPU's worker.
    snp::VmsaId curGet(uint32_t vcpu) const;
    void curSet(uint32_t vcpu, snp::VmsaId id);

    snp::Machine &machine_;
    HvView view_;
    /// VMSA registry and the restricted-GHCB set, both mutated by GHCB
    /// relays and read on every switch: one shared_mutex covers both.
    mutable std::shared_mutex registryMu_;
    std::map<std::pair<uint32_t, int>, snp::VmsaId> registry_;
    std::set<snp::Gpa> enclaveOnlyGhcbs_;
    std::vector<snp::VmsaId> current_;
    /// Per-VCPU: a doorbell-hinted switch into VMPL1 was granted and
    /// Dom-SRV has not yet switched back (DoorbellDuplicate targeting).
    /// Only ever touched by the owning VCPU's relay path.
    std::vector<uint8_t> doorbellLive_;
    bool relayIntr_ = true;
    std::atomic<bool> terminated_{false};
    std::atomic<uint64_t> status_{0};
    chaos::FaultInjector *chaos_ = nullptr;
    base::Spinlock chaosMu_; ///< serializes the chaos RNG in multicore
    uint64_t exitCap_ = 0;
    std::atomic<bool> exitCapHit_{false};
    HvStats stats_;
    std::mutex consoleMu_;
    std::string console_;

    // Multicore run-loop coordination: offline workers (their VCPU has
    // no current context) wait on startCv_ until a StartVcpu relay
    // brings them online or the run stops. stop_ latches once.
    std::mutex startMu_;
    std::condition_variable startCv_;
    std::atomic<bool> stop_{false};
};

} // namespace veil::hv

#endif // VEIL_HV_HYPERVISOR_HH_
