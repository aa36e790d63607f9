/**
 * @file
 * VeilFleet (DESIGN.md §13): many short-lived enclave sessions over a
 * few VCPUs. Three pieces, all built on the §6.2 enclave driver and
 * the §12 multicore substrate:
 *
 *  - **Snapshot/clone.** One template enclave is built, measured, and
 *    sealed (EncSnapshot); every session is then a copy-on-write clone
 *    (EncClone) that shares the template's frames read-only and
 *    privatizes pages on first write via #NPF-driven EncCloneFault.
 *    A clone costs a GHCB + page-table walk instead of the full
 *    build/measure/finalize boot, and attests to the template's
 *    measurement.
 *
 *  - **Fleet scheduler.** N sessions multiplex over K VCPUs through
 *    per-VCPU run queues. In multicore mode each hotplugged AP runs
 *    the worker loop on its own host thread (Kernel::setWorkerMain);
 *    single-threaded, the BSP round-robins the same logical queues,
 *    which keeps every scheduling decision deterministic for chaos
 *    replay. Idle workers steal from the longest other queue; a stolen
 *    session's Dom-ENC VMSA is re-homed to the thief under the
 *    machine's exclusive section (the hypervisor routes domain
 *    switches strictly by VMSA vcpuId).
 *
 *  - **Memory pressure.** A global frame budget drives a CLOCK sweep
 *    over idle sessions' private pages, evicting through the sealed
 *    EncFreePage swap path (§6.2); pages fault back in on next touch.
 *    The same sweep backs the FrameAllocator reclaim hook, so an
 *    allocator that would otherwise halt the CVM first asks the fleet
 *    to shed working set.
 *
 * Lock order (outer to inner): procMu_ (process table churn) →
 * FrameAllocator (+ its reclaim hook) → fleetMu_ (queues, stats) →
 * chaosMu_ (injector draws). Nothing that can allocate frames runs
 * under fleetMu_, so the reclaim hook can always take it. All spin
 * acquisitions burn(0) so parked workers keep hitting safepoints and
 * exclusive sections stay live.
 */
#ifndef VEIL_FLEET_FLEET_HH_
#define VEIL_FLEET_FLEET_HH_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "base/spinlock.hh"
#include "chaos/chaos.hh"
#include "sdk/vm.hh"

namespace veil::fleet {

/** Fleet workload + scheduler configuration. */
struct FleetConfig
{
    /// Total sessions to run to completion.
    uint32_t sessions = 64;
    /// Admission window: live clones at any instant (bounds frames).
    uint32_t maxLive = 8;
    /// Enclave calls one session runs per scheduling slice.
    uint32_t quantum = 4;
    /// Per-session call counts are Zipf-drawn from [1, callsMax]: a few
    /// long-lived sessions, a long tail of one-shots.
    uint32_t callsMax = 8;
    double zipfSkew = 1.2;
    /// Seed for every fleet decision (Zipf draws); per-session draws
    /// are keyed by session id, so totals are schedule-independent.
    uint64_t seed = 1;
    /// Evict idle sessions' private pages once the allocator's inUse()
    /// crosses this many frames; 0 disables pressure sweeps (the
    /// reclaim hook still runs if the allocator empties outright).
    uint64_t frameBudget = 0;
    /// Heap pages each enclave call dirties (CoW/working-set knob).
    uint32_t pagesPerCall = 8;
    /// Simulated compute per enclave call.
    uint64_t burnPerCall = 20'000;
    /// Chaos injector for the fleet's own sites (EvictRace,
    /// CloneRmpFlip); nullptr runs clean.
    chaos::FaultInjector *chaos = nullptr;

    // Template image geometry (EnclaveHost::Params).
    size_t codePages = 16;
    size_t heapPages = 512;
    size_t stackPages = 16;
};

/** Host-side fleet counters. */
struct FleetStats
{
    uint64_t sessionsCompleted = 0;
    uint64_t callsCompleted = 0;
    uint64_t clones = 0;
    uint64_t cloneFailures = 0;
    uint64_t cloneCycles = 0; ///< summed createFromSnapshot latency
    uint64_t steals = 0;
    uint64_t evictions = 0;        ///< pages pushed through EncFreePage
    uint64_t evictionSweeps = 0;   ///< budget-pressure CLOCK passes
    uint64_t reclaimEvictions = 0; ///< pages freed by the allocator hook
    uint64_t chaosEvictRaces = 0;  ///< EvictRace overrides of the hand
    uint64_t chaosCloneFlips = 0;  ///< CloneRmpFlip injections landed
    uint64_t checksumErrors = 0;   ///< cross-session result divergences
    uint64_t killedSessions = 0;   ///< sessions that died mid-run
    uint64_t peakLive = 0;         ///< admission high-water mark
    uint64_t workingSetPages = 0;  ///< summed per-session peak residency
};

/**
 * Drives one fleet over a booted VeilVm. Construct, sealTemplate()
 * once from the init program, run(), releaseTemplate(), read stats.
 */
class FleetManager
{
  public:
    FleetManager(sdk::VeilVm &vm, FleetConfig cfg);
    ~FleetManager();

    /**
     * Build, measure, and seal the template enclave. The timed
     * create() is the full-boot baseline that clone latency is
     * compared against. False if the driver rejects the image.
     */
    bool sealTemplate(kern::Kernel &k);

    /** Run all configured sessions to completion (or machine halt). */
    void run(kern::Kernel &k);

    /** Drop the snapshot and reap the template process. Must run after
     *  run(): every clone holds a snapshot reference. */
    void releaseTemplate(kern::Kernel &k);

    const FleetStats &stats() const { return stats_; }
    const sdk::EnclaveSnapshot &snapshot() const { return snap_; }
    /// Cycles the timed template create() (full boot) took.
    uint64_t bootCycles() const { return bootCycles_; }
    /// Mean createFromSnapshot latency over all successful clones.
    uint64_t avgCloneCycles() const;
    /// The Zipf-drawn call count for @p session_id (test oracle).
    uint32_t callsFor(uint32_t session_id) const;

    /**
     * The fleet session program: bumps a call counter at the heap
     * base, dirties a sliding window of pagesPerCall heap pages, burns
     * burnPerCall cycles, and returns a checksum that is a function of
     * the call index alone — so every correctly isolated session
     * returns the same value for the same call number, which run()
     * cross-checks fleet-wide.
     */
    static sdk::EnclaveProgram makeWorkload(const FleetConfig &cfg);

  private:
    struct Session
    {
        uint32_t id = 0;
        uint32_t owner = 0; ///< queue currently holding/running it
        uint32_t callsLeft = 0;
        uint64_t callsDone = 0;
        uint64_t peakResident = 0; ///< working-set high-water (pages)
        bool dead = false;         ///< killed; retire without checks
        kern::Process *proc = nullptr;
        std::unique_ptr<sdk::NativeEnv> env;
        std::unique_ptr<sdk::EnclaveHost> host;
        snp::Gva clockHand = 0; ///< per-session CLOCK position
    };

    // Scheduler.
    void workerBody(kern::Kernel &k, snp::Vcpu &cpu, uint32_t vcpu);
    bool stepOne(kern::Kernel &k, snp::Vcpu &cpu, uint32_t vcpu);
    void admitOne(kern::Kernel &k, snp::Vcpu &cpu, uint32_t vcpu);
    Session *dequeue(snp::Vcpu &cpu, uint32_t vcpu);
    void runSlice(snp::Vcpu &cpu, Session &s);
    void retire(kern::Kernel &k, snp::Vcpu &cpu, Session *s);
    bool allDone(snp::Vcpu &cpu);

    // Memory pressure.
    void budgetSweep(kern::Kernel &k, snp::Vcpu &cpu, uint32_t vcpu);
    /// FrameAllocator reclaim hook body: free >= 1 frame or give up.
    bool reclaimSome(kern::Kernel &k);
    /// CLOCK one idle session; returns pages evicted (fleetMu_ held).
    uint64_t evictFromSession(kern::Kernel &k, Session &s, uint64_t want,
                              bool reclaim);

    // Chaos.
    bool chaosRoll(chaos::FaultSite site);
    uint64_t chaosPick(uint64_t bound);
    /// Returns true when a template-page flip was injected.
    bool chaosMaybeCloneFlip();

    void lockFleet(snp::Vcpu &cpu);
    void lockProc(snp::Vcpu &cpu);
    void checkReturn(snp::Vcpu &cpu, Session &s, int64_t ret);

    sdk::VeilVm &vm_;
    FleetConfig cfg_;
    FleetStats stats_;

    // Template.
    kern::Process *templateProc_ = nullptr;
    std::unique_ptr<sdk::NativeEnv> templateEnv_;
    std::unique_ptr<sdk::EnclaveHost> templateHost_;
    sdk::EnclaveSnapshot snap_;
    uint64_t bootCycles_ = 0;

    // Scheduler state (fleetMu_ unless noted).
    base::Spinlock fleetMu_;
    base::Spinlock procMu_;  ///< serializes makeProcess/reapProcess
    base::Spinlock chaosMu_; ///< serializes injector draws
    std::vector<std::deque<Session *>> queues_; ///< one per VCPU
    std::vector<std::unique_ptr<Session>> all_; ///< slot = session id
    uint32_t nextSession_ = 0; ///< next id to admit
    uint32_t live_ = 0;        ///< admitted, not yet retired
    /// Fleet-wide result oracle: call index -> first checksum seen.
    std::map<uint64_t, int64_t> expectedByCall_;
    std::atomic<uint32_t> workersDone_{0};
};

} // namespace veil::fleet

#endif // VEIL_FLEET_FLEET_HH_
