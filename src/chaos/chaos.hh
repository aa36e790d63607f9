/**
 * @file
 * VeilChaos: seeded, deterministic fault injection (DESIGN.md §10).
 *
 * The paper's threat model (§3) grants the hypervisor full control over
 * scheduling, interrupt delivery, the shared GHCB pages, and the
 * host-side RMP operations — and Veil's security argument is precisely
 * that the guest stays confidential and makes attributable progress
 * anyway. VeilChaos exercises that argument systematically: a FaultPlan
 * (seed + per-site probability and budget table) drives a FaultInjector
 * that the Hypervisor consults at each relay decision point, injecting
 * only faults *within the hypervisor's legitimate authority*:
 *
 *  - drop / delay / duplicate VMGEXIT relays,
 *  - deny or misroute domain-switch requests,
 *  - tamper the GHCB result word (shared memory the host may write),
 *  - inject spurious interrupts,
 *  - flip guest pages to shared via the host RMPUPDATE path (which
 *    un-validates them, so the guest reads ciphertext-garbage — never
 *    the host reading plaintext).
 *
 * Everything draws from one xoshiro stream seeded by FaultPlan::seed, so
 * a failing seed replays bit-identically. Per-site budgets bound the
 * total number of injections, guaranteeing every run eventually quiesces
 * into either forward progress or an attributed halt — the soak harness
 * asserts there is no third outcome.
 *
 * With no injector installed (the default) the hypervisor's relay path
 * is byte-for-byte the PR-4 code: default-path cycle pins stay
 * bit-identical with chaos compiled in.
 */
#ifndef VEIL_CHAOS_CHAOS_HH_
#define VEIL_CHAOS_CHAOS_HH_

#include <cstddef>
#include <cstdint>

#include "base/rng.hh"

namespace veil::chaos {

/** Injection sites, one per hypervisor decision point. */
enum class FaultSite : uint8_t {
    RelayDrop = 0,  ///< swallow a non-automatic exit (no GHCB handling)
    RelayDelay,     ///< charge extra host cycles before relaying
    RelayDuplicate, ///< handle the same GHCB request twice
    SwitchDeny,     ///< deny a legitimate domain-switch request
    SwitchMisroute, ///< route a switch to the wrong (registered) domain
    GhcbTamper,     ///< scribble the GHCB result word after relaying
    SpuriousIntr,   ///< inject an unsolicited vector before VMENTER
    RmpFlip,        ///< host RMPUPDATE: flip a guest page to shared
    DoorbellDrop,   ///< deny a doorbell-hinted switch (lost doorbell)
    DoorbellDuplicate, ///< bounce Dom-SRV's return switch back into SRV
                       ///< once, replaying the doorbell it just served
    ThreadPreempt,  ///< deschedule the VCPU at a charge boundary: a
                    ///< deterministic simulated stall in single-thread
                    ///< mode, a real host-thread yield in multicore
                    ///< mode (stochastic interleaving by design)
    EvictRace,      ///< fleet evictor (§13): evict a page the CLOCK
                    ///< hand would have spared — the host scheduler
                    ///< racing the accessor; the session faults the
                    ///< page straight back in
    CloneRmpFlip,   ///< host RMPUPDATE flips a sealed template page to
                    ///< shared at clone time: every sharer's next read
                    ///< of that page is an attributed #NPF halt
    kCount,
};

constexpr size_t kFaultSiteCount = static_cast<size_t>(FaultSite::kCount);

/** Stable kebab-case site name for traces, JSON, and reports. */
const char *faultSiteName(FaultSite site);

/**
 * A reproducible chaos schedule: per-site probabilities plus per-site
 * budgets (maximum number of injections). Budgets are the global
 * livelock guard — once exhausted the run degenerates to a well-behaved
 * hypervisor, so any retry loop with a budget larger than the fault
 * budget must terminate.
 */
struct FaultPlan
{
    uint64_t seed = 0;

    /// Per-site injection probability in [0, 1].
    double probability[kFaultSiteCount] = {};
    /// Per-site injection budget; 0 disables the site outright.
    uint32_t budget[kFaultSiteCount] = {};

    /// Simulated host cycles charged by one RelayDelay injection.
    uint64_t delayCycles = 20000;

    /// GPA range (page-aligned, [lo, hi)) RmpFlip may target. The soak
    /// harness points this at the CVM's private kernel/heap region and
    /// keeps the log store out of range so stored records stay intact.
    uint64_t rmpFlipLo = 0;
    uint64_t rmpFlipHi = 0;

    double p(FaultSite site) const
    {
        return probability[static_cast<size_t>(site)];
    }

    /**
     * The canonical soak mixture for @p seed: every site armed with a
     * seed-perturbed base probability and a small budget, so a sweep
     * over seeds explores drops, denials, tampering, and RMP flips in
     * varying interleavings while still always quiescing.
     */
    static FaultPlan forSeed(uint64_t seed);

    /** Directed plan: a single site at probability @p p. */
    static FaultPlan single(FaultSite site, double p, uint64_t seed = 1,
                            uint32_t budget = 1u << 30);
};

/** Per-site injection counters (host-side observability). */
struct FaultStats
{
    uint64_t attempts[kFaultSiteCount] = {};  ///< roll() calls
    uint64_t injected[kFaultSiteCount] = {};  ///< roll() returned true

    uint64_t totalInjected() const
    {
        uint64_t n = 0;
        for (uint64_t i : injected)
            n += i;
        return n;
    }
};

/**
 * The runtime dice-roller the Hypervisor consults. Deterministic for a
 * given plan: the k-th roll of a run always lands the same way.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan)
        : plan_(plan), rng_(plan.seed ^ 0xc4a05ce17af01u)
    {
        for (size_t i = 0; i < kFaultSiteCount; ++i)
            budget_[i] = plan.budget[i];
    }

    const FaultPlan &plan() const { return plan_; }
    const FaultStats &stats() const { return stats_; }

    /** Should the hypervisor inject @p site now? Consumes one roll. */
    bool roll(FaultSite site);

    /** Uniform pick in [0, bound) for injection parameters. */
    uint64_t pick(uint64_t bound) { return rng_.below(bound); }

    uint64_t delayCycles() const { return plan_.delayCycles; }

  private:
    FaultPlan plan_;
    Rng rng_;
    FaultStats stats_;
    uint32_t budget_[kFaultSiteCount] = {};
};

} // namespace veil::chaos

#endif // VEIL_CHAOS_CHAOS_HH_
