/**
 * @file
 * The VeilChaos soak scenario (DESIGN.md §10), one copy shared by the
 * soak test (which asserts), bench_chaos (which prints) and the chaos
 * attack rows: the CVM config, the seeded fault mixture, the workloads
 * and the resilience invariants (progress or attributed halt,
 * gap-accounted audit stream, no host plaintext exposure).
 */
#ifndef VEIL_SDK_CHAOS_SOAK_HH_
#define VEIL_SDK_CHAOS_SOAK_HH_

#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "sdk/vm.hh"

namespace veil::sdk {

/** 32 MiB, one VCPU, batched audit with a small batch and deadline so
 *  chaos lands inside the op-ring doorbell protocol. */
VmConfig soakConfig();

/** Everything one chaos run produces, for invariant checks. */
struct SoakOutcome
{
    hv::Hypervisor::RunResult run;
    std::string haltReason;
    chaos::FaultStats faults;
    uint64_t produced = 0;   ///< kernel audit records emitted
    uint64_t stored = 0;     ///< records protected by VeilS-LOG
    uint64_t storeDrops = 0; ///< dropped by the service (store full)
    uint64_t pending = 0;    ///< ops still queued in the op ring
    uint64_t finalTsc = 0;
    uint64_t guestRetries = 0; ///< all bounded-recovery counters summed
    int64_t enclaveRet = -1;
    bool createFailed = false;
    bool secretLeaked = false;
    bool auditLeaked = false;
    std::vector<std::string> records;

    uint64_t accounted() const { return stored + storeDrops + pending; }
};

/** Sweep run @p seed under the canonical fault mixture: audited file
 *  traffic, an enclave session with in-session audit and redirected
 *  timer interrupts, a planted secret. Even seeds run VeilLog with
 *  service batching, odd ones batched audit alone. */
SoakOutcome runSoakSeed(uint64_t seed, bool huge_pages = false);

/** Audited file writes and failing closes (no enclave) on a fresh
 *  soak CVM under @p plan; @p flip_op_ring aims its RMP flips at VCPU
 *  0's first op submission ring page. */
SoakOutcome runDirected(chaos::FaultPlan plan, bool flip_op_ring = false);

/** The invariants a runSoakSeed outcome breaks, one line each. */
std::vector<std::string> soakViolations(const SoakOutcome &r);

/** Sequence number embedded in "msg=audit(SS.MMM:seq):" (0 if none). */
uint64_t auditRecordSeq(const std::string &rec);

/** Does any hypervisor-shared page of @p vm contain @p needle? */
bool sharedPagesContain(VeilVm &vm, const void *needle, size_t n);

} // namespace veil::sdk

#endif // VEIL_SDK_CHAOS_SOAK_HH_
