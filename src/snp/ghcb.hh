/**
 * @file
 * Guest-Hypervisor Communication Block (GHCB) layout and exit codes.
 *
 * The GHCB is a shared page through which the CVM passes hypercall
 * state to the hypervisor on non-automatic exits (§3, Fig. 1). Veil
 * additionally uses it for hypervisor-relayed domain switches (§5.2)
 * and user-mapped per-thread GHCBs for enclave entry/exit (§6.2).
 */
#ifndef VEIL_SNP_GHCB_HH_
#define VEIL_SNP_GHCB_HH_

#include <cstdint>

#include "snp/types.hh"

namespace veil::snp {

/** Exit codes written into Ghcb::exitCode before VMGEXIT. */
enum class GhcbExit : uint64_t {
    None = 0,
    /// Request a switch to another domain's VMSA on the same VCPU.
    /// info[0] = target VCPU id, info[1] = target VMPL.
    DomainSwitch = 1,
    /// Register a freshly created VMSA with the hypervisor.
    /// info[0] = VMSA GPA, info[1] = VCPU id, info[2] = VMPL,
    /// info[3] = Machine VmsaId handle.
    RegisterVmsa = 2,
    /// Start (AP-boot) a registered VCPU. info[0] = VCPU id,
    /// info[1] = VMPL.
    StartVcpu = 3,
    /// Page-state change: info[0] = GPA, info[1] = 1 for shared,
    /// 0 for private, info[2] = number of consecutive entries (0 reads
    /// as 1, at most kPscMaxEntries), info[3] = 1 when the entries are
    /// 2 MiB regions (info[0] then 2 MiB-aligned) instead of 4 KiB
    /// pages (grouped lazy acceptance, DESIGN.md §14). The hypervisor
    /// denies a request whose count exceeds the bound or whose range
    /// leaves guest memory. A to-private change on an unassigned page
    /// performs the RMPUPDATE assign (unaccepted-memory acceptance)
    /// before flipping state.
    PageStateChange = 4,
    /// Guest console output: info[0] = GPA of shared buffer,
    /// info[1] = length (at most one page; denied unless every byte is
    /// shared guest memory).
    ConsoleWrite = 5,
    /// Orderly VM termination. info[0] = exit status.
    Terminate = 6,
    /// Instruct the hypervisor to only honour Dom-UNT <-> Dom-ENC
    /// switches on a user-mapped GHCB (§6.2). info[0] = GHCB GPA.
    RestrictGhcb = 7,
};

/** POD GHCB contents, stored in a shared guest page. */
struct Ghcb
{
    uint64_t exitCode = 0;
    uint64_t info[6] = {0, 0, 0, 0, 0, 0};
    uint64_t result = 0;
};

static_assert(sizeof(Ghcb) <= kPageSize, "GHCB must fit in one page");

constexpr Gpa kNoGhcb = ~Gpa(0);

/** Maximum entries in one PageStateChange request (the GHCB spec's PSC
 *  buffer holds 253 entries). */
constexpr uint64_t kPscMaxEntries = 253;

/**
 * Sentinel the guest writes into Ghcb::result before VMGEXIT. A
 * well-behaved hypervisor always overwrites it; seeing it again on
 * resume proves the relay was dropped (or the exit never handled), so
 * the guest can retry instead of misreading stale state as success.
 */
constexpr uint64_t kGhcbNoResult = ~uint64_t(0);

/**
 * Advisory DomainSwitch hint (info[2]): the requester is ringing a
 * VeilOp submission-ring doorbell (§11). Purely an optimization /
 * chaos-targeting hint for the hypervisor — routing and permission
 * checks ignore it, and 0 keeps the pre-hint protocol byte-identical.
 */
constexpr uint64_t kGhcbSwitchHintDoorbell = 1;

} // namespace veil::snp

#endif // VEIL_SNP_GHCB_HH_
