/**
 * @file
 * Virtual Machine Save Area (VMSA): the protected per-VCPU-instance
 * state SEV-SNP saves on exit and restores on entry (§3).
 *
 * In this simulator a VMSA couples the architectural state (VMPL, CPL,
 * CR3, GHCB MSR) with the *entry point* of the software layer that the
 * VCPU instance executes — the simulated RIP. The backing guest page is
 * tracked so the RMP can enforce that lower VMPLs (and the hypervisor)
 * cannot touch a live VMSA, which is one of the paper's defenses
 * (Table 2: "VMSA protected in DomMON / in CVM").
 */
#ifndef VEIL_SNP_VMSA_HH_
#define VEIL_SNP_VMSA_HH_

#include <functional>

#include "snp/ghcb.hh"
#include "snp/types.hh"

namespace veil::snp {

class Vcpu;

/** Simulated code entry point: the software layer run by this VMSA. */
using GuestEntry = std::function<void(Vcpu &)>;

/** Minimal architectural register file (cosmetic; state is in C++). */
struct VmsaRegs
{
    uint64_t rip = 0;
    uint64_t rsp = 0;
    uint64_t rflags = 0x2;
};

/** One VCPU instance's save area. */
struct Vmsa
{
    uint32_t vcpuId = 0;
    Vmpl vmpl = Vmpl::Vmpl3;
    Cpl cpl = Cpl::Supervisor;
    Gpa cr3 = 0;              ///< 0 = identity mapping (monitor/services)
    Gpa ghcbGpa = kNoGhcb;    ///< set via the GHCB MSR
    Gpa page = 0;             ///< backing VMSA page in guest memory
    bool irqMasked = false;   ///< monitor/services run with IRQs masked
    Gva idtHandlerVa = 0;     ///< interrupt handler entry (0 = none yet)
    /// Host-side tail of the interrupt handler: invoked after a vector
    /// is delivered to this VMSA (e.g. the kernel's timer-tick work).
    /// No architectural state; the handler-entry cycles are already
    /// charged by deliverVector.
    std::function<void()> softTimerHook;
    VmsaRegs regs;
    GuestEntry entry;
};

} // namespace veil::snp

#endif // VEIL_SNP_VMSA_HH_
