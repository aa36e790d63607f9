/**
 * @file
 * Fault types raised by the simulated hardware.
 *
 * NpfFault models the nested page fault (#NPF) the RMP raises on a VMPL
 * permission violation; per the paper's semantics (§5.1, §8.3) an
 * unhandled #NPF halts the whole CVM. GuestPageFault models an ordinary
 * #PF from the guest page tables (present/write/user bits), which guest
 * software may handle (e.g. enclave demand paging, §6.2).
 */
#ifndef VEIL_SNP_FAULT_HH_
#define VEIL_SNP_FAULT_HH_

#include <stdexcept>

#include "base/log.hh"
#include "snp/types.hh"

namespace veil::snp {

/** RMP (VMPL) permission violation: #NPF. Halts the CVM when unhandled. */
class NpfFault : public std::runtime_error
{
  public:
    NpfFault(Gpa gpa, Vmpl vmpl, Access access, const std::string &detail)
        : std::runtime_error(strfmt("NPF at GPA 0x%llx (",
                                    (unsigned long long)gpa) +
                             toString(vmpl) + ", " + toString(access) + "): " +
                             detail),
          gpa(gpa), vmpl(vmpl), access(access)
    {}

    Gpa gpa;
    Vmpl vmpl;
    Access access;
};

/** Guest page-table fault: #PF. May be handled by guest software. */
class GuestPageFault : public std::runtime_error
{
  public:
    GuestPageFault(Gva gva, Access access, bool present)
        : std::runtime_error(strfmt("PF at GVA 0x%llx (",
                                    (unsigned long long)gva) +
                             toString(access) + (present ? ", protection)"
                                                         : ", not-present)")),
          gva(gva), access(access), present(present)
    {}

    Gva gva;
    Access access;
    bool present; ///< true = protection violation, false = not mapped
};

/**
 * Raised inside a blocked guest fiber when the Machine is torn down, so
 * that the fiber's stack unwinds cleanly. Never escapes the fiber.
 */
class FiberShutdown
{
};

/**
 * Deliberate, attributed CVM halt: guest software detected an
 * unrecoverable condition (e.g. retry budget exhausted against a
 * misbehaving hypervisor) and stops with a traced reason rather than
 * livelocking. Handled like an unrecoverable #NPF by the Machine.
 */
class CvmHaltFault : public std::runtime_error
{
  public:
    explicit CvmHaltFault(const std::string &reason)
        : std::runtime_error("CVM halt: " + reason)
    {}
};

} // namespace veil::snp

#endif // VEIL_SNP_FAULT_HH_
