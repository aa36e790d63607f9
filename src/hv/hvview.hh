/**
 * @file
 * The hypervisor's view of guest memory. SEV-SNP guarantees the host
 * cannot read or write private CVM memory; this class makes that
 * guarantee *structural* in the simulator — every host-side access is
 * checked against the RMP's shared bit and a violation is a simulator
 * panic (the hardware would have produced ciphertext / #NPF).
 */
#ifndef VEIL_HV_HVVIEW_HH_
#define VEIL_HV_HVVIEW_HH_

#include "snp/ghcb.hh"
#include "snp/machine.hh"

namespace veil::hv {

/** Shared-pages-only accessor for host software. */
class HvView
{
  public:
    explicit HvView(snp::Machine &machine) : machine_(machine) {}

    /** Read from shared guest memory; panics on private pages. */
    void read(snp::Gpa gpa, void *out, size_t len) const;

    /** Write to shared guest memory; panics on private pages. */
    void write(snp::Gpa gpa, const void *data, size_t len);

    /** True iff [gpa, gpa + len) lies in guest memory and every page
     *  of it is shared: the range read/write accept. */
    bool isShared(snp::Gpa gpa, size_t len) const;

    snp::Ghcb readGhcb(snp::Gpa gpa) const;
    void writeGhcb(snp::Gpa gpa, const snp::Ghcb &g);

  private:
    void checkShared(snp::Gpa gpa, size_t len) const;

    snp::Machine &machine_;
};

} // namespace veil::hv

#endif // VEIL_HV_HVVIEW_HH_
