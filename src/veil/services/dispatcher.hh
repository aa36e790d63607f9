/**
 * @file
 * Dom-SRV service dispatcher: the VMPL-1 execution context that hosts
 * the three protected services (§5.1 Dom-SRV). One replica VCPU per
 * physical VCPU; each loops fetching requests from its OS<->SRV IDCB
 * and switching back to the requester.
 */
#ifndef VEIL_VEIL_SERVICES_DISPATCHER_HH_
#define VEIL_VEIL_SERVICES_DISPATCHER_HH_

#include "veil/services/enc.hh"
#include "veil/services/kci.hh"
#include "veil/services/log.hh"

namespace veil::core {

/** Hosts and dispatches the protected services at Dom-SRV. */
class ServiceDispatcher
{
  public:
    ServiceDispatcher(snp::Machine &machine, const CvmLayout &layout,
                      VeilMon &monitor, Bytes module_key);

    /** Dom-SRV VMSA entry for @p vcpu. */
    snp::GuestEntry entryFor(uint32_t vcpu);

    KciService &kci() { return kci_; }
    EncService &enc() { return enc_; }
    LogService &log() { return log_; }

  private:
    /** One drainOpRing pass over a VCPU's submission ring. */
    struct DrainResult
    {
        uint64_t drained = 0; ///< ops consumed (one completion each)
        bool ok = true;       ///< false: malformed ring header
    };

    void srvLoop(snp::Vcpu &cpu);
    void dispatch(snp::Vcpu &cpu, IdcbMessage &msg);
    DrainResult drainOpRing(snp::Vcpu &cpu);

    snp::Machine &machine_;
    CvmLayout layout_;
    KciService kci_;
    EncService enc_;
    LogService log_;
};

} // namespace veil::core

#endif // VEIL_VEIL_SERVICES_DISPATCHER_HH_
