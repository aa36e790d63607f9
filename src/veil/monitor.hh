/**
 * @file
 * VeilMon: the VMPL-0 security monitor (§5).
 *
 * Responsibilities, mapping 1:1 to the paper:
 *  - §5.1 Dom-MON bootstrap: PVALIDATE all guest memory, then RMPADJUST
 *    every page to carve the four privilege domains (protected regions
 *    stay VMPL-0/-1 only; the OS gets everything else).
 *  - §5.2 Replicated VCPUs: creates per-domain VMSA replicas from its
 *    VMSA page pool and registers them with the hypervisor.
 *  - §5.3 Privileged functionality delegation: VCPU boot and
 *    PVALIDATE / page-state changes on behalf of the Dom-UNT kernel,
 *    with sanitization of every OS-provided address (§8.1).
 *  - §5.1 Secure user channel: DH key exchange bound into the signed
 *    SEV attestation report.
 */
#ifndef VEIL_VEIL_MONITOR_HH_
#define VEIL_VEIL_MONITOR_HH_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "hv/hypervisor.hh"
#include "veil/channel.hh"
#include "veil/layout.hh"
#include "veil/mboot.hh"
#include "veil/proto.hh"

namespace veil::core {

/** Boot-time cost breakdown (drives the §9.1 boot benchmark). */
struct MonitorBootStats
{
    uint64_t totalCycles = 0;
    uint64_t pvalidateCycles = 0;
    uint64_t rmpadjustCycles = 0;
    uint64_t vmsaSetupCycles = 0;
    uint64_t pagesProtected = 0;
    /// Grouped PageStateChange requests issued during lazy acceptance.
    uint64_t pscBatches = 0;
    /// 2 MiB regions protected via the PVALIDATE-2M fast path.
    uint64_t hugeRegions = 0;
};

/** Factory for the Dom-ENC VMSA entry of a given enclave. */
using EnclaveEntryFactory =
    std::function<snp::GuestEntry(uint64_t enclave_id, uint64_t program_id)>;

/** The VMPL-0 monitor. */
class VeilMon
{
  public:
    VeilMon(snp::Machine &machine, const CvmLayout &layout);

    // ---- Wiring (done by VeilVm before launch) ----

    /** Kernel entries: BSP boot and per-VCPU AP boot. */
    void setKernelEntries(snp::GuestEntry bsp,
                          std::function<snp::GuestEntry(uint32_t)> ap);

    /** Service dispatcher entry (per VCPU). */
    void setServiceEntry(std::function<snp::GuestEntry(uint32_t)> entry);

    /** Enclave runtime entry factory (provided by the SDK layer). */
    void setEnclaveEntryFactory(EnclaveEntryFactory factory);

    /**
     * Lazy-acceptance boot (DESIGN.md §14): the launch left the OS
     * region (at/above kernelBase) unassigned; the monitor accepts it
     * during protectDomains — grouped multi-entry PageStateChange
     * requests when huge pages are on, one round trip per page
     * otherwise (the ablation baseline).
     */
    void setLazyAccept(bool on) { lazyAccept_ = on; }

    /** Boot VMSA entry point (simulated RIP of the boot image). */
    void bootMain(snp::Vcpu &cpu);

    const MonitorBootStats &bootStats() const { return bootStats_; }

    /**
     * Remote-user handshake step (host side of the network): returns
     * the sealed-channel keys derived by the monitor once
     * EstablishChannel has been processed. Used by services.
     */
    const std::optional<crypto::SessionKeys> &channelKeys() const
    {
        return channelKeys_;
    }

    /**
     * The monitor-side (responder) endpoint of the secure user channel,
     * shared with the protected services; nullptr until the channel is
     * established.
     */
    SecureChannel *sealChannel() { return sealChannel_.get(); }

    /** Sanitization helper shared with services (§8.1): true if the
     *  OS-supplied page may be handed to the requested operation. */
    bool osPageAllowed(snp::Gpa page) const;

    /**
     * Session generation of the secure user channel: 0 before the
     * first EstablishChannel, then the 1-based generation of the
     * current (or, after teardown, most recent) session. A new
     * EstablishChannel is only accepted while no session is live —
     * the OS cannot clobber an established channel (§15).
     */
    uint64_t sessionGeneration() const { return sessionGen_; }

    /** True while a user session holds the channel. */
    bool sessionActive() const { return sessionActive_; }

    const CvmLayout &layout() const { return layout_; }

  private:
    void protectDomains(snp::Vcpu &cpu);
    void acceptLazyMemory(snp::Vcpu &cpu);
    bool regionEligible2m(snp::Gpa base) const;
    int grantClass(snp::Gpa page) const;
    void createVcpuDomains(snp::Vcpu &cpu, uint32_t vcpu, bool boot_vcpu);
    void monitorLoop(snp::Vcpu &cpu);
    void dispatch(snp::Vcpu &cpu, IdcbMessage &msg);

    // Request handlers
    void opPvalidate(snp::Vcpu &cpu, IdcbMessage &msg);
    void opPageStateChange(snp::Vcpu &cpu, IdcbMessage &msg);
    void opBootVcpu(snp::Vcpu &cpu, IdcbMessage &msg);
    void opEstablishChannel(snp::Vcpu &cpu, IdcbMessage &msg);
    void opChannelTeardown(snp::Vcpu &cpu, IdcbMessage &msg);
    void opCreateEnclaveVmsa(snp::Vcpu &cpu, IdcbMessage &msg);
    void opDestroyEnclaveVmsa(snp::Vcpu &cpu, IdcbMessage &msg);

    snp::Gpa allocVmsaPage();
    void hvRegisterVmsa(snp::Vcpu &cpu, uint32_t vcpu, snp::Vmpl vmpl,
                        snp::VmsaId id, snp::Gpa vmsa_gpa);

    snp::Machine &machine_;
    CvmLayout layout_;
    snp::GuestEntry kernelBsp_;
    std::function<snp::GuestEntry(uint32_t)> kernelAp_;
    std::function<snp::GuestEntry(uint32_t)> serviceEntry_;
    EnclaveEntryFactory enclaveEntryFactory_;

    snp::Gpa nextVmsaPage_ = 0;
    std::vector<snp::Gpa> freeVmsaPages_;
    std::set<uint32_t> bootedVcpus_;
    bool lazyAccept_ = false;
    MonitorBootStats bootStats_;
    std::optional<crypto::SessionKeys> channelKeys_;
    std::unique_ptr<SecureChannel> sealChannel_;
    uint64_t channelNonce_ = 0;
    uint64_t sessionGen_ = 0;
    bool sessionActive_ = false;
    MeasuredBoot mboot_;
};

/**
 * Serialized EstablishChannel response: the signed report, the
 * platform certificate chain (SNP extended-report style: the host
 * serves the certs alongside the report so the verifier needs no
 * side channel), the monitor's DH public, the measured-boot quote,
 * and the session generation. Everything except the raw report
 * signature is integrity-bound: reportData carries the monitor public
 * directly and a hash covering (user public || generation || quote).
 */
struct ChannelResponse
{
    snp::AttestationReport report;
    attest::CertChain chain;
    uint8_t monitorPublic[32];
    uint8_t bootQuote[32];
    uint64_t sessionGeneration;
};

/** Plaintext teardown proof sealed by the session owner. */
constexpr char kTeardownMagic[8] = {'V', 'E', 'I', 'L',
                                    'T', 'D', 'W', 'N'};

} // namespace veil::core

#endif // VEIL_VEIL_MONITOR_HH_
