/**
 * @file
 * Simulated AMD Platform Security Processor: records the CVM launch
 * measurement and produces signed attestation reports that include the
 * VMPL of the requesting software and 64 bytes of requester data (used
 * by VeilMon to bind its DH public key, §5.1).
 *
 * Reports are signed with the platform's versioned chip key (the VCEK
 * analog) from the attest-layer hierarchy, and the PSP exports the
 * ARK → ASK → VCEK-style certificate chain alongside every report.
 * Only the root *public* key ever leaves the platform; remote parties
 * verify out of process with attest::Verifier and never touch this
 * object.
 */
#ifndef VEIL_SNP_PSP_HH_
#define VEIL_SNP_PSP_HH_

#include <array>
#include <mutex>

#include "attest/keys.hh"
#include "crypto/sha256.hh"
#include "snp/types.hh"

namespace veil::snp {

/** Free-form data the requester binds into the report. */
using ReportData = attest::ReportData;

/** A signed attestation report (§3, §5.1). */
using AttestationReport = attest::AttestationReport;

/** The platform security processor for one machine. */
class Psp
{
  public:
    Psp(Bytes platform_seed, uint64_t tcb_version);

    /** Record the launch measurement (done once by the VM launcher). */
    void setLaunchDigest(const crypto::Digest &digest);

    /** The recorded measurement. Call after launch completes (the
     *  digest is written once, before any VCPU runs). */
    const crypto::Digest &launchDigest() const { return launchDigest_; }

    /** Produce a signed report for software running at @p vmpl. */
    AttestationReport report(Vmpl vmpl, const ReportData &data) const;

    /** The platform certificate chain served with every report. */
    const attest::CertChain &certChain() const { return keys_.certChain(); }

    /** Current platform TCB version. */
    uint64_t tcbVersion() const { return keys_.tcbVersion(); }

    /**
     * Convenience full verification against this platform's own chain
     * (signature + chain walk only, no measurement/VMPL policy). Tests
     * and in-TCB consumers only; remote parties build an
     * attest::Verifier from the published root key instead.
     */
    bool verify(const AttestationReport &report) const;

  private:
    attest::PlatformKeys keys_;
    /// PSP command serialization: concurrent VCPU threads may request
    /// reports while the launcher records the measurement (the real PSP
    /// mailbox is a serialized command channel too).
    mutable std::mutex mu_;
    crypto::Digest launchDigest_{};
    bool measured_ = false;
};

} // namespace veil::snp

#endif // VEIL_SNP_PSP_HH_
