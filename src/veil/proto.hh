/**
 * @file
 * Inter-domain communication blocks (IDCBs) and the Veil request
 * protocol (§5.2). An IDCB is one page of shared state between two
 * domains, always allocated in the less-privileged side's memory, one
 * per VCPU to avoid contention. A requester fills the message, marks it
 * pending, and asks the hypervisor for a domain switch; the privileged
 * side processes it and switches back.
 */
#ifndef VEIL_VEIL_PROTO_HH_
#define VEIL_VEIL_PROTO_HH_

#include <cstdint>

#include "snp/types.hh"
#include "snp/vcpu.hh"
#include "veil/ring.hh"

namespace veil::core {

/** Operations across Veil's IDCBs. */
enum class VeilOp : uint32_t {
    None = 0,
    Ping,

    // ---- VeilMon (DomMON) ----
    BootVcpu,        ///< §5.3 VCPU boot delegation: args[0] = vcpu id
    Pvalidate,       ///< §5.3 page-state delegation: args[0]=gpa, args[1]=validate
    PageStateChange, ///< args[0]=gpa, args[1]=1 shared / 0 private
    EstablishChannel,///< payload = user DH public key; ret = report+mon pub
    CreateEnclaveVmsa, ///< SRV->MON: args[0]=vcpu, args[1]=host program id,
                       ///< args[2]=cr3, args[3]=ghcb gpa, args[4]=idt handler,
                       ///< args[5]=enclave id
    DestroyEnclaveVmsa,///< SRV->MON: args[0]=vcpu, args[1]=vmsa id

    // ---- VeilS-KCI ----
    KciActivate,     ///< args: text lo/hi, data lo/hi (gpa)
    KciModuleLoad,   ///< args[0]=image gpa, args[1]=len, args[2]=dest gpa,
                     ///< args[3]=dest pages; ret[0]=module handle
    KciModuleUnload, ///< args[0]=module handle

    // ---- VeilS-ENC ----
    EncCreate,       ///< args[0]=cr3, args[1]=va lo, args[2]=va hi,
                     ///< args[3]=ghcb gpa, args[4]=vcpu,
                     ///< args[5]=host program id, args[6]=ocall page gva,
                     ///< args[7]=entry handler va; ret[0]=enclave id
    EncDestroy,      ///< args[0]=enclave id
    EncFreePage,     ///< args[0]=enclave id, args[1]=gva
    EncRestorePage,  ///< args[0]=enclave id, args[1]=gva, args[2]=frame gpa
    EncMprotect,     ///< args[0]=id, args[1]=gva, args[2]=len, args[3]=prot
    EncSyncPerms,    ///< args[0]=id, args[1]=gva, args[2]=len, args[3]=prot
    EncGetMeasurement, ///< args[0]=enclave id; ret payload = MAC'd digest

    // ---- VeilS-LOG ----
    LogAppend,       ///< payload = audit record bytes
    LogQuery,        ///< payload = sealed request; ret payload = sealed reply
    LogStats,        ///< ret[0]=record count, ret[1]=bytes used

    // ---- VeilOp rings (exit-less batched service calls, §11) ----
    OpRingDoorbell,  ///< drain this VCPU's VeilOp submission ring;
                     ///< ret[0]=requests drained, one completion each
                     ///< (a full completion ring leaves the rest queued)

    // ---- VeilFleet snapshot/clone (§13) ----
    EncSnapshot,     ///< args[0]=enclave id; seals the enclave image as
                     ///< a copy-on-write template; ret[0]=snapshot id,
                     ///< ret[1]=page count
    EncClone,        ///< args[0]=snapshot id, args[1]=new process cr3,
                     ///< args[2]=ghcb gpa, args[3]=vcpu;
                     ///< ret[0]=enclave id, ret[1]=vmsa id,
                     ///< ret[2]=va lo, ret[3]=va hi (from the template)
    EncCloneFault,   ///< CoW break: args[0]=enclave id, args[1]=gva,
                     ///< args[2]=fresh frame gpa
    EncSnapshotRelease, ///< args[0]=snapshot id; drop the kernel's ref

    // ---- Session provisioning (§15) ----
    ChannelTeardown, ///< payload = sealed teardown proof from the live
                     ///< session's owner; ends the session so a new
                     ///< EstablishChannel may succeed
};

/** Number of VeilOp values (for per-op counter arrays). */
constexpr size_t kVeilOpCount =
    static_cast<size_t>(VeilOp::ChannelTeardown) + 1;

/** Stable lower-case name for metrics ("enc-free-page", ...). */
const char *veilOpName(VeilOp op);

/** Status codes returned in IdcbMessage::status. */
enum class VeilStatus : uint64_t {
    Ok = 0,
    Denied,
    BadArgs,
    NotFound,
    VerifyFailed,
    Overflow,
    Unsupported,
};

constexpr size_t kIdcbPayloadMax = 2048;
constexpr size_t kIdcbRetPayloadMax = 1024;

/** POD message exchanged through an IDCB page. */
struct IdcbMessage
{
    uint32_t pending = 0; ///< 1 while a request awaits processing
    uint32_t op = 0;      ///< VeilOp
    uint32_t requesterVmpl = 0;
    uint32_t seq = 0;
    uint64_t args[8] = {};
    uint32_t payloadLen = 0;
    uint32_t pad0 = 0;
    uint8_t payload[kIdcbPayloadMax] = {};
    uint64_t status = 0;  ///< VeilStatus
    uint64_t ret[4] = {};
    uint32_t retPayloadLen = 0;
    uint32_t pad1 = 0;
    uint8_t retPayload[kIdcbRetPayloadMax] = {};
};

static_assert(sizeof(IdcbMessage) <= snp::kPageSize,
              "IDCB message must fit in one page");

/**
 * Advisory GHCB hint (Ghcb::info[2]) carried by a domain switch. The
 * hypervisor may use it for scheduling (and VeilChaos targets it); it
 * is never trusted by the guest. Zero means "no hint" and leaves the
 * switch request byte-identical to the pre-hint protocol.
 */
constexpr uint64_t kSwitchHintDoorbell = snp::kGhcbSwitchHintDoorbell;

/**
 * Requester-side helper: writes the request in @p msg into the IDCB
 * page, asks the hypervisor for a domain switch to @p target_vmpl on
 * this VCPU, and reads the processed reply back into @p msg — the
 * message is updated in place, so the ~3.2 KB block is never copied
 * through the call. Handles interrupt-redirect resumes by re-issuing
 * the switch.
 */
void idcbCall(snp::Vcpu &cpu, snp::Gpa idcb, snp::Vmpl target_vmpl,
              IdcbMessage &msg, uint64_t hint = 0);

/** Responder-side: fetch a pending request, if any. */
bool idcbFetch(snp::Vcpu &cpu, snp::Gpa idcb, IdcbMessage &out);

/** Responder-side: write the reply and clear pending. */
void idcbReply(snp::Vcpu &cpu, snp::Gpa idcb, const IdcbMessage &reply);

/** Issue a hypervisor-relayed domain switch (no IDCB involved). */
void domainSwitch(snp::Vcpu &cpu, snp::Vmpl target_vmpl, uint64_t hint = 0);

} // namespace veil::core

#endif // VEIL_VEIL_PROTO_HH_
