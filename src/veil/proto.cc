#include "veil/proto.hh"

#include <algorithm>

#include "base/log.hh"
#include "hv/hypervisor.hh"
#include "snp/fault.hh"

namespace veil::core {

using namespace snp;

namespace {

constexpr size_t kHeadLen = offsetof(IdcbMessage, payload);
constexpr size_t kTailOff = offsetof(IdcbMessage, status);
constexpr size_t kTailLen = offsetof(IdcbMessage, retPayload) - kTailOff;

/** Copy only the used parts of a message into guest memory. */
void
writeMessage(Vcpu &cpu, Gpa idcb, const IdcbMessage &msg)
{
    const auto *raw = reinterpret_cast<const uint8_t *>(&msg);
    size_t pay = std::min<size_t>(msg.payloadLen, kIdcbPayloadMax);
    size_t ret = std::min<size_t>(msg.retPayloadLen, kIdcbRetPayloadMax);
    cpu.writePhys(idcb, raw, kHeadLen + pay);
    cpu.writePhys(idcb + kTailOff, raw + kTailOff, kTailLen + ret);
}

/** Read only the used parts of a message from guest memory. */
void
readMessage(Vcpu &cpu, Gpa idcb, IdcbMessage &msg)
{
    auto *raw = reinterpret_cast<uint8_t *>(&msg);
    cpu.readPhys(idcb, raw, kHeadLen);
    size_t pay = std::min<size_t>(msg.payloadLen, kIdcbPayloadMax);
    if (pay > 0)
        cpu.readPhys(idcb + kHeadLen, raw + kHeadLen, pay);
    cpu.readPhys(idcb + kTailOff, raw + kTailOff, kTailLen);
    size_t ret = std::min<size_t>(msg.retPayloadLen, kIdcbRetPayloadMax);
    if (ret > 0) {
        cpu.readPhys(idcb + offsetof(IdcbMessage, retPayload),
                     raw + offsetof(IdcbMessage, retPayload), ret);
    }
}

} // namespace

const char *
veilOpName(VeilOp op)
{
    switch (op) {
      case VeilOp::None:
        return "none";
      case VeilOp::Ping:
        return "ping";
      case VeilOp::BootVcpu:
        return "boot-vcpu";
      case VeilOp::Pvalidate:
        return "pvalidate";
      case VeilOp::PageStateChange:
        return "page-state-change";
      case VeilOp::EstablishChannel:
        return "establish-channel";
      case VeilOp::CreateEnclaveVmsa:
        return "create-enclave-vmsa";
      case VeilOp::DestroyEnclaveVmsa:
        return "destroy-enclave-vmsa";
      case VeilOp::KciActivate:
        return "kci-activate";
      case VeilOp::KciModuleLoad:
        return "kci-module-load";
      case VeilOp::KciModuleUnload:
        return "kci-module-unload";
      case VeilOp::EncCreate:
        return "enc-create";
      case VeilOp::EncDestroy:
        return "enc-destroy";
      case VeilOp::EncFreePage:
        return "enc-free-page";
      case VeilOp::EncRestorePage:
        return "enc-restore-page";
      case VeilOp::EncMprotect:
        return "enc-mprotect";
      case VeilOp::EncSyncPerms:
        return "enc-sync-perms";
      case VeilOp::EncGetMeasurement:
        return "enc-get-measurement";
      case VeilOp::LogAppend:
        return "log-append";
      case VeilOp::LogQuery:
        return "log-query";
      case VeilOp::LogStats:
        return "log-stats";
      case VeilOp::OpRingDoorbell:
        return "op-ring-doorbell";
      case VeilOp::EncSnapshot:
        return "enc-snapshot";
      case VeilOp::EncClone:
        return "enc-clone";
      case VeilOp::EncCloneFault:
        return "enc-clone-fault";
      case VeilOp::EncSnapshotRelease:
        return "enc-snapshot-release";
      case VeilOp::ChannelTeardown:
        return "channel-teardown";
    }
    return "unknown";
}

void
domainSwitch(Vcpu &cpu, Vmpl target_vmpl, uint64_t hint)
{
    // Bounded recovery from hypervisor misbehaviour (DESIGN.md §10).
    // The fault budget must exceed any chaos plan's consecutive-fault
    // budget (see chaos::FaultPlan): a transiently-hostile hypervisor is
    // absorbed, a persistently-hostile one becomes an *attributed* halt
    // instead of a livelock or a silently-wrong result.
    constexpr int kFaultBudget = 96;
    int faults = 0;
    uint64_t backoff = 500;
    for (;;) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
        g.info[0] = cpu.vcpuId();
        g.info[1] = static_cast<uint64_t>(target_vmpl);
        g.info[2] = hint;
        // Drop-detection sentinel: a hypervisor that handles the request
        // always overwrites result, so reading it back proves the relay
        // was swallowed.
        g.result = kGhcbNoResult;
        cpu.writeGhcb(g);
        cpu.vmgexit();
        uint64_t result = cpu.readGhcb().result;
        if (result == static_cast<uint64_t>(hv::HvResult::IntrRedirect)) {
            // We were resumed to absorb a redirected interrupt; the
            // vector was already delivered on resume. Re-issue. Not a
            // fault: each redirect needs a fresh timer event, so this
            // cannot starve the switch.
            continue;
        }
        if (result == kGhcbNoResult) {
            if (++faults > kFaultBudget)
                break;
            ++cpu.machine().stats().switchRetries;
            continue;
        }
        if (result == static_cast<uint64_t>(hv::HvResult::Denied)) {
            // Denial is within the host's authority and may be
            // transient; back off and re-ask. Re-asking is safe — a
            // switch carries no side effect besides scheduling.
            if (++faults > kFaultBudget)
                break;
            ++cpu.machine().stats().switchDeniedRetries;
            cpu.burn(backoff);
            backoff = std::min<uint64_t>(backoff * 2, 64'000);
            continue;
        }
        return; // any other value: the switch was granted
    }
    throw CvmHaltFault(
        strfmt("domainSwitch to VMPL-%d starved beyond the retry budget "
               "(hypervisor dropped or denied %d requests)",
               vmplIndex(target_vmpl), kFaultBudget));
}

void
idcbCall(Vcpu &cpu, Gpa idcb, Vmpl target_vmpl, IdcbMessage &msg,
         uint64_t hint)
{
    msg.pending = 1;
    msg.requesterVmpl = static_cast<uint32_t>(vmplIndex(cpu.vmpl()));
    writeMessage(cpu, idcb, msg);

    constexpr int kResendBudget = 24;
    for (int attempt = 0;; ++attempt) {
        domainSwitch(cpu, target_vmpl, hint);
        readMessage(cpu, idcb, msg);
        if (!msg.pending)
            return;
        // Granted switch, unserviced request: the hypervisor ran the
        // wrong replica or resumed us spuriously. The pending flag is
        // the fence that makes re-asking safe — the target executes a
        // request exactly once and clears the flag in the same reply,
        // so a re-issued *switch* can never re-execute a processed
        // request.
        if (attempt >= kResendBudget) {
            throw CvmHaltFault(
                strfmt("idcbCall (op %u): request starved beyond the "
                       "re-switch budget", msg.op));
        }
        ++cpu.machine().stats().idcbResends;
    }
}

bool
idcbFetch(Vcpu &cpu, Gpa idcb, IdcbMessage &out)
{
    // Peek the pending flag first; only pull the body for real work.
    uint32_t pending = 0;
    cpu.readPhys(idcb, &pending, sizeof(pending));
    if (!pending)
        return false;
    readMessage(cpu, idcb, out);
    return true;
}

void
idcbReply(Vcpu &cpu, Gpa idcb, const IdcbMessage &reply)
{
    IdcbMessage msg = reply;
    msg.pending = 0;
    writeMessage(cpu, idcb, msg);
}

} // namespace veil::core
