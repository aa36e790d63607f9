#include "veil/services/dispatcher.hh"

#include <cstddef>
#include <cstring>

namespace veil::core {

using namespace snp;

namespace {

/// Per-op dispatch overhead when serving from the submission ring:
/// slot unmarshal + completion marshal, far below an IDCB round trip.
constexpr uint64_t kRingOpCycles = 350;

} // namespace

ServiceDispatcher::ServiceDispatcher(Machine &machine, const CvmLayout &layout,
                                     VeilMon &monitor, Bytes module_key)
    : machine_(machine),
      layout_(layout),
      kci_(machine, layout, std::move(module_key)),
      enc_(machine, layout, monitor),
      log_(machine, layout, monitor)
{
}

GuestEntry
ServiceDispatcher::entryFor(uint32_t vcpu)
{
    return [this](Vcpu &cpu) { srvLoop(cpu); };
}

void
ServiceDispatcher::srvLoop(Vcpu &cpu)
{
    uint32_t vcpu = cpu.vcpuId();
    for (;;) {
        // Opportunistic drain before serving the IDCB: recovers queued
        // ops whose doorbell the hypervisor lost, and keeps submission
        // order ahead of any sync request that arrived after them. An
        // empty or uninitialized ring costs no simulated cycles here.
        drainOpRing(cpu);
        IdcbMessage m;
        if (idcbFetch(cpu, layout_.osSrvIdcb(vcpu), m)) {
            m.requesterVmpl = 3;
            dispatch(cpu, m);
            idcbReply(cpu, layout_.osSrvIdcb(vcpu), m);
        }
        domainSwitch(cpu, Vmpl::Vmpl3);
    }
}

ServiceDispatcher::DrainResult
ServiceDispatcher::drainOpRing(Vcpu &cpu)
{
    uint32_t vcpu = cpu.vcpuId();
    Gpa sub = layout_.opSubRing(vcpu);
    Gpa cplr = layout_.opCplRing(vcpu);
    DrainResult res;

    // Peek host-side: polling the resident header line costs nothing in
    // the cycle model, so this opportunistic check cannot perturb runs
    // that never use the ring. Real work below uses charged accesses.
    RingHeader sh = machine_.memory().readObj<RingHeader>(sub);
    if (sh.capacity == 0)
        return res; // ring never initialized (batching off)
    if (!ringHeaderValid(sh, kOpRingSlots)) {
        res.ok = false;
        return res;
    }
    if (sh.tail == sh.head)
        return res;

    RingHeader ch;
    cpu.readPhys(cplr, &ch, sizeof(ch));
    if (!ringHeaderValid(ch, kOpCplSlots)) {
        res.ok = false;
        return res;
    }

    while (sh.tail < sh.head) {
        if (ch.head - ch.tail >= kOpCplSlots)
            break; // completion backpressure: the kernel harvests, re-rings

        // Slot header first, then only the payload bytes it declares
        // (clamped: the producer is the less-privileged kernel).
        Gpa sp = ringSlot(sub, kOpSlotBytes, kOpRingSlots, sh.tail);
        VeilOpSlot slot;
        cpu.readPhys(sp, &slot, offsetof(VeilOpSlot, payload));
        IdcbMessage m;
        m.op = slot.op;
        static_assert(sizeof(m.args) == sizeof(slot.args));
        std::memcpy(m.args, slot.args, sizeof(m.args));
        m.payloadLen = std::min<uint32_t>(slot.payloadLen, kOpPayloadMax);
        if (m.payloadLen > 0) {
            cpu.readPhys(sp + offsetof(VeilOpSlot, payload), m.payload,
                         m.payloadLen);
        }
        cpu.burn(kRingOpCycles);

        m.requesterVmpl = 3; // ring requests originate from the OS
        dispatch(cpu, m);

        VeilOpCompletion cpl;
        cpl.seq = slot.seq;
        cpl.op = slot.op;
        cpl.status = m.status;
        static_assert(sizeof(cpl.ret) == sizeof(m.ret));
        std::memcpy(cpl.ret, m.ret, sizeof(cpl.ret));
        cpu.writePhys(ringSlot(cplr, kOpCplSlotBytes, kOpCplSlots, ch.head),
                      &cpl, sizeof(cpl));
        ++ch.head;
        cpu.writePhys(cplr + offsetof(RingHeader, head), &ch.head,
                      sizeof(ch.head));
        // Consume before fetching the next op: a chaos-duplicated
        // doorbell re-reads an already-advanced tail and drains nothing
        // (idempotent retry).
        ++sh.tail;
        cpu.writePhys(sub + offsetof(RingHeader, tail), &sh.tail,
                      sizeof(sh.tail));
        ++res.drained;
    }
    return res;
}

void
ServiceDispatcher::dispatch(Vcpu &cpu, IdcbMessage &msg)
{
    switch (static_cast<VeilOp>(msg.op)) {
      case VeilOp::Ping:
        msg.status = static_cast<uint64_t>(VeilStatus::Ok);
        break;
      case VeilOp::KciActivate:
      case VeilOp::KciModuleLoad:
      case VeilOp::KciModuleUnload: {
          trace::SpanScope span(machine_.tracer(),
                                trace::Category::ServiceKci, msg.op);
          kci_.handle(cpu, msg);
          break;
      }
      case VeilOp::EncCreate:
      case VeilOp::EncDestroy:
      case VeilOp::EncFreePage:
      case VeilOp::EncRestorePage:
      case VeilOp::EncMprotect:
      case VeilOp::EncSyncPerms:
      case VeilOp::EncGetMeasurement:
      case VeilOp::EncSnapshot:
      case VeilOp::EncClone:
      case VeilOp::EncCloneFault:
      case VeilOp::EncSnapshotRelease: {
          trace::SpanScope span(machine_.tracer(),
                                trace::Category::ServiceEnc, msg.op);
          enc_.handle(cpu, msg);
          break;
      }
      case VeilOp::LogAppend:
      case VeilOp::LogQuery:
      case VeilOp::LogStats: {
          trace::SpanScope span(machine_.tracer(),
                                trace::Category::ServiceLog, msg.op);
          log_.handle(cpu, msg);
          break;
      }
      case VeilOp::OpRingDoorbell: {
          trace::SpanScope span(machine_.tracer(),
                                trace::Category::RingFlush, msg.op);
          DrainResult res = drainOpRing(cpu);
          msg.ret[0] = res.drained;
          msg.status = static_cast<uint64_t>(
              res.ok ? VeilStatus::Ok : VeilStatus::BadArgs);
          break;
      }
      default:
        msg.status = static_cast<uint64_t>(VeilStatus::Unsupported);
        break;
    }
}

} // namespace veil::core
