#include "veil/monitor.hh"

#include <cstring>
#include <set>

#include "base/log.hh"
#include "crypto/drbg.hh"
#include "snp/fault.hh"

namespace veil::core {

using namespace snp;

namespace {
/// Cycle cost of the monitor's DH key generation + shared-secret
/// computation during channel establishment (one-time, boot-path).
constexpr uint64_t kDhComputeCycles = 3'000'000;
} // namespace

VeilMon::VeilMon(Machine &machine, const CvmLayout &layout)
    : machine_(machine), layout_(layout), nextVmsaPage_(layout.vmsaPool)
{
}

void
VeilMon::setKernelEntries(GuestEntry bsp,
                          std::function<GuestEntry(uint32_t)> ap)
{
    kernelBsp_ = std::move(bsp);
    kernelAp_ = std::move(ap);
}

void
VeilMon::setServiceEntry(std::function<GuestEntry(uint32_t)> entry)
{
    serviceEntry_ = std::move(entry);
}

void
VeilMon::setEnclaveEntryFactory(EnclaveEntryFactory factory)
{
    enclaveEntryFactory_ = std::move(factory);
}

Gpa
VeilMon::allocVmsaPage()
{
    if (!freeVmsaPages_.empty()) {
        Gpa p = freeVmsaPages_.back();
        freeVmsaPages_.pop_back();
        return p;
    }
    // The boot VMSA occupies the first pool page (placed by launch).
    if (nextVmsaPage_ == layout_.vmsaPool)
        nextVmsaPage_ += kPageSize;
    if (nextVmsaPage_ >= layout_.vmsaPoolEnd)
        panic("VeilMon: VMSA pool exhausted");
    Gpa p = nextVmsaPage_;
    nextVmsaPage_ += kPageSize;
    return p;
}

bool
VeilMon::osPageAllowed(Gpa page) const
{
    if (!isPageAligned(page))
        return false;
    if (page >= layout_.memEnd)
        return false;
    // The OS may only operate on its own region; everything below
    // kernelBase (image, monitor, services, GHCBs, IDCBs) is off-limits
    // (§8.1 "OS request sanitized").
    if (page < layout_.kernelBase)
        return false;
    if (machine_.rmp().isVmsaPage(page))
        return false;
    return true;
}

void
VeilMon::bootMain(Vcpu &cpu)
{
    ensure(kernelBsp_ && serviceEntry_, "VeilMon: entries not wired");

    // Measured boot (§15): record the platform launch measurement and
    // the CVM geometry before any domain is carved. Host-side state —
    // zero simulated cycles, so the calibrated boot costs are exact.
    mboot_.extend(MeasuredBoot::kPcrPlatform, "launch-digest",
                  machine_.psp().launchDigest());
    Bytes geometry;
    appendLe<uint64_t>(geometry, layout_.kernelBase);
    appendLe<uint64_t>(geometry, layout_.memEnd);
    appendLe<uint64_t>(geometry, layout_.srvBase);
    appendLe<uint64_t>(geometry, layout_.monBase);
    appendLe<uint32_t>(geometry, layout_.numVcpus);
    mboot_.extendBytes(MeasuredBoot::kPcrConfig, "cvm-layout",
                       geometry.data(), geometry.size());

    uint64_t t0 = cpu.rdtsc();
    protectDomains(cpu);
    uint64_t t1 = cpu.rdtsc();

    Bytes carved;
    appendLe<uint64_t>(carved, bootStats_.pagesProtected);
    appendLe<uint64_t>(carved, bootStats_.hugeRegions);
    appendLe<uint64_t>(carved, lazyAccept_ ? 1 : 0);
    mboot_.extendBytes(MeasuredBoot::kPcrDomains, "domains-protected",
                       carved.data(), carved.size());

    createVcpuDomains(cpu, 0, true);
    uint64_t t2 = cpu.rdtsc();
    bootStats_.vmsaSetupCycles = t2 - t1;
    bootStats_.totalCycles = t2 - t0;

    mboot_.extendBytes(MeasuredBoot::kPcrServices, "services-wired",
                       "dispatcher", 10);
    monitorLoop(cpu);
}

int
VeilMon::grantClass(Gpa page) const
{
    // 0 = Dom-MON only, 1 = service region, 2 = OS-visible.
    if (page == 0 || layout_.inMonRegion(page))
        return 0;
    if (layout_.inSrvRegion(page))
        return 1;
    return 2;
}

bool
VeilMon::regionEligible2m(Gpa base) const
{
    // A 2 MiB region takes the PVALIDATE-2M fast path only when every
    // covered page is uniform: same grant class, no shared/VMSA pages,
    // nothing validated yet, and uniformly assigned (lazy acceptance
    // already ran by the time this is asked).
    if (!isPageAligned2m(base) || base + kPageSize2m > layout_.memEnd)
        return false;
    const RmpTable &rmp = machine_.rmp();
    int cls = grantClass(base);
    for (Gpa p = base; p < base + kPageSize2m; p += kPageSize) {
        if (rmp.isShared(p) || rmp.isVmsaPage(p) || rmp.isValidated(p))
            return false;
        if (!rmp.isAssigned(p))
            return false;
        if (grantClass(p) != cls)
            return false;
    }
    return true;
}

void
VeilMon::acceptLazyMemory(Vcpu &cpu)
{
    // Lazy launch left [kernelBase, memEnd) unassigned. With huge pages
    // on, accept it with grouped multi-entry PageStateChange requests
    // (one domain switch covers up to kPscMaxEntries 2 MiB regions);
    // with huge pages off the per-page acceptance round trips happen in
    // the protectDomains walk — the ablation baseline.
    if (!machine_.hugePagesEnabled())
        return;
    RmpTable &rmp = machine_.rmp();
    Gpa p = layout_.kernelBase;
    auto region_unassigned = [&](Gpa base) {
        if (!isPageAligned2m(base) || base + kPageSize2m > layout_.memEnd)
            return false;
        for (Gpa q = base; q < base + kPageSize2m; q += kPageSize)
            if (rmp.isAssigned(q) || rmp.isShared(q))
                return false;
        return true;
    };
    while (p < layout_.memEnd) {
        if (region_unassigned(p)) {
            uint64_t count = 0;
            Gpa q = p;
            while (count < kPscMaxEntries && region_unassigned(q)) {
                ++count;
                q += kPageSize2m;
            }
            Ghcb g;
            g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
            g.info[0] = p;
            g.info[1] = 0; // to private (acceptance)
            g.info[2] = count;
            g.info[3] = 1; // 2 MiB entries
            cpu.hypercall(g);
            ++bootStats_.pscBatches;
            p = q;
        } else if (!rmp.isAssigned(p) && !rmp.isShared(p)) {
            // Unaligned head/tail: grouped 4 KiB entries up to the next
            // huge-eligible boundary.
            uint64_t count = 0;
            Gpa q = p;
            while (count < kPscMaxEntries && q < layout_.memEnd &&
                   !rmp.isAssigned(q) && !rmp.isShared(q) &&
                   !region_unassigned(q)) {
                ++count;
                q += kPageSize;
            }
            Ghcb g;
            g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
            g.info[0] = p;
            g.info[1] = 0;
            g.info[2] = count;
            g.info[3] = 0;
            cpu.hypercall(g);
            ++bootStats_.pscBatches;
            p = q;
        } else {
            p += kPageSize;
        }
    }
}

void
VeilMon::protectDomains(Vcpu &cpu)
{
    RmpTable &rmp = machine_.rmp();
    uint64_t pv_cycles = 0;
    uint64_t ra_cycles = 0;
    const bool huge = machine_.hugePagesEnabled();

    if (lazyAccept_)
        acceptLazyMemory(cpu);

    Gpa p = 0;
    while (p < layout_.memEnd) {
        if (huge && regionEligible2m(p)) {
            // PVALIDATE-2M + RMPADJUST-2M: one instruction pair covers
            // the whole region (DESIGN.md §14).
            uint64_t t = cpu.rdtsc();
            cpu.pvalidate2m(p, true);
            pv_cycles += cpu.rdtsc() - t;
            t = cpu.rdtsc();
            switch (grantClass(p)) {
              case 0:
                break; // Dom-MON only: no grants below VMPL-0
              case 1:
                cpu.rmpadjust2m(p, Vmpl::Vmpl1, kPermRw);
                break;
              default:
                cpu.rmpadjust2m(p, Vmpl::Vmpl1, kPermRw);
                cpu.rmpadjust2m(p, Vmpl::Vmpl3, kPermAll, /*warm=*/true);
                break;
            }
            ra_cycles += cpu.rdtsc() - t;
            bootStats_.pagesProtected += kPagesPer2m;
            ++bootStats_.hugeRegions;
            p += kPageSize2m;
            continue;
        }

        if (rmp.isShared(p)) {
            p += kPageSize; // pre-shared GHCB pages stay hv-visible
            continue;
        }
        if (rmp.isVmsaPage(p)) {
            p += kPageSize; // boot VMSA
            continue;
        }
        if (lazyAccept_ && !rmp.isAssigned(p)) {
            // 4 KiB lazy acceptance: one PageStateChange round trip per
            // page (what the huge path's grouped requests amortize).
            Ghcb g;
            g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
            g.info[0] = p;
            g.info[1] = 0;
            cpu.hypercall(g);
        }
        if (!rmp.isValidated(p)) {
            uint64_t t = cpu.rdtsc();
            cpu.pvalidate(p, true);
            pv_cycles += cpu.rdtsc() - t;
        }

        uint64_t t = cpu.rdtsc();
        if (p == 0 || layout_.inMonRegion(p)) {
            // Dom-MON only: no grants below VMPL-0.
        } else if (layout_.inSrvRegion(p)) {
            cpu.rmpadjust(p, Vmpl::Vmpl1, kPermRw);
        } else {
            // OS-visible memory: services may inspect it, the OS gets
            // full access (VeilS-KCI tightens W^X later, §6.1).
            cpu.rmpadjust(p, Vmpl::Vmpl1, kPermRw);
            cpu.rmpadjust(p, Vmpl::Vmpl3, kPermAll, /*warm=*/true);
        }
        ra_cycles += cpu.rdtsc() - t;
        ++bootStats_.pagesProtected;
        p += kPageSize;
    }

    bootStats_.pvalidateCycles = pv_cycles;
    bootStats_.rmpadjustCycles = ra_cycles;
}

void
VeilMon::hvRegisterVmsa(Vcpu &cpu, uint32_t vcpu, Vmpl vmpl, VmsaId id,
                        Gpa vmsa_gpa)
{
    Ghcb g;
    g.exitCode = static_cast<uint64_t>(GhcbExit::RegisterVmsa);
    g.info[0] = vmsa_gpa;
    g.info[1] = vcpu;
    g.info[2] = static_cast<uint64_t>(vmpl);
    g.info[3] = id;
    cpu.hypercall(g);
}

void
VeilMon::createVcpuDomains(Vcpu &cpu, uint32_t vcpu, bool boot_vcpu)
{
    Bytes who;
    appendLe<uint32_t>(who, vcpu);
    appendLe<uint32_t>(who, boot_vcpu ? 1 : 0);
    mboot_.extendBytes(MeasuredBoot::kPcrVcpus, "vcpu-domains", who.data(),
                       who.size());

    // Dom-SRV replica.
    Gpa srv_page = allocVmsaPage();
    VmsaId srv = cpu.createVmsa(srv_page, vcpu, Vmpl::Vmpl1,
                                /*irq_masked=*/true, serviceEntry_(vcpu));
    machine_.vmsaState(srv).ghcbGpa = layout_.srvGhcb(vcpu);
    hvRegisterVmsa(cpu, vcpu, Vmpl::Vmpl1, srv, srv_page);

    // Dom-UNT replica (the kernel).
    Gpa unt_page = allocVmsaPage();
    GuestEntry entry = boot_vcpu ? kernelBsp_ : kernelAp_(vcpu);
    VmsaId unt = cpu.createVmsa(unt_page, vcpu, Vmpl::Vmpl3,
                                /*irq_masked=*/false, std::move(entry));
    machine_.vmsaState(unt).ghcbGpa = layout_.osGhcb(vcpu);
    hvRegisterVmsa(cpu, vcpu, Vmpl::Vmpl3, unt, unt_page);

    if (!boot_vcpu) {
        // Dom-MON replica so the new VCPU can reach the monitor.
        Gpa mon_page = allocVmsaPage();
        VmsaId mon = cpu.createVmsa(mon_page, vcpu, Vmpl::Vmpl0,
                                    /*irq_masked=*/true,
                                    [this](Vcpu &inner) {
                                        monitorLoop(inner);
                                    });
        machine_.vmsaState(mon).ghcbGpa = layout_.monGhcb(vcpu);
        hvRegisterVmsa(cpu, vcpu, Vmpl::Vmpl0, mon, mon_page);
    }
}

void
VeilMon::monitorLoop(Vcpu &cpu)
{
    uint32_t vcpu = cpu.vcpuId();
    for (;;) {
        Vmpl reply_to = Vmpl::Vmpl3;
        IdcbMessage m;
        if (idcbFetch(cpu, layout_.osMonIdcb(vcpu), m)) {
            m.requesterVmpl = 3; // source IDCB, not attacker-controlled
            dispatch(cpu, m);
            idcbReply(cpu, layout_.osMonIdcb(vcpu), m);
            reply_to = Vmpl::Vmpl3;
        } else if (idcbFetch(cpu, layout_.srvMonIdcb(vcpu), m)) {
            m.requesterVmpl = 1;
            dispatch(cpu, m);
            idcbReply(cpu, layout_.srvMonIdcb(vcpu), m);
            reply_to = Vmpl::Vmpl1;
        }
        domainSwitch(cpu, reply_to);
    }
}

void
VeilMon::dispatch(Vcpu &cpu, IdcbMessage &msg)
{
    trace::SpanScope span(machine_.tracer(), trace::Category::MonitorReq,
                          msg.op);
    msg.status = static_cast<uint64_t>(VeilStatus::Denied);
    switch (static_cast<VeilOp>(msg.op)) {
      case VeilOp::Ping:
        msg.status = static_cast<uint64_t>(VeilStatus::Ok);
        break;
      case VeilOp::Pvalidate:
        opPvalidate(cpu, msg);
        break;
      case VeilOp::PageStateChange:
        opPageStateChange(cpu, msg);
        break;
      case VeilOp::BootVcpu:
        opBootVcpu(cpu, msg);
        break;
      case VeilOp::EstablishChannel:
        opEstablishChannel(cpu, msg);
        break;
      case VeilOp::ChannelTeardown:
        opChannelTeardown(cpu, msg);
        break;
      case VeilOp::CreateEnclaveVmsa:
        opCreateEnclaveVmsa(cpu, msg);
        break;
      case VeilOp::DestroyEnclaveVmsa:
        opDestroyEnclaveVmsa(cpu, msg);
        break;
      default:
        msg.status = static_cast<uint64_t>(VeilStatus::Unsupported);
        break;
    }
}

void
VeilMon::opPvalidate(Vcpu &cpu, IdcbMessage &msg)
{
    Gpa page = msg.args[0];
    bool validate = msg.args[1] != 0;
    if (!osPageAllowed(page)) {
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    cpu.pvalidate(page, validate);
    if (validate) {
        cpu.rmpadjust(page, Vmpl::Vmpl1, kPermRw, /*warm=*/true);
        cpu.rmpadjust(page, Vmpl::Vmpl3, kPermAll, /*warm=*/true);
    }
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
VeilMon::opPageStateChange(Vcpu &cpu, IdcbMessage &msg)
{
    Gpa page = msg.args[0];
    bool to_shared = msg.args[1] != 0;
    uint64_t count = msg.args[2] > 1 ? msg.args[2] : 1;
    bool size2m = msg.args[3] != 0;

    // Sanitize the whole size-tagged request (§8.1): the entry count is
    // capped at the GHCB PSC buffer size, 2 MiB operands must be
    // region-aligned, and EVERY covered 4 KiB page must individually
    // pass osPageAllowed — a malicious OS must not smuggle a protected
    // page inside a large entry.
    Gpa step = size2m ? kPageSize2m : kPageSize;
    if (count > kPscMaxEntries || (size2m && !isPageAligned2m(page)) ||
        !isPageAligned(page) || page + count * step < page) {
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    for (Gpa p = page; p < page + count * step; p += kPageSize) {
        if (!osPageAllowed(p)) {
            msg.status = static_cast<uint64_t>(VeilStatus::Denied);
            return;
        }
    }

    Ghcb g;
    g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
    g.info[0] = page;
    g.info[1] = to_shared ? 1 : 0;
    g.info[2] = count;
    g.info[3] = size2m ? 1 : 0;
    RmpTable &rmp = machine_.rmp();
    if (to_shared) {
        for (uint64_t i = 0; i < count; ++i) {
            Gpa base = page + i * step;
            if (size2m && rmp.isHuge(base) && rmp.isValidated(base)) {
                cpu.pvalidate2m(base, false);
                continue;
            }
            for (Gpa p = base; p < base + step; p += kPageSize)
                if (rmp.isValidated(p))
                    cpu.pvalidate(p, false);
        }
        cpu.hypercall(g);
    } else {
        cpu.hypercall(g);
        for (uint64_t i = 0; i < count; ++i) {
            Gpa base = page + i * step;
            if (size2m) {
                cpu.pvalidate2m(base, true);
                cpu.rmpadjust2m(base, Vmpl::Vmpl1, kPermRw, /*warm=*/true);
                cpu.rmpadjust2m(base, Vmpl::Vmpl3, kPermAll, /*warm=*/true);
            } else {
                cpu.pvalidate(base, true);
                cpu.rmpadjust(base, Vmpl::Vmpl1, kPermRw, /*warm=*/true);
                cpu.rmpadjust(base, Vmpl::Vmpl3, kPermAll, /*warm=*/true);
            }
        }
    }
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
VeilMon::opBootVcpu(Vcpu &cpu, IdcbMessage &msg)
{
    static_assert(sizeof(uint32_t) <= sizeof(msg.args[0]));
    uint32_t vcpu = static_cast<uint32_t>(msg.args[0]);
    if (vcpu == 0 || vcpu >= layout_.numVcpus ||
        bootedVcpus_.count(vcpu)) {
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }
    createVcpuDomains(cpu, vcpu, /*boot_vcpu=*/false);
    bootedVcpus_.insert(vcpu);

    Ghcb g;
    g.exitCode = static_cast<uint64_t>(GhcbExit::StartVcpu);
    g.info[0] = vcpu;
    g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl3);
    cpu.hypercall(g);
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
VeilMon::opEstablishChannel(Vcpu &cpu, IdcbMessage &msg)
{
    if (msg.payloadLen != 32) {
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }
    // Session gating (§15): while a user session holds the channel, a
    // re-issued EstablishChannel — e.g. from a malicious OS trying to
    // desync the live session's keys — is refused outright. The owner
    // ends a session with a sealed ChannelTeardown proof; only then is
    // the next establishment accepted, under a fresh generation.
    if (sessionActive_) {
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    Bytes user_pub(msg.payload, msg.payload + 32);

    // Deterministic DRBG seeded from platform-secret material.
    Bytes seed = machine_.config().pspKey;
    appendBytes(seed, "veilmon-dh", 10);
    appendLe<uint64_t>(seed, channelNonce_++);
    crypto::HmacDrbg drbg(seed);
    crypto::DhKeyPair kp = crypto::dhGenerate(drbg);
    cpu.burn(kDhComputeCycles);

    Bytes shared;
    try {
        shared = crypto::dhSharedSecret(kp.secret, user_pub);
    } catch (const FatalError &) {
        // Degenerate or out-of-range peer public (e.g. 1 or p-1
        // substituted by the relay to force a predictable secret).
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }

    uint64_t gen = sessionGen_ + 1;
    crypto::Digest quote = mboot_.quote();

    // Bind our public key, the peer's key, the session generation, and
    // the measured-boot quote into the signed report: reportData =
    // monitor pub || SHA256(user pub || generation || quote). A relay
    // that tampers with any response field breaks this hash, and the
    // hash is covered by the chip-key signature.
    ReportData rd{};
    std::memcpy(rd.data(), kp.publicKey.data(), 32);
    crypto::Sha256 binding;
    binding.update(user_pub.data(), user_pub.size());
    uint8_t gen_le[8];
    storeLe<uint64_t>(gen_le, gen);
    binding.update(gen_le, sizeof(gen_le));
    binding.update(quote.data(), quote.size());
    crypto::Digest bind_hash = binding.finish();
    std::memcpy(rd.data() + 32, bind_hash.data(), 32);
    AttestationReport report = cpu.attest(rd);

    channelKeys_ = crypto::deriveSessionKeys(shared);
    sealChannel_ =
        std::make_unique<SecureChannel>(*channelKeys_, /*initiator=*/false);
    sessionGen_ = gen;
    sessionActive_ = true;

    ChannelResponse resp{};
    resp.report = report;
    resp.chain = machine_.psp().certChain();
    std::memcpy(resp.monitorPublic, kp.publicKey.data(), 32);
    std::memcpy(resp.bootQuote, quote.data(), 32);
    resp.sessionGeneration = gen;
    static_assert(sizeof(ChannelResponse) <= kIdcbRetPayloadMax);
    std::memcpy(msg.retPayload, &resp, sizeof(resp));
    msg.retPayloadLen = sizeof(resp);
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
VeilMon::opChannelTeardown(Vcpu &cpu, IdcbMessage &msg)
{
    if (!sessionActive_ || sealChannel_ == nullptr) {
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    if (msg.payloadLen == 0 || msg.payloadLen > kIdcbPayloadMax) {
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }
    // Only the session owner can end the session: the proof must open
    // under the live channel keys and name the live generation. A
    // failed open leaves the channel state (including the replay
    // window) untouched, so a hostile OS cannot tear down or desync
    // the session by guessing.
    Bytes sealed(msg.payload, msg.payload + msg.payloadLen);
    auto plain = sealChannel_->open(sealed);
    if (!plain || plain->size() != sizeof(kTeardownMagic) + 8 ||
        std::memcmp(plain->data(), kTeardownMagic,
                    sizeof(kTeardownMagic)) != 0 ||
        loadLe<uint64_t>(plain->data() + sizeof(kTeardownMagic)) !=
            sessionGen_) {
        msg.status = static_cast<uint64_t>(VeilStatus::VerifyFailed);
        return;
    }
    sealChannel_.reset();
    channelKeys_.reset();
    sessionActive_ = false;
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
VeilMon::opCreateEnclaveVmsa(Vcpu &cpu, IdcbMessage &msg)
{
    if (msg.requesterVmpl != 1) {
        // Only VeilS-ENC (Dom-SRV) may create enclave domains: a
        // malicious OS must not spawn VCPUs at privileged levels (§8.1).
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    ensure(enclaveEntryFactory_ != nullptr, "VeilMon: no enclave factory");
    uint32_t vcpu = static_cast<uint32_t>(msg.args[0]);
    uint64_t program_id = msg.args[1];
    Gpa cr3 = msg.args[2];
    Gpa ghcb = msg.args[3];
    Gva idt_handler = msg.args[4];
    uint64_t enclave_id = msg.args[5];
    if (vcpu >= layout_.numVcpus) {
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }

    Gpa page = allocVmsaPage();
    VmsaId id = cpu.createVmsa(page, vcpu, Vmpl::Vmpl2, /*irq_masked=*/false,
                               enclaveEntryFactory_(enclave_id, program_id));
    Vmsa &state = machine_.vmsaState(id);
    state.cpl = Cpl::User; // enclaves are unprivileged (§5.1 Dom-ENC)
    state.cr3 = cr3;
    state.ghcbGpa = ghcb;
    state.idtHandlerVa = idt_handler;
    hvRegisterVmsa(cpu, vcpu, Vmpl::Vmpl2, id, page);

    msg.ret[0] = id;
    msg.ret[1] = page;
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

void
VeilMon::opDestroyEnclaveVmsa(Vcpu &cpu, IdcbMessage &msg)
{
    if (msg.requesterVmpl != 1) {
        msg.status = static_cast<uint64_t>(VeilStatus::Denied);
        return;
    }
    Gpa page = msg.args[1];
    if (!machine_.rmp().isVmsaPage(page)) {
        msg.status = static_cast<uint64_t>(VeilStatus::BadArgs);
        return;
    }
    machine_.rmp().clearVmsa(Vmpl::Vmpl0, page);
    freeVmsaPages_.push_back(page);
    msg.status = static_cast<uint64_t>(VeilStatus::Ok);
}

} // namespace veil::core
