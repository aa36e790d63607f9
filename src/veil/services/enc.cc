#include "veil/services/enc.hh"

#include <cstring>

#include "base/log.hh"
#include "crypto/drbg.hh"
#include "crypto/hmac.hh"
#include "veil/channel.hh"

namespace veil::core {

using namespace snp;

namespace {
/// Measurement / crypto cost charged per enclave page at initialization
/// (SHA-256 at ~10 cycles/byte).
constexpr uint64_t kMeasureCyclesPerPage = 10 * kPageSize;
/// AES-CTR + tag cost for evict/restore of one page.
constexpr uint64_t kCryptCyclesPerPage = 14 * kPageSize;
/// Snapshot sealing: per-page RMP demotion + PTE downgrade bookkeeping.
constexpr uint64_t kSnapshotCyclesPerPage = 120;
/// Clone instantiation: per-page read-only mapping into fresh tables.
constexpr uint64_t kCloneMapCyclesPerPage = 60;
/// CoW break: 4 KiB protected copy plus remap (≪ re-measuring).
constexpr uint64_t kCloneFaultCycles = kPageSize / 2;

void
reply(IdcbMessage &msg, VeilStatus status)
{
    msg.status = static_cast<uint64_t>(status);
}

/** The live entry of @p m that msg.args[0] names; otherwise nullptr,
 *  with NotFound in @p msg. */
template <typename T>
T *
findLive(std::map<uint64_t, T> &m, IdcbMessage &msg)
{
    auto it = m.find(msg.args[0]);
    if (it != m.end() && it->second.alive)
        return &it->second;
    reply(msg, VeilStatus::NotFound);
    return nullptr;
}

/** The rights of an enclave-visible user page: its clone-table flags
 *  and the VMPL-2 RMP permissions that match them. */
struct PageRights
{
    PageFlags flags;
    PermMask vmpl2 = PermRead;
};

/** The one rights translation: a page that may be written and/or
 *  executed. */
PageRights
rights(bool write, bool exec)
{
    PageRights r;
    r.flags.user = true;
    r.flags.write = write;
    r.flags.exec = exec;
    if (write)
        r.vmpl2 |= PermWrite;
    if (exec)
        r.vmpl2 |= PermUserExec;
    return r;
}

/** Rights from PTE bits (PteWrite, PteNx). */
PageRights
pteRights(uint64_t pte)
{
    return rights(pte & PteWrite, !(pte & PteNx));
}

/** Rights from an mprotect-style @p prot (bit0 write, bit1 exec). */
PageRights
protRights(uint64_t prot)
{
    return rights(prot & 1, prot & 2);
}

} // namespace

void
measureEnclavePage(crypto::Sha256 &meas, Gva va, uint64_t pte,
                   const uint8_t *contents)
{
    uint64_t meta_flags = pte & (PteWrite | PteNx | PteUser);
    meas.update(&va, sizeof(va));
    meas.update(&meta_flags, sizeof(meta_flags));
    meas.update(contents, kPageSize);
}

EncService::EncService(Machine &machine, const CvmLayout &layout,
                       VeilMon &monitor)
    : machine_(machine),
      layout_(layout),
      monitor_(monitor),
      srvEditor_(
          machine.memory(), [this] { return allocSrvFrame(); },
          [this](Gpa p) { freeSrvFrame(p); }),
      nextSrvFrame_(layout.srvHeap)
{
    // The OS page tables VeilS-ENC scans are read with Dom-SRV's own
    // private accesses: a table page the host flipped faults here.
    srvEditor_.guard(machine.rmp(), Vmpl::Vmpl1);
}

Gpa
EncService::allocSrvFrame()
{
    if (!freeSrvFrames_.empty()) {
        Gpa p = freeSrvFrames_.back();
        freeSrvFrames_.pop_back();
        return p;
    }
    if (nextSrvFrame_ >= layout_.srvEnd)
        panic("EncService: Dom-SRV frame pool exhausted");
    Gpa p = nextSrvFrame_;
    nextSrvFrame_ += kPageSize;
    return p;
}

void
EncService::freeSrvFrame(Gpa p)
{
    freeSrvFrames_.push_back(p);
}

const EnclaveInfo *
EncService::info(uint64_t id) const
{
    auto it = enclaves_.find(id);
    return it == enclaves_.end() ? nullptr : &it->second;
}

size_t
EncService::liveEnclaves() const
{
    size_t n = 0;
    for (const auto &[id, e] : enclaves_)
        n += e.alive;
    return n;
}

const SnapshotInfo *
EncService::snapshot(uint64_t id) const
{
    auto it = snapshots_.find(id);
    return it == snapshots_.end() ? nullptr : &it->second;
}

void
EncService::lockMt(Vcpu &cpu)
{
    if (!machine_.multicore())
        return;
    while (!mtMu_.try_lock())
        cpu.burn(0); // safe-point while spinning (DESIGN.md §12)
}

void
EncService::unlockMt()
{
    if (machine_.multicore())
        mtMu_.unlock();
}

bool
EncService::admitOsLeaf(uint64_t pte, const std::set<Gpa> *own) const
{
    Gpa pa = pte & kPteAddrMask;
    return (pte & PteUser) && pa >= layout_.kernelBase &&
           pa < layout_.memEnd && !allEnclaveFrames_.count(pa) &&
           !(own && own->count(pa));
}

void
EncService::grantFrame(Vcpu &cpu, EnclaveInfo &e, Gpa pa, PermMask vmpl2)
{
    cpu.rmpadjust(pa, Vmpl::Vmpl2, vmpl2);
    cpu.rmpadjust(pa, Vmpl::Vmpl3, kPermNone, /*warm=*/true);
    e.frames.insert(pa);
    allEnclaveFrames_.insert(pa);
}

void
EncService::returnFrame(Vcpu &cpu, Gpa pa)
{
    cpu.rmpadjust(pa, Vmpl::Vmpl2, kPermNone, /*warm=*/true);
    cpu.rmpadjust(pa, Vmpl::Vmpl3, kPermRw, /*warm=*/true);
    allEnclaveFrames_.erase(pa);
}

crypto::Digest
EncService::pageTag(const EnclaveInfo &e, Gva va, uint64_t ctr,
                    const uint8_t *plain) const
{
    crypto::HmacSha256 h(e.pagingMac);
    h.update(&va, sizeof(va));
    h.update(&ctr, sizeof(ctr));
    h.update(plain, kPageSize);
    return h.finish();
}

void
EncService::derivePagingKeys(EnclaveInfo &e)
{
    // Per-enclave paging keys from a DRBG bound to the enclave id.
    // Clones derive *fresh* keys: sharing the template's would let one
    // clone forge another's evicted-page tags.
    Bytes seed = machine_.config().pspKey;
    appendBytes(seed, "enc-paging", 10);
    appendLe<uint64_t>(seed, e.id);
    crypto::HmacDrbg drbg(seed);
    Bytes key = drbg.generate(16);
    crypto::AesKey ak;
    std::copy(key.begin(), key.end(), ak.begin());
    e.pagingAes.emplace(ak);
    e.pagingMac = crypto::HmacKey(drbg.generate(32));
}

bool
EncService::frameUsable(Gpa pa) const
{
    return isPageAligned(pa) && pa >= layout_.kernelBase &&
           pa < layout_.memEnd && !allEnclaveFrames_.count(pa) &&
           !machine_.rmp().isShared(pa) && !machine_.rmp().isVmsaPage(pa);
}

void
EncService::handle(Vcpu &cpu, IdcbMessage &msg)
{
    lockMt(cpu);
    switch (static_cast<VeilOp>(msg.op)) {
      case VeilOp::EncCreate:
        opCreate(cpu, msg);
        break;
      case VeilOp::EncDestroy:
        opDestroy(cpu, msg);
        break;
      case VeilOp::EncFreePage:
        opFreePage(cpu, msg);
        break;
      case VeilOp::EncRestorePage:
        opRestorePage(cpu, msg);
        break;
      case VeilOp::EncMprotect:
        opMprotect(cpu, msg);
        break;
      case VeilOp::EncSyncPerms:
        opSyncPerms(cpu, msg);
        break;
      case VeilOp::EncGetMeasurement:
        opGetMeasurement(cpu, msg);
        break;
      case VeilOp::EncSnapshot:
        opSnapshot(cpu, msg);
        break;
      case VeilOp::EncClone:
        opClone(cpu, msg);
        break;
      case VeilOp::EncCloneFault:
        opCloneFault(cpu, msg);
        break;
      case VeilOp::EncSnapshotRelease:
        opSnapshotRelease(cpu, msg);
        break;
      default:
        msg.status = static_cast<uint64_t>(VeilStatus::Unsupported);
        break;
    }
    unlockMt();
}

void
EncService::opCreate(Vcpu &cpu, IdcbMessage &msg)
{
    Gpa process_cr3 = msg.args[0];
    Gva lo = msg.args[1];
    Gva hi = msg.args[2];
    Gpa ghcb = msg.args[3];
    uint32_t vcpu = static_cast<uint32_t>(msg.args[4]);
    uint64_t program_id = msg.args[5];
    Gva idt_handler = msg.args[7];

    if (!isPageAligned(lo) || !isPageAligned(hi) || lo >= hi ||
        lo < kUserVaLo || hi > kUserVaHi || vcpu >= layout_.numVcpus ||
        !machine_.rmp().isShared(ghcb))
        return reply(msg, VeilStatus::BadArgs);

    // Scan the OS-built page tables for the whole user address space.
    std::vector<std::pair<Gva, uint64_t>> user_leaves;
    std::vector<std::pair<Gva, uint64_t>> enclave_leaves;
    srvEditor_.forEachLeaf(process_cr3, kUserVaLo, kUserVaHi,
                           [&](Gva va, uint64_t pte) {
                               if (!(pte & PteUser))
                                   return; // never clone kernel mappings
                               user_leaves.emplace_back(va, pte);
                               if (va >= lo && va < hi)
                                   enclave_leaves.emplace_back(va, pte);
                           });
    cpu.burn(200 * user_leaves.size()); // scan cost

    // §6.2 invariants: one-to-one mapping and disjoint physical pages
    // inside the window; every other user leaf must pass admission.
    std::set<Gpa> own;
    for (const auto &[va, pte] : enclave_leaves) {
        Gpa pa = pte & kPteAddrMask;
        if (!own.insert(pa).second || !frameUsable(pa))
            return reply(msg, VeilStatus::VerifyFailed);
    }
    for (const auto &[va, pte] : user_leaves) {
        if ((va < lo || va >= hi) && !admitOsLeaf(pte, &own))
            return reply(msg, VeilStatus::VerifyFailed);
    }
    if (enclave_leaves.empty())
        return reply(msg, VeilStatus::BadArgs);

    EnclaveInfo e;
    e.id = nextId_++;
    e.processCr3 = process_cr3;
    e.lo = lo;
    e.hi = hi;
    e.vcpu = vcpu;
    e.ghcb = ghcb;
    e.programId = program_id;
    e.idtHandler = idt_handler;

    // Clone the user page tables into protected memory.
    e.cloneCr3 = srvEditor_.createRoot();
    for (const auto &[va, pte] : user_leaves)
        srvEditor_.map(e.cloneCr3, va, pte & kPteAddrMask,
                       pteRights(pte).flags);

    derivePagingKeys(e);

    // Measure (contents + metadata), then revoke Dom-UNT access and
    // grant Dom-ENC access to the enclave pages.
    crypto::Sha256 meas;
    std::vector<uint8_t> page(kPageSize);
    for (const auto &[va, pte] : enclave_leaves) {
        Gpa pa = pte & kPteAddrMask;
        cpu.readPhys(pa, page.data(), page.size());
        measureEnclavePage(meas, va, pte, page.data());
        cpu.burn(kMeasureCyclesPerPage);
        grantFrame(cpu, e, pa, pteRights(pte).vmpl2);
    }
    e.measurement = meas.finish();

    // Grant the enclave access to the non-enclave (shared) user pages.
    for (const auto &[va, pte] : user_leaves) {
        if (va >= lo && va < hi)
            continue;
        Gpa pa = pte & kPteAddrMask;
        if (machine_.rmp().isShared(pa))
            continue; // GHCB page: accessible everywhere already
        cpu.rmpadjust(pa, Vmpl::Vmpl2, pteRights(pte).vmpl2, /*warm=*/true);
    }

    // Ask VeilMon to create the Dom-ENC VCPU replica (§5.2).
    IdcbMessage req;
    req.op = static_cast<uint32_t>(VeilOp::CreateEnclaveVmsa);
    req.args[0] = vcpu;
    req.args[1] = program_id;
    req.args[2] = e.cloneCr3;
    req.args[3] = ghcb;
    req.args[4] = idt_handler;
    req.args[5] = e.id;
    idcbCall(cpu, layout_.srvMonIdcb(cpu.vcpuId()), Vmpl::Vmpl0, req);
    if (req.status != static_cast<uint64_t>(VeilStatus::Ok)) {
        msg.status = req.status;
        return;
    }
    e.vmsa = static_cast<VmsaId>(req.ret[0]);
    e.vmsaPage = req.ret[1];

    uint64_t id = e.id;
    enclaves_[id] = std::move(e);
    msg.ret[0] = id;
    msg.ret[1] = enclaves_[id].vmsa;
    reply(msg, VeilStatus::Ok);
}

void
EncService::opDestroy(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    if (!e)
        return;

    // Scrub and return the enclave's frames to the OS.
    for (Gpa pa : e->frames) {
        cpu.zeroPhys(pa);
        returnFrame(cpu, pa);
    }
    e->frames.clear();
    srvEditor_.destroyRoot(e->cloneCr3);

    IdcbMessage req;
    req.op = static_cast<uint32_t>(VeilOp::DestroyEnclaveVmsa);
    req.args[0] = e->vcpu;
    req.args[1] = e->vmsaPage;
    idcbCall(cpu, layout_.srvMonIdcb(cpu.vcpuId()), Vmpl::Vmpl0, req);

    e->alive = false;
    if (e->snapshotOf)
        snapshotDecref(cpu, e->snapshotOf);
    reply(msg, VeilStatus::Ok);
}

void
EncService::opFreePage(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    Gva va = msg.args[1];
    if (!e)
        return;
    if (va < e->lo || va >= e->hi)
        return reply(msg, VeilStatus::BadArgs);
    auto leaf = srvEditor_.leaf(e->cloneCr3, va);
    if (!leaf)
        return reply(msg, VeilStatus::NotFound);
    Gpa pa = *leaf & kPteAddrMask;
    if (snapFrames_.count(pa)) {
        // Snapshot-shared frame: encrypting it in place would corrupt
        // every other sharer. The OS may only evict private pages.
        return reply(msg, VeilStatus::Denied);
    }

    // Integrity tag with a freshness counter, then encrypt in place.
    std::vector<uint8_t> page(kPageSize);
    cpu.readPhys(pa, page.data(), page.size());
    uint64_t ctr = e->freshCounter++;
    EnclaveInfo::Evicted ev;
    ev.ctr = ctr;
    ev.pteFlags = *leaf & (PteWrite | PteNx | PteUser);
    ev.tag = pageTag(*e, va, ctr, page.data());

    std::vector<uint8_t> enc(kPageSize);
    crypto::aesCtrXor(*e->pagingAes, ctr, 0, page.data(), enc.data(),
                      kPageSize);
    cpu.writePhys(pa, enc.data(), enc.size());
    cpu.burn(kCryptCyclesPerPage);

    // Unmap from the protected tables; hand the frame to the OS.
    srvEditor_.unmap(e->cloneCr3, va);
    returnFrame(cpu, pa);
    e->frames.erase(pa);
    e->evicted[va] = ev;
    cpu.machine().tracer().instant(trace::Category::EnclavePageOut, va);
    reply(msg, VeilStatus::Ok);
}

void
EncService::opRestorePage(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    Gva va = msg.args[1];
    Gpa frame = msg.args[2];
    if (!e)
        return;
    auto ev_it = e->evicted.find(va);
    if (ev_it == e->evicted.end())
        return reply(msg, VeilStatus::NotFound);
    if (!frameUsable(frame))
        return reply(msg, VeilStatus::BadArgs);
    const EnclaveInfo::Evicted &ev = ev_it->second;

    // Copy into protected staging, decrypt, verify freshness tag (§6.2).
    std::vector<uint8_t> enc(kPageSize);
    cpu.readPhys(frame, enc.data(), enc.size());
    std::vector<uint8_t> plain(kPageSize);
    crypto::aesCtrXor(*e->pagingAes, ev.ctr, 0, enc.data(), plain.data(),
                      kPageSize);
    cpu.burn(kCryptCyclesPerPage);
    crypto::Digest tag = pageTag(*e, va, ev.ctr, plain.data());
    if (!ctEqual(tag.data(), ev.tag.data(), tag.size()))
        return reply(msg, VeilStatus::VerifyFailed);

    // Install the plaintext, revoke the OS, remap in the clone.
    cpu.writePhys(frame, plain.data(), plain.size());
    PageRights r = pteRights(ev.pteFlags);
    grantFrame(cpu, *e, frame, r.vmpl2);
    srvEditor_.map(e->cloneCr3, va, frame, r.flags);
    e->evicted.erase(ev_it);
    cpu.machine().tracer().instant(trace::Category::EnclavePageIn, va);
    reply(msg, VeilStatus::Ok);
}

void
EncService::opMprotect(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    Gva va = msg.args[1];
    uint64_t len = msg.args[2];
    if (!e)
        return;
    if (!isPageAligned(va) || va < e->lo || va + len > e->hi)
        return reply(msg, VeilStatus::BadArgs);
    PageRights r = protRights(msg.args[3]);
    for (Gva p = va; p < va + len; p += kPageSize) {
        auto old = srvEditor_.protect(e->cloneCr3, p, r.flags);
        if (old)
            cpu.rmpadjust(*old & kPteAddrMask, Vmpl::Vmpl2, r.vmpl2,
                          /*warm=*/true);
    }
    reply(msg, VeilStatus::Ok);
}

void
EncService::opSyncPerms(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    Gva va = msg.args[1];
    uint64_t len = msg.args[2];
    uint64_t prot = msg.args[3]; // bit0 write, bit1 exec, bit7 unmap
    if (!e)
        return;
    // Only non-enclave user regions may be synchronized by the OS.
    bool overlaps = va < e->hi && va + len > e->lo;
    if (!isPageAligned(va) || overlaps || va < kUserVaLo ||
        va + len > kUserVaHi)
        return reply(msg, VeilStatus::Denied);
    PageRights r = protRights(prot);
    for (Gva p = va; p < va + len; p += kPageSize) {
        if (prot & 0x80) {
            srvEditor_.unmap(e->cloneCr3, p);
            continue;
        }
        // Mirror the OS mapping (possibly new) into the clone.
        auto os_leaf = srvEditor_.leaf(e->processCr3, p);
        if (!os_leaf || !admitOsLeaf(*os_leaf))
            continue;
        Gpa pa = *os_leaf & kPteAddrMask;
        srvEditor_.map(e->cloneCr3, p, pa, r.flags);
        if (!machine_.rmp().isShared(pa))
            cpu.rmpadjust(pa, Vmpl::Vmpl2, r.vmpl2, /*warm=*/true);
    }
    reply(msg, VeilStatus::Ok);
}

void
EncService::opGetMeasurement(Vcpu &cpu, IdcbMessage &msg)
{
    const EnclaveInfo *e = info(msg.args[0]);
    if (!e)
        return reply(msg, VeilStatus::NotFound);

    // Raw digest first (local verification), then a sealed copy when
    // the VeilMon user channel is up (remote attestation path, §6.2).
    std::memcpy(msg.retPayload, e->measurement.data(), e->measurement.size());
    msg.retPayloadLen = static_cast<uint32_t>(e->measurement.size());
    if (SecureChannel *chan = monitor_.sealChannel()) {
        Bytes plain(e->measurement.begin(), e->measurement.end());
        appendLe<uint64_t>(plain, e->id);
        Bytes sealed = chan->seal(plain);
        ensure(msg.retPayloadLen + sealed.size() <= kIdcbRetPayloadMax,
               "EncService: sealed measurement too large");
        std::memcpy(msg.retPayload + msg.retPayloadLen, sealed.data(),
                    sealed.size());
        msg.retPayloadLen += static_cast<uint32_t>(sealed.size());
        msg.ret[0] = sealed.size();
    }
    reply(msg, VeilStatus::Ok);
}

void
EncService::opSnapshot(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    if (!e)
        return;
    if (e->snapshotOf)
        return reply(msg, VeilStatus::Denied);
    if (!e->evicted.empty()) {
        // The template must be fully resident so the snapshot is a
        // complete image; the kernel restores before sealing.
        return reply(msg, VeilStatus::BadArgs);
    }

    SnapshotInfo s;
    s.id = nextSnapId_++;
    s.lo = e->lo;
    s.hi = e->hi;
    s.programId = e->programId;
    s.idtHandler = e->idtHandler;
    s.measurement = e->measurement;

    // Seal: ownership of every image frame moves from the enclave to
    // the snapshot, and the source itself becomes a CoW sharer — its
    // clone-table leaves lose PteWrite and the RMP drops Dom-ENC write
    // so a stray write faults instead of mutating the template.
    srvEditor_.forEachLeaf(e->cloneCr3, e->lo, e->hi,
                           [&](Gva va, uint64_t pte) {
                               SnapshotInfo::Page p;
                               p.frame = pte & kPteAddrMask;
                               p.pteFlags =
                                   pte & (PteWrite | PteNx | PteUser);
                               s.pages[va] = p;
                           });
    for (const auto &[va, p] : s.pages) {
        PageRights r = pteRights(p.pteFlags & ~uint64_t(PteWrite));
        srvEditor_.protect(e->cloneCr3, va, r.flags);
        cpu.rmpadjust(p.frame, Vmpl::Vmpl2, r.vmpl2, /*warm=*/true);
        snapFrames_.insert(p.frame);
        cpu.burn(kSnapshotCyclesPerPage);
    }
    e->frames.clear();
    e->snapshotOf = s.id;
    s.refs = 2; // the sealed source + the kernel's snapshot handle

    uint64_t id = s.id;
    size_t pages = s.pages.size();
    snapshots_[id] = std::move(s);
    cpu.machine().tracer().instant(trace::Category::FleetSched, id);
    msg.ret[0] = id;
    msg.ret[1] = pages;
    reply(msg, VeilStatus::Ok);
}

void
EncService::opClone(Vcpu &cpu, IdcbMessage &msg)
{
    SnapshotInfo *s = findLive(snapshots_, msg);
    Gpa process_cr3 = msg.args[1];
    Gpa ghcb = msg.args[2];
    uint32_t vcpu = static_cast<uint32_t>(msg.args[3]);
    if (!s)
        return;
    if (vcpu >= layout_.numVcpus || !machine_.rmp().isShared(ghcb))
        return reply(msg, VeilStatus::BadArgs);

    EnclaveInfo e;
    e.id = nextId_++;
    e.processCr3 = process_cr3;
    e.lo = s->lo;
    e.hi = s->hi;
    e.vcpu = vcpu;
    e.ghcb = ghcb;
    e.programId = s->programId;
    e.idtHandler = s->idtHandler;
    e.snapshotOf = s->id;
    e.measurement = s->measurement; // attestation equals the template's
    derivePagingKeys(e);

    // Image pages map read-only onto the shared snapshot frames; the
    // original write bit is re-materialized per page by EncCloneFault.
    e.cloneCr3 = srvEditor_.createRoot();
    for (const auto &[va, p] : s->pages) {
        srvEditor_.map(e.cloneCr3, va, p.frame,
                       pteRights(p.pteFlags & ~uint64_t(PteWrite)).flags);
        cpu.burn(kCloneMapCyclesPerPage);
    }

    // Mirror the clone process's own non-enclave user pages (ocall
    // block; the GHCB stays shared) under opCreate's admission rule.
    std::vector<std::pair<Gva, uint64_t>> user_leaves;
    bool admitted = true;
    srvEditor_.forEachLeaf(process_cr3, kUserVaLo, kUserVaHi,
                           [&](Gva va, uint64_t pte) {
                               if (!(pte & PteUser) ||
                                   (va >= s->lo && va < s->hi))
                                   return;
                               admitted = admitted && admitOsLeaf(pte);
                               user_leaves.emplace_back(va, pte);
                           });
    cpu.burn(100 * user_leaves.size());
    if (!admitted) {
        srvEditor_.destroyRoot(e.cloneCr3);
        return reply(msg, VeilStatus::VerifyFailed);
    }
    for (const auto &[va, pte] : user_leaves) {
        Gpa pa = pte & kPteAddrMask;
        PageRights r = pteRights(pte);
        srvEditor_.map(e.cloneCr3, va, pa, r.flags);
        if (!machine_.rmp().isShared(pa))
            cpu.rmpadjust(pa, Vmpl::Vmpl2, r.vmpl2, /*warm=*/true);
    }

    // Fresh Dom-ENC VCPU replica from the template's program identity.
    IdcbMessage req;
    req.op = static_cast<uint32_t>(VeilOp::CreateEnclaveVmsa);
    req.args[0] = vcpu;
    req.args[1] = s->programId;
    req.args[2] = e.cloneCr3;
    req.args[3] = ghcb;
    req.args[4] = s->idtHandler;
    req.args[5] = e.id;
    idcbCall(cpu, layout_.srvMonIdcb(cpu.vcpuId()), Vmpl::Vmpl0, req);
    if (req.status != static_cast<uint64_t>(VeilStatus::Ok)) {
        srvEditor_.destroyRoot(e.cloneCr3);
        msg.status = req.status;
        return;
    }
    e.vmsa = static_cast<VmsaId>(req.ret[0]);
    e.vmsaPage = req.ret[1];

    ++s->refs;
    uint64_t id = e.id;
    enclaves_[id] = std::move(e);
    cpu.machine().tracer().instant(trace::Category::FleetSched, id);
    msg.ret[0] = id;
    msg.ret[1] = enclaves_[id].vmsa;
    msg.ret[2] = s->lo;
    msg.ret[3] = s->hi;
    reply(msg, VeilStatus::Ok);
}

void
EncService::opCloneFault(Vcpu &cpu, IdcbMessage &msg)
{
    EnclaveInfo *e = findLive(enclaves_, msg);
    Gva va = msg.args[1];
    Gpa frame = msg.args[2];
    if (!e)
        return;
    if (!e->snapshotOf)
        return reply(msg, VeilStatus::NotFound);
    auto snap_it = snapshots_.find(e->snapshotOf);
    ensure(snap_it != snapshots_.end(), "EncService: dangling snapshot");
    SnapshotInfo &s = snap_it->second;
    auto page_it = s.pages.find(va);
    if (page_it == s.pages.end())
        return reply(msg, VeilStatus::NotFound);
    const SnapshotInfo::Page &p = page_it->second;
    auto leaf = srvEditor_.leaf(e->cloneCr3, va);
    if (!leaf)
        return reply(msg, VeilStatus::NotFound);
    if ((*leaf & kPteAddrMask) != p.frame) {
        // Already broken (idempotent retry after a dropped reply).
        return reply(msg, VeilStatus::Ok);
    }
    if (!(p.pteFlags & PteWrite)) {
        // Faulting on a page the image never allowed writes to is a
        // real protection violation, not CoW.
        return reply(msg, VeilStatus::Denied);
    }
    if (!frameUsable(frame))
        return reply(msg, VeilStatus::BadArgs);

    // Copy the shared contents into the private frame, then hand it to
    // the clone with the image's original permissions (write restored).
    std::vector<uint8_t> page(kPageSize);
    cpu.readPhys(p.frame, page.data(), page.size());
    cpu.writePhys(frame, page.data(), page.size());
    cpu.burn(kCloneFaultCycles);
    PageRights r = pteRights(p.pteFlags);
    grantFrame(cpu, *e, frame, r.vmpl2);
    srvEditor_.map(e->cloneCr3, va, frame, r.flags);
    cpu.machine().tracer().instant(trace::Category::FleetSched, va);
    reply(msg, VeilStatus::Ok);
}

void
EncService::snapshotDecref(Vcpu &cpu, uint64_t snap_id)
{
    auto it = snapshots_.find(snap_id);
    ensure(it != snapshots_.end() && it->second.refs > 0,
           "EncService: snapshot refcount underflow");
    SnapshotInfo &s = it->second;
    if (--s.refs > 0)
        return;
    // Last sharer gone: scrub the template frames and return them.
    for (const auto &[va, p] : s.pages) {
        cpu.zeroPhys(p.frame);
        returnFrame(cpu, p.frame);
        snapFrames_.erase(p.frame);
    }
    s.pages.clear();
    s.alive = false;
}

void
EncService::opSnapshotRelease(Vcpu &cpu, IdcbMessage &msg)
{
    if (!findLive(snapshots_, msg))
        return;
    snapshotDecref(cpu, msg.args[0]);
    reply(msg, VeilStatus::Ok);
}

} // namespace veil::core
