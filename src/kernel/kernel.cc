#include "kernel/kernel.hh"

#include <cstddef>
#include <cstring>

#include "base/log.hh"
#include "base/rng.hh"
#include "snp/fault.hh"
#include "veil/services/enc.hh" // kUserVaLo/Hi
#include "veil/services/kci.hh" // KciSymbolEntry

namespace veil::kern {

using namespace snp;
using core::IdcbMessage;
using core::VeilOp;
using core::VeilStatus;
using core::vkoParse;
using core::vkoVerify;

namespace {

constexpr uint64_t kSyscallEntryCycles = 350;
constexpr uint64_t kAuditFormatCycles = 1400;
constexpr uint64_t kKauditAppendCycles = 600;
/// Marshalling one VeilOp into its submission-ring slot (§11).
constexpr uint64_t kOpAppendCycles = 600;
constexpr uint64_t kPageZeroCycles = 550;
constexpr uint64_t kPageUnmapCycles = 900;
/// Common load_module()/free_module() machinery (ELF parsing, kallsyms
/// resolution, sysfs registration, stop_machine on unload) modelled
/// after Linux: the paper's +55k-cycle KCI delta is 5.7% / 4.2% of
/// these baselines (§9.2 CS1).
constexpr uint64_t kModuleLoadKernelWork = 950'000;
constexpr uint64_t kModuleUnloadKernelWork = 1'150'000;
constexpr size_t kKernelTextPages = 32;
constexpr size_t kKernelDataPages = 64;

bool
okStatus(const IdcbMessage &m)
{
    return m.status == static_cast<uint64_t>(VeilStatus::Ok);
}

} // namespace

Kernel::Kernel(Machine &machine, const core::CvmLayout &layout,
               KernelConfig config, bool veil)
    : machine_(machine), layout_(layout), config_(std::move(config)),
      veil_(veil)
{
    audit_.setBackend(config_.auditBackend);
    audit_.setRules(config_.auditRules);
    opRings_.resize(layout_.numVcpus);
    deferredFreePages_.resize(layout_.numVcpus);
    scheduledEnclaveVmsa_.assign(layout_.numVcpus, snp::kInvalidVmsa);
    inEnclaveSession_.assign(layout_.numVcpus, 0);
    idcbBusy_.assign(layout_.numVcpus, 0);
}

Kernel::~Kernel() = default;

namespace {
/// Fleet worker binding: kernel entry points called on an AP's host
/// thread resolve to that AP's VCPU, not the BSP's.
thread_local Vcpu *t_workerCpu = nullptr;
} // namespace

void
Kernel::bindWorkerCpu(Vcpu *cpu)
{
    t_workerCpu = cpu;
}

Vcpu *
Kernel::curCpu() const
{
    return t_workerCpu ? t_workerCpu : cpu_;
}

Vcpu &
Kernel::cpu()
{
    Vcpu *c = curCpu();
    ensure(c != nullptr, "Kernel: not booted");
    return *c;
}

void
Kernel::conAppend(const std::string &s)
{
    if (!machine_.multicore()) {
        console_ += s;
        return;
    }
    kernMu_.lock();
    console_ += s;
    kernMu_.unlock();
}

GuestEntry
Kernel::bspEntry()
{
    return [this](Vcpu &cpu) { bspMain(cpu); };
}

GuestEntry
Kernel::apEntry(uint32_t vcpu)
{
    return [this, vcpu](Vcpu &cpu) {
        // AP bring-up handshake: per-CPU areas + online marker, then
        // the AP parks — unless a fleet worker body is installed, in
        // which case the AP becomes a session worker (§13).
        cpu.burn(50'000);
        if (machine_.multicore()) {
            kernMu_.lock();
            onlineVcpus_.insert(vcpu);
            kernMu_.unlock();
        } else {
            onlineVcpus_.insert(vcpu);
        }
        if (workerMain_) {
            bindWorkerCpu(&cpu);
            workerMain_(*this, cpu, vcpu);
            bindWorkerCpu(nullptr);
        }
    };
}

void
Kernel::validateAllMemoryNative(Vcpu &cpu)
{
    RmpTable &rmp = machine_.rmp();
    const bool huge = machine_.hugePagesEnabled();
    const bool lazy = config_.lazyAccept;

    // Eligible for the 2 MiB fast path: whole region inside memory, no
    // shared/VMSA/validated page, and uniformly assigned — or, under
    // lazy acceptance, uniformly unassigned (accepted below).
    auto region2m = [&](Gpa base, bool &unassigned) {
        if (!isPageAligned2m(base) || base + kPageSize2m > layout_.memEnd)
            return false;
        bool any_assigned = false, all_assigned = true;
        for (Gpa q = base; q < base + kPageSize2m; q += kPageSize) {
            if (rmp.isShared(q) || rmp.isVmsaPage(q) || rmp.isValidated(q))
                return false;
            if (rmp.isAssigned(q))
                any_assigned = true;
            else
                all_assigned = false;
        }
        if (all_assigned) {
            unassigned = false;
            return true;
        }
        unassigned = true;
        return lazy && !any_assigned;
    };

    Gpa p = 0;
    while (p < layout_.memEnd) {
        bool unassigned = false;
        if (huge && region2m(p, unassigned)) {
            if (unassigned) {
                // Grouped acceptance: one PageStateChange request covers
                // a run of consecutive unassigned 2 MiB regions.
                uint64_t count = 0;
                Gpa q = p;
                bool run_unassigned = true;
                while (count < kPscMaxEntries && run_unassigned &&
                       region2m(q, run_unassigned) && run_unassigned) {
                    ++count;
                    q += kPageSize2m;
                }
                Ghcb g;
                g.exitCode =
                    static_cast<uint64_t>(GhcbExit::PageStateChange);
                g.info[0] = p;
                g.info[1] = 0; // to private (acceptance)
                g.info[2] = count;
                g.info[3] = 1; // 2 MiB entries
                cpu.hypercall(g);
                for (uint64_t i = 0; i < count; ++i)
                    cpu.pvalidate2m(p + Gpa(i) * kPageSize2m, true);
                p += Gpa(count) * kPageSize2m;
                continue;
            }
            cpu.pvalidate2m(p, true);
            p += kPageSize2m;
            continue;
        }
        if (rmp.isShared(p) || rmp.isValidated(p) || rmp.isVmsaPage(p)) {
            p += kPageSize;
            continue;
        }
        if (lazy && !rmp.isAssigned(p)) {
            // 4 KiB acceptance: one round trip per page (the ablation
            // baseline the grouped huge path amortizes).
            Ghcb g;
            g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
            g.info[0] = p;
            g.info[1] = 0;
            cpu.hypercall(g);
        }
        cpu.pvalidate(p, true);
        p += kPageSize;
    }
}

void
Kernel::bspMain(Vcpu &cpu)
{
    cpu_ = &cpu;
    onlineVcpus_.insert(cpu.vcpuId());

    if (!veil_) {
        // Native CVM: the kernel boots at VMPL-0 and validates its own
        // memory (the baseline boot cost, §9.1).
        validateAllMemoryNative(cpu);
    }

    // Kernel image layout at the base of Dom-UNT memory.
    textLo_ = layout_.kernelBase;
    textHi_ = textLo_ + kKernelTextPages * kPageSize;
    dataLo_ = textHi_;
    dataHi_ = dataLo_ + kKernelDataPages * kPageSize;
    // The VeilOp rings at the top of memory are reserved kernel state,
    // never handed out as frames. The allocator is bottom-up, so
    // lowering its ceiling leaves every address it hands out unchanged.
    frames_ = std::make_unique<FrameAllocator>(dataHi_, layout_.opRingBase);
    // Fleet workers fault, clone and reap on every VCPU's host thread;
    // the single-threaded free list would hand one frame out twice.
    frames_->setMulticore(machine_.multicore());

    // "Load" the kernel text (deterministic synthetic code bytes).
    Rng rng(0x6b65726eULL);
    Bytes text = rng.bytes(kKernelTextPages * kPageSize);
    machine_.memory().write(textLo_, text.data(), text.size());

    // Exported symbols for module relocation (protected table, §6.1).
    kernelSymbols_ = {
        {"printk", textLo_ + 0x200},
        {"kmalloc", textLo_ + 0x340},
        {"kfree", textLo_ + 0x380},
        {"audit_log_end", textLo_ + 0x400},
        {"register_chrdev", textLo_ + 0x500},
    };

    // Install the interrupt handler (LIDT analogue).
    idtHandlerVa_ = textLo_ + 0x100;
    cpu.vmsa().idtHandlerVa = idtHandlerVa_;
    if (opRingOn()) {
        // Timer-tick tail of the interrupt handler: ring the doorbell if
        // the oldest queued op has passed its deadline.
        cpu.vmsa().softTimerHook = [this] { opMaybeDeadlineFlush(); };
    }

    if (veil_) {
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::KciActivate);
        m.args[0] = textLo_;
        m.args[1] = textHi_;
        m.args[2] = dataLo_;
        m.args[3] = dataHi_;
        size_t off = 0;
        for (const auto &[name, addr] : kernelSymbols_) {
            core::KciSymbolEntry e{};
            std::memcpy(e.name, name.data(),
                        std::min(name.size(), sizeof(e.name) - 1));
            e.addr = addr;
            std::memcpy(m.payload + off, &e, sizeof(e));
            off += sizeof(e);
        }
        m.payloadLen = static_cast<uint32_t>(off);
        callService(m);
        ensure(okStatus(m), "Kernel: KCI activation failed");
    }

    booted_ = true;
    conAppend("[kernel] boot complete\n");

    Process &init = makeProcess("init");
    if (init_)
        init_(*this, init);
    terminate(0);
}

Process &
Kernel::makeProcess(const std::string &comm, bool light_as)
{
    auto proc = std::make_unique<Process>();
    proc->pid = nextPid_++;
    proc->comm = comm;
    proc->as = light_as ? std::make_unique<AddressSpace>(machine_, *frames_,
                                                         dataHi_, textLo_)
                        : std::make_unique<AddressSpace>(machine_, *frames_);
    proc->as->guardTables(veil_ ? Vmpl::Vmpl3 : Vmpl::Vmpl0);
    // fds 0/1/2: console.
    for (int i = 0; i < 3; ++i) {
        FdEntry e;
        e.type = FdEntry::Type::Console;
        proc->fds.push_back(e);
    }
    processes_.push_back(std::move(proc));
    return *processes_.back();
}

void
Kernel::reapProcess(Process &proc)
{
    ensure(!proc.enclave || !proc.enclave->alive,
           "reapProcess: enclave still alive");
    // Deferred EncFreePage completions hold a Process pointer; drain
    // them before the process (and its address space) goes away.
    opRingBarrier();
    // Remaining user data frames (the ocall block, plain mmaps — the
    // enclave driver already reclaimed its own).
    for (const auto &[lo, vma] : proc.as->vmas()) {
        for (Gva va = vma.lo; va < vma.hi; va += kPageSize) {
            if (auto pa = proc.as->unmapUser(va))
                frames_->free(*pa);
        }
    }
    for (auto it = processes_.begin(); it != processes_.end(); ++it) {
        if (it->get() == &proc) {
            processes_.erase(it); // ~AddressSpace frees the PT tree
            return;
        }
    }
    ensure(false, "reapProcess: unknown process");
}

void
Kernel::terminate(uint64_t status)
{
    // Drain barrier: no audit record or other deferred VeilOp may be
    // lost across an orderly shutdown (bounds the loss window to crashes).
    opRingBarrier();
    Ghcb g;
    g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
    g.info[0] = status;
    // Sentinel-armed hypercall: a swallowed Terminate relay would leave
    // the CVM neither terminated nor halted; the retry path re-issues
    // it until the hypervisor acts or the halt is attributed.
    osHypercall(g);
}

// ---- Delegation (§5.3) ----

void
Kernel::callMonitor(IdcbMessage &msg)
{
    // Drain barrier: a sync monitor call must not overtake VeilOps
    // already queued in the submission ring (program order = service
    // order, across both IDCBs).
    if (opFlushAllowed())
        opRingFlush(OpFlushTrigger::Barrier);
    ++stats_.monitorCalls;
    if (msg.op < core::kVeilOpCount)
        ++stats_.veilOpCalls[msg.op];
    Vcpu &c = cpu();
    Gpa saved_ghcb = c.vmsa().ghcbGpa;
    Cpl saved_cpl = c.cpl();
    uint8_t saved_busy = idcbBusy_[c.vcpuId()];
    idcbBusy_[c.vcpuId()] = 1;
    c.vmsa().ghcbGpa = layout_.osGhcb(c.vcpuId());
    c.setCpl(Cpl::Supervisor);
    core::idcbCall(c, layout_.osMonIdcb(c.vcpuId()), Vmpl::Vmpl0, msg);
    c.vmsa().ghcbGpa = saved_ghcb;
    c.setCpl(saved_cpl);
    idcbBusy_[c.vcpuId()] = saved_busy;
}

void
Kernel::callService(IdcbMessage &msg)
{
    // Drain barrier: a sync service call must not overtake VeilOps
    // already queued in the submission ring (program order = service
    // order; a LogQuery reply reflects every record produced so far).
    // The doorbell itself is exempt — it *is* the drain.
    bool doorbell = msg.op == static_cast<uint32_t>(VeilOp::OpRingDoorbell);
    if (!doorbell && opFlushAllowed())
        opRingFlush(OpFlushTrigger::Barrier);
    ++stats_.serviceCalls;
    if (msg.op < core::kVeilOpCount)
        ++stats_.veilOpCalls[msg.op];
    Vcpu &c = cpu();
    Gpa saved_ghcb = c.vmsa().ghcbGpa;
    Cpl saved_cpl = c.cpl();
    uint8_t saved_busy = idcbBusy_[c.vcpuId()];
    idcbBusy_[c.vcpuId()] = 1;
    c.vmsa().ghcbGpa = layout_.osGhcb(c.vcpuId());
    c.setCpl(Cpl::Supervisor);
    core::idcbCall(c, layout_.osSrvIdcb(c.vcpuId()), Vmpl::Vmpl1, msg,
                   doorbell ? core::kSwitchHintDoorbell : 0);
    c.vmsa().ghcbGpa = saved_ghcb;
    c.setCpl(saved_cpl);
    idcbBusy_[c.vcpuId()] = saved_busy;
}

void
Kernel::callServiceBatched(IdcbMessage &msg)
{
    if (opSubmit(msg)) {
        // Fire-and-forget: the real status arrives with the completion
        // (a failed deferred op is attributed at harvest).
        msg.status = static_cast<uint64_t>(VeilStatus::Ok);
        return;
    }
    if (opRingOn() && opDeferrable(msg.op))
        ++stats_.opSyncFallbacks;
    callService(msg);
}

bool
Kernel::bootVcpu(uint32_t vcpu)
{
    if (!veil_)
        return false; // native AP boot not modelled
    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::BootVcpu);
    m.args[0] = vcpu;
    callMonitor(m);
    return okStatus(m);
}

void
Kernel::pageStateChange(Gpa page, bool shared)
{
    if (veil_) {
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::PageStateChange);
        m.args[0] = page;
        m.args[1] = shared ? 1 : 0;
        callMonitor(m);
        ensure(okStatus(m), "Kernel: PSC delegation failed");
        return;
    }
    // Native: the VMPL-0 kernel performs PVALIDATE + PSC itself.
    Vcpu &c = cpu();
    Ghcb g;
    g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
    g.info[0] = page;
    g.info[1] = shared ? 1 : 0;
    if (shared) {
        if (machine_.rmp().isValidated(page))
            c.pvalidate(page, false);
        c.hypercall(g);
    } else {
        c.hypercall(g);
        c.pvalidate(page, true);
    }
}

void
Kernel::osHypercall(const Ghcb &g)
{
    Vcpu &c = cpu();
    Gpa saved = c.vmsa().ghcbGpa;
    c.vmsa().ghcbGpa = layout_.osGhcb(c.vcpuId());
    c.hypercall(g);
    c.vmsa().ghcbGpa = saved;
}

// ---- Modules (§6.1) ----

int64_t
Kernel::loadModule(const Bytes &image)
{
    Vcpu &c = cpu();
    c.burn(kModuleLoadKernelWork);

    auto parsed = vkoParse(image);
    if (!parsed)
        return -kEINVAL;
    uint32_t dest_pages = static_cast<uint32_t>(
        pageAlignUp(parsed->installedSize()) / kPageSize);
    if (dest_pages == 0)
        dest_pages = 1;
    Gpa dest = frames_->allocRange(dest_pages);

    Module mod;
    mod.dest = dest;
    mod.destPages = dest_pages;

    if (veil_) {
        // Stage the image in kernel memory for VeilS-KCI.
        uint32_t img_pages =
            static_cast<uint32_t>(pageAlignUp(image.size()) / kPageSize);
        Gpa img = frames_->allocRange(img_pages);
        c.writePhys(img, image.data(), image.size());

        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::KciModuleLoad);
        m.args[0] = img;
        m.args[1] = image.size();
        m.args[2] = dest;
        m.args[3] = dest_pages;
        callService(m);
        for (uint32_t i = 0; i < img_pages; ++i)
            frames_->free(img + Gpa(i) * kPageSize);
        if (!okStatus(m))
            return -kEACCES;
        mod.kciHandle = m.ret[0];
        mod.entry = m.ret[1];
    } else {
        // Native path: kernel-side verification (TOCTOU-exposed, §6.1).
        if (!vkoVerify(image, config_.moduleKey))
            return -kEACCES;
        Bytes text = parsed->text;
        for (const auto &r : parsed->relocs) {
            auto it = kernelSymbols_.find(parsed->symbols[r.symIndex]);
            if (it == kernelSymbols_.end())
                return -kEINVAL;
            uint64_t addr = it->second;
            std::memcpy(text.data() + r.offset, &addr, sizeof(addr));
        }
        c.writePhys(dest, text.data(), text.size());
        if (!parsed->data.empty()) {
            c.writePhys(dest + pageAlignUp(text.size()), parsed->data.data(),
                        parsed->data.size());
        }
        c.burn(1200); // set_memory_ro analogue (PT-based only)
        mod.entry = dest + parsed->header.entryOffset;
    }

    int64_t handle = nextModule_++;
    modules_[handle] = mod;
    ++stats_.modulesLoaded;
    return handle;
}

int64_t
Kernel::unloadModule(int64_t handle)
{
    auto it = modules_.find(handle);
    if (it == modules_.end())
        return -kENOENT;
    Vcpu &c = cpu();
    c.burn(kModuleUnloadKernelWork);
    if (it->second.kciHandle != 0) {
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::KciModuleUnload);
        m.args[0] = it->second.kciHandle;
        callService(m);
        if (!okStatus(m))
            return -kEACCES;
    }
    for (uint32_t i = 0; i < it->second.destPages; ++i)
        frames_->free(it->second.dest + Gpa(i) * kPageSize);
    modules_.erase(it);
    return 0;
}

int64_t
Kernel::invokeModule(int64_t handle)
{
    auto it = modules_.find(handle);
    if (it == modules_.end())
        return -kENOENT;
    Vcpu &c = cpu();
    // Instruction fetch from the module's text (RMP-exec-checked).
    c.checkExec(it->second.entry);
    c.burn(2000);
    conAppend(strfmt("[module %lld] hello from module\n",
                     (long long)handle));
    return 0;
}

Gpa
Kernel::moduleText(int64_t handle) const
{
    auto it = modules_.find(handle);
    return it == modules_.end() ? 0 : it->second.dest;
}

// ---- Enclave driver (§6.2) ----

Gpa
Kernel::enclaveGhcbSetup(Process &proc, Gva gva)
{
    Gpa frame = frames_->alloc();
    pageStateChange(frame, /*shared=*/true);
    proc.as->mapUser(gva, frame, kPROT_READ | kPROT_WRITE);
    // Instruct the hypervisor to only allow UNT<->ENC switches on it.
    Ghcb g;
    g.exitCode = static_cast<uint64_t>(GhcbExit::RestrictGhcb);
    g.info[0] = frame;
    osHypercall(g);
    return frame;
}

void
Kernel::enclaveGhcbRelease(Process &proc, Gva gva, Gpa frame)
{
    proc.as->unmapUser(gva);
    pageStateChange(frame, /*shared=*/false);
    frames_->free(frame);
}

int64_t
Kernel::enclaveCreate(Process &proc, VeilEnclaveCreateArgs &args)
{
    if (!veil_ || proc.enclave)
        return -kEPERM;
    if (!isPageAligned(args.vaLo) || !isPageAligned(args.vaHi) ||
        args.vaLo >= args.vaHi || !isPageAligned(args.ghcbGva) ||
        !isPageAligned(args.ocallGva)) {
        return -kEINVAL;
    }

    Vcpu &c = cpu();
    Gpa ghcb_frame = enclaveGhcbSetup(proc, args.ghcbGva);

    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncCreate);
    m.args[0] = proc.as->cr3();
    m.args[1] = args.vaLo;
    m.args[2] = args.vaHi;
    m.args[3] = ghcb_frame;
    m.args[4] = c.vcpuId();
    m.args[5] = args.programId;
    m.args[6] = args.ocallGva;
    m.args[7] = idtHandlerVa_;
    callService(m);
    if (!okStatus(m)) {
        enclaveGhcbRelease(proc, args.ghcbGva, ghcb_frame);
        return -kEACCES;
    }

    // Creating the Dom-ENC VMSA re-pointed the hypervisor's
    // (vcpu, Vmpl2) slot at the new VMSA (VeilMon registers it), so the
    // scheduler cache no longer matches the registry. Invalidate it:
    // the next prepEnclaveRun re-registers whichever enclave actually
    // gets the VCPU, instead of switching into the stale slot.
    scheduledEnclaveVmsa_[c.vcpuId()] = kInvalidVmsa;

    EnclaveState st;
    st.id = m.ret[0];
    st.vmsa = static_cast<VmsaId>(m.ret[1]);
    st.ghcbGpa = ghcb_frame;
    st.ghcbGva = args.ghcbGva;
    st.ocallGva = args.ocallGva;
    st.lo = args.vaLo;
    st.hi = args.vaHi;
    st.alive = true;
    proc.enclave = st;

    for (auto &[lo, vma] : proc.as->vmas()) {
        if (vma.lo >= args.vaLo && vma.hi <= args.vaHi)
            const_cast<VmArea &>(vma).enclave = true;
    }

    args.enclaveId = st.id;
    args.vmsaId = st.vmsa;
    return 0;
}

int64_t
Kernel::enclaveDestroy(Process &proc)
{
    if (!proc.enclave || !proc.enclave->alive)
        return -kENOENT;
    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncDestroy);
    m.args[0] = proc.enclave->id;
    callService(m);
    if (!okStatus(m))
        return -kEACCES;
    EnclaveState &st = *proc.enclave;
    st.alive = false;
    for (auto &[lo, vma] : proc.as->vmas())
        const_cast<VmArea &>(vma).enclave = false;
    if (st.snapshotId != 0) {
        // Fleet sessions recycle by the thousand: reclaim the OS-side
        // frames (private CoW copies — VeilS-ENC just scrubbed them —
        // and the GHCB) so the fleet's frame budget is a steady state.
        // Classic enclaves keep the historical leak-on-exit behaviour
        // so their cycle-pinned teardown paths stay untouched.
        for (const auto &[va, ref] : st.resident) {
            if (auto leaf = proc.as->userLeaf(va)) {
                proc.as->unmapUser(va);
                frames_->free(*leaf & kPteAddrMask);
            }
        }
        st.resident.clear();
        st.swapStore.clear();
        enclaveGhcbRelease(proc, st.ghcbGva, st.ghcbGpa);
    }
    return 0;
}

int64_t
Kernel::enclaveSnapshot(Process &proc, VeilSnapshotArgs &args)
{
    if (!veil_ || !proc.enclave || !proc.enclave->alive)
        return -kENOENT;
    EnclaveState &st = *proc.enclave;
    if (st.snapshotId != 0)
        return -kEPERM; // clones and sealed sources cannot re-seal
    if (!st.swapStore.empty())
        return -kEAGAIN; // restore evicted pages before sealing
    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncSnapshot);
    m.args[0] = st.id;
    callService(m);
    if (!okStatus(m))
        return -kEACCES;
    // The source is now itself a CoW sharer of the sealed image: its
    // next write to an image page takes the EncCloneFault path.
    st.snapshotId = m.ret[0];
    args.snapshotId = m.ret[0];
    args.pages = m.ret[1];
    return 0;
}

int64_t
Kernel::enclaveClone(Process &proc, VeilCloneArgs &args)
{
    if (!veil_ || proc.enclave)
        return -kEPERM;
    if (!isPageAligned(args.ghcbGva) || args.snapshotId == 0)
        return -kEINVAL;

    Vcpu &c = cpu();
    Gpa ghcb_frame = enclaveGhcbSetup(proc, args.ghcbGva);

    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncClone);
    m.args[0] = args.snapshotId;
    m.args[1] = proc.as->cr3();
    m.args[2] = ghcb_frame;
    m.args[3] = c.vcpuId();
    callService(m);
    if (!okStatus(m)) {
        enclaveGhcbRelease(proc, args.ghcbGva, ghcb_frame);
        return -kEACCES;
    }

    // Same registry/cache coherence rule as enclaveCreate: the clone's
    // fresh VMSA now owns the hypervisor's (vcpu, Vmpl2) slot.
    scheduledEnclaveVmsa_[c.vcpuId()] = kInvalidVmsa;

    EnclaveState st;
    st.id = m.ret[0];
    st.vmsa = static_cast<VmsaId>(m.ret[1]);
    st.lo = m.ret[2];
    st.hi = m.ret[3];
    st.ghcbGpa = ghcb_frame;
    st.ghcbGva = args.ghcbGva;
    st.alive = true;
    st.snapshotId = args.snapshotId;
    proc.enclave = st;

    args.vaLo = st.lo;
    args.vaHi = st.hi;
    args.enclaveId = st.id;
    args.vmsaId = st.vmsa;
    return 0;
}

int64_t
Kernel::enclaveSnapshotRelease(uint64_t snapshot_id)
{
    if (!veil_ || snapshot_id == 0)
        return -kEINVAL;
    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncSnapshotRelease);
    m.args[0] = snapshot_id;
    callService(m);
    return okStatus(m) ? 0 : -kENOENT;
}

int64_t
Kernel::enclaveFreePage(Process &proc, Gva va)
{
    if (!proc.enclave || !proc.enclave->alive)
        return -kENOENT;
    auto leaf = proc.as->userLeaf(va);
    if (!leaf)
        return -kENOENT;
    Gpa pa = *leaf & kPteAddrMask;

    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncFreePage);
    m.args[0] = proc.enclave->id;
    m.args[1] = va;

    // Batched mode: queue the op and defer the swap-out until the
    // completion arrives — VeilS-ENC seals the frame in place, so the
    // frame (and the VA mapping) must stay untouched until then.
    uint32_t seq = 0;
    if (opSubmit(m, &seq)) {
        deferredFreePages_[cpu().vcpuId()].push_back({seq, &proc, va, pa});
        return 0;
    }
    if (opRingOn() && opDeferrable(m.op))
        ++stats_.opSyncFallbacks;

    callService(m);
    if (!okStatus(m))
        return -kEACCES;

    // "Swap out" the (now encrypted) page contents, then reuse the
    // frame. The OS tracks which page backs which enclave VA (§6.2).
    Bytes swapped(kPageSize);
    cpu().readPhys(pa, swapped.data(), swapped.size());
    proc.enclave->swapStore[va] = std::move(swapped);
    proc.as->unmapUser(va);
    proc.enclave->resident.erase(va);
    frames_->free(pa);
    return 0;
}

int64_t
Kernel::enclaveHandleFault(Process &proc, Gva va)
{
    if (!proc.enclave || !proc.enclave->alive)
        return -kENOENT;
    ++stats_.enclaveFaults;
    va = pageAlignDown(va);
    EnclaveState &st = *proc.enclave;

    // The fault handler runs in ring 0 (trap entry).
    Vcpu &c = cpu();
    Cpl saved_cpl = c.cpl();
    c.setCpl(Cpl::Supervisor);
    struct CplRestore
    {
        Vcpu &c;
        Cpl saved;
        ~CplRestore() { c.setCpl(saved); }
    } restore{c, saved_cpl};

    auto swap_it = st.swapStore.find(va);
    if (swap_it != st.swapStore.end()) {
        // Demand paging: fetch from "disk", let VeilS-ENC verify+remap.
        Gpa frame = frames_->alloc();
        cpu().writePhys(frame, swap_it->second.data(),
                        swap_it->second.size());
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::EncRestorePage);
        m.args[0] = st.id;
        m.args[1] = va;
        m.args[2] = frame;
        callService(m);
        if (!okStatus(m)) {
            frames_->free(frame);
            return -kEACCES;
        }
        proc.as->mapUser(va, frame, kPROT_READ | kPROT_WRITE);
        st.swapStore.erase(swap_it);
        st.resident[va] = 1;
        return 0;
    }

    // Lazily-synchronized non-enclave mapping (e.g. fresh mmap).
    if (va < st.lo || va >= st.hi) {
        VmArea *vma = proc.as->findVma(va);
        if (!vma)
            return -kEFAULT;
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::EncSyncPerms);
        m.args[0] = st.id;
        m.args[1] = va;
        m.args[2] = kPageSize;
        m.args[3] = (vma->prot & kPROT_WRITE ? 1 : 0) |
                    (vma->prot & kPROT_EXEC ? 2 : 0);
        callService(m);
        return okStatus(m) ? 0 : -kEACCES;
    }

    if (st.snapshotId != 0) {
        // CoW break (§13): a clone (or sealed source) wrote a shared
        // template page. Hand VeilS-ENC a fresh frame; it copies the
        // contents and remaps the page privately with write restored.
        Gpa frame = frames_->alloc();
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::EncCloneFault);
        m.args[0] = st.id;
        m.args[1] = va;
        m.args[2] = frame;
        callService(m);
        if (!okStatus(m)) {
            frames_->free(frame);
            return -kEACCES;
        }
        proc.as->mapUser(va, frame, kPROT_READ | kPROT_WRITE);
        st.resident[va] = 1;
        return 0;
    }
    return -kEFAULT;
}

void
Kernel::prepEnclaveRun(Process &proc)
{
    ensure(proc.enclave && proc.enclave->alive, "prepEnclaveRun: no enclave");
    // Drain barrier: records describing pre-enclave activity must be
    // protected before control enters the (mutually distrusting)
    // enclave, mirroring execute-ahead ordering at this boundary, and
    // queued EncFreePage/EncSyncPerms must take effect before the
    // enclave can observe (or touch) the affected pages.
    opRingBarrier();
    Vcpu &c = cpu();
    // Scheduler hook (§6.2): when a different enclave gets the VCPU,
    // point the hypervisor's Dom-ENC slot at its VMSA.
    if (scheduledEnclaveVmsa_[c.vcpuId()] != proc.enclave->vmsa) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::RegisterVmsa);
        g.info[1] = c.vcpuId();
        g.info[2] = static_cast<uint64_t>(Vmpl::Vmpl2);
        g.info[3] = proc.enclave->vmsa;
        osHypercall(g);
        scheduledEnclaveVmsa_[c.vcpuId()] = proc.enclave->vmsa;
    }
    // Select the user-mapped GHCB and drop to user.
    c.vmsa().ghcbGpa = proc.enclave->ghcbGpa;
    c.setCr3(proc.as->cr3());
    c.setCpl(Cpl::User);
    inEnclaveSession_[c.vcpuId()] = 1;
    c.burn(600);
}

void
Kernel::finishEnclaveRun(Process &proc)
{
    Vcpu &c = cpu();
    c.vmsa().ghcbGpa = layout_.osGhcb(c.vcpuId());
    c.setCpl(Cpl::Supervisor);
    c.setCr3(0);
    inEnclaveSession_[c.vcpuId()] = 0;
    c.burn(400);
}

// ---- Audit (§6.3) ----

void
Kernel::auditHook(Process &proc, uint32_t no, const uint64_t args[6])
{
    if (audit_.backend() == AuditBackend::None || !proc.audited ||
        !audit_.audited(no)) {
        return;
    }
    Vcpu &c = cpu();
    uint64_t seq = audit_.nextSeq();
    std::string rec =
        audit_.format(proc.pid, proc.comm, no, args, c.rdtsc(), seq);
    c.burn(kAuditFormatCycles);

    switch (audit_.backend()) {
      case AuditBackend::KauditInMemory:
        audit_.kauditAppend(rec);
        c.burn(kKauditAppendCycles);
        break;
      case AuditBackend::VeilLog:
      case AuditBackend::VeilLogBatched: {
        // Execute-ahead: protect the record before the event runs. The
        // op ring (VeilLogBatched, or service batching) queues it as a
        // LogAppend slot instead (weaker — see §11 mode legality); a
        // record the ring cannot take goes sync, never dropped.
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::LogAppend);
        size_t len = std::min(rec.size(), core::kIdcbPayloadMax);
        if (len < rec.size()) {
            ++stats_.auditTruncations;
            machine_.tracer().instant(trace::Category::AuditTruncate,
                                      rec.size());
        }
        std::memcpy(m.payload, rec.data(), len);
        m.payloadLen = static_cast<uint32_t>(len);
        callServiceBatched(m);
        break;
      }
      case AuditBackend::None:
        break;
    }
    ++stats_.auditRecords;
}

// ---- Batched VeilOp submission (exit-less service calls, §11) ----

bool
Kernel::opRingOn() const
{
    return veil_ &&
           (config_.serviceBatching ||
            audit_.backend() == AuditBackend::VeilLogBatched);
}

bool
Kernel::opDeferrable(uint32_t op) const
{
    // Fire-and-forget ops whose results no call site consumes inline.
    // Batched audit alone queues only its LogAppend records.
    switch (static_cast<VeilOp>(op)) {
      case VeilOp::LogAppend:
        return true;
      case VeilOp::EncSyncPerms:
      case VeilOp::EncFreePage:
        return config_.serviceBatching;
      default:
        return false;
    }
}

bool
Kernel::opFlushAllowed() const
{
    // No nested IDCB call while one is in flight on this VCPU, and none
    // from an enclave session: ocall context holds the enclave's
    // GHCB/cr3, and an EncSyncPerms/EncFreePage deferred there would let
    // the enclave touch not-yet-revoked frames.
    Vcpu *c = curCpu();
    if (!booted_ || c == nullptr)
        return false;
    uint32_t v = c->vcpuId();
    return !idcbBusy_[v] && !inEnclaveSession_[v];
}

uint64_t
Kernel::opRingPending(uint32_t vcpu) const
{
    ensure(vcpu < opRings_.size(), "opRingPending: bad vcpu");
    return opRings_[vcpu].pending;
}

bool
Kernel::opSubmit(const IdcbMessage &msg, uint32_t *seq_out)
{
    if (!opRingOn() || !opFlushAllowed() || !opDeferrable(msg.op))
        return false;
    if (msg.payloadLen > core::kOpPayloadMax)
        return false; // oversized: sync path keeps the 2 KB transport
    Vcpu &c = cpu();
    OpRingState &ring = opRings_[c.vcpuId()];
    Gpa sub = layout_.opSubRing(c.vcpuId());

    if (!ring.initialized) {
        core::RingHeader h;
        h.capacity = core::kOpRingSlots;
        c.writePhys(sub, &h, sizeof(h));
        core::RingHeader ch;
        ch.capacity = core::kOpCplSlots;
        c.writePhys(layout_.opCplRing(c.vcpuId()), &ch, sizeof(ch));
        ring.initialized = true;
    }

    // Size trigger first: make room before this op queues. A full ring
    // forces the same flush even when the configured batch size exceeds
    // the ring capacity.
    if (ring.pending >= config_.opBatchSize ||
        ring.pending >= core::kOpRingSlots) {
        opRingFlush(OpFlushTrigger::Size);
    }
    if (ring.pending >= core::kOpRingSlots)
        return false; // still full: backpressure falls back to sync

    // Marshal the slot header and only the payload bytes in use.
    core::VeilOpSlot slot;
    slot.op = msg.op;
    slot.seq = static_cast<uint32_t>(ring.submitted);
    static_assert(sizeof(slot.args) == sizeof(msg.args));
    std::memcpy(slot.args, msg.args, sizeof(slot.args));
    slot.payloadLen = msg.payloadLen;
    std::memcpy(slot.payload, msg.payload, msg.payloadLen);
    Gpa sp = core::ringSlot(sub, core::kOpSlotBytes, core::kOpRingSlots,
                            ring.head);
    c.writePhys(sp, &slot, offsetof(core::VeilOpSlot, payload) +
                               slot.payloadLen);
    ++ring.head;
    ++ring.submitted;
    if (ring.pending++ == 0)
        ring.oldestTsc = c.rdtsc();
    c.writePhys(sub + offsetof(core::RingHeader, head), &ring.head,
                sizeof(ring.head));
    c.burn(kOpAppendCycles);

    ++stats_.opSubmitted;
    if (msg.op < core::kVeilOpCount)
        ++stats_.veilOpCalls[msg.op];
    stats_.opMaxDepth = std::max<uint64_t>(stats_.opMaxDepth, ring.pending);
    if (seq_out)
        *seq_out = slot.seq;
    return true;
}

void
Kernel::opRingFlush(OpFlushTrigger trigger)
{
    Vcpu &c = cpu();
    OpRingState &ring = opRings_[c.vcpuId()];
    if (ring.pending == 0)
        return;
    ensure(opFlushAllowed(), "opRingFlush: flush not allowed here");

    trace::SpanScope span(machine_.tracer(), trace::Category::RingFlush,
                          ring.pending);
    // The dispatcher advances the shared submission tail op by op as it
    // drains, so a re-rung doorbell after a partial drain (completion
    // backpressure) re-offers only what is still queued. A doorbell
    // that cannot empty the ring within the budget halts with
    // attribution rather than silently shedding deferred ops.
    constexpr int kDoorbellRetryMax = 3;
    for (int attempt = 0;; ++attempt) {
        uint64_t audit0 = stats_.auditFlushedRecords;
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::OpRingDoorbell);
        callService(m);
        ++stats_.opDoorbells;
        // The shared submission tail is the ground truth for what was
        // consumed — immune to stale local state after chaos-duplicated
        // drains.
        core::RingHeader h;
        c.readPhys(layout_.opSubRing(c.vcpuId()), &h, sizeof(h));
        ring.pending = ring.head - std::min(h.tail, ring.head);
        opHarvestCompletions();
        if (stats_.auditFlushedRecords != audit0)
            ++stats_.auditBatchFlushes;
        if (okStatus(m) && ring.pending == 0)
            break;
        if (attempt >= kDoorbellRetryMax) {
            throw snp::CvmHaltFault(
                "opRingFlush: doorbell starved beyond the retry budget");
        }
        ++stats_.opDoorbellRetries;
        c.burn(2'000 << attempt);
    }

    switch (trigger) {
      case OpFlushTrigger::Size: ++stats_.opFlushSize; break;
      case OpFlushTrigger::Deadline: ++stats_.opFlushDeadline; break;
      case OpFlushTrigger::Barrier: ++stats_.opFlushBarrier; break;
    }
    ring.oldestTsc = 0;
}

void
Kernel::opHarvestCompletions()
{
    Vcpu &c = cpu();
    OpRingState &ring = opRings_[c.vcpuId()];
    if (!ring.initialized)
        return;
    Gpa cplr = layout_.opCplRing(c.vcpuId());
    core::RingHeader h;
    c.readPhys(cplr, &h, sizeof(h));
    // The completion producer is trusted Dom-SRV, but the index is
    // still validated (VeilChaos exercises stale/duplicated views):
    // completions never outrun submissions, never run backwards, and
    // never lead the consumer by more than the ring capacity. An
    // inconsistent view is counted and skipped; the flush retry loop
    // re-reads it, and a persistent one surfaces as a starved doorbell.
    if (h.head < ring.harvested || h.head > ring.submitted ||
        h.head - ring.harvested > core::kOpCplSlots) {
        ++stats_.opCplResyncs;
        return;
    }
    while (ring.harvested < h.head) {
        core::VeilOpCompletion cpl;
        c.readPhys(core::ringSlot(cplr, core::kOpCplSlotBytes,
                                  core::kOpCplSlots, ring.harvested),
                   &cpl, sizeof(cpl));
        ++ring.harvested;
        ++stats_.opCompletions;
        opCompletionArrived(cpl);
    }
    c.writePhys(cplr + offsetof(core::RingHeader, tail), &ring.harvested,
                sizeof(ring.harvested));
}

void
Kernel::opCompletionArrived(const core::VeilOpCompletion &cpl)
{
    bool ok = cpl.status == static_cast<uint64_t>(VeilStatus::Ok);
    if (!ok)
        ++stats_.opCplErrors;
    if (cpl.op == static_cast<uint32_t>(VeilOp::LogAppend))
        ++stats_.auditFlushedRecords;

    // Deferred EncFreePage: the frame now holds the sealed page image;
    // run the swap-out post-processing the sync path does inline.
    auto &dfp = deferredFreePages_[cpu().vcpuId()];
    for (auto it = dfp.begin(); it != dfp.end(); ++it) {
        if (it->seq != cpl.seq)
            continue;
        if (!ok) {
            throw snp::CvmHaltFault(
                "deferred EncFreePage refused by VeilS-ENC after its "
                "caller already observed success");
        }
        Process *p = it->proc;
        ensure(p->enclave.has_value(), "op completion: enclave vanished");
        Bytes swapped(kPageSize);
        cpu().readPhys(it->pa, swapped.data(), swapped.size());
        p->enclave->swapStore[it->va] = std::move(swapped);
        p->as->unmapUser(it->va);
        p->enclave->resident.erase(it->va);
        frames_->free(it->pa);
        dfp.erase(it);
        return;
    }
}

void
Kernel::opMaybeDeadlineFlush()
{
    Vcpu *c = curCpu();
    if (!opFlushAllowed() || c == nullptr)
        return;
    OpRingState &ring = opRings_[c->vcpuId()];
    if (ring.pending == 0)
        return;
    if (c->rdtsc() - ring.oldestTsc < config_.opFlushDeadlineCycles)
        return;
    opRingFlush(OpFlushTrigger::Deadline);
}

void
Kernel::opRingBarrier()
{
    Vcpu *c = curCpu();
    if (!opRingOn() || c == nullptr)
        return;
    opRingFlush(OpFlushTrigger::Barrier);
    if (!deferredFreePages_[c->vcpuId()].empty()) {
        // A resync skipped a harvest round; collect the completions now.
        opHarvestCompletions();
    }
    ensure(deferredFreePages_[c->vcpuId()].empty(),
           "opRingBarrier: deferred EncFreePage without a completion");
}

// ---- Syscalls ----

int64_t
Kernel::syscall(Process &proc, uint32_t no, const uint64_t args[6])
{
    Vcpu &c = cpu();
    trace::SpanScope span(c.machine().tracer(), trace::Category::Syscall,
                          no);
    ++stats_.syscalls;
    ++proc.syscalls;

    // Trap into ring 0 on the process address space.
    Cpl saved_cpl = c.cpl();
    Gpa saved_cr3 = c.vmsa().cr3;
    c.setCpl(Cpl::Supervisor);
    c.setCr3(proc.as->cr3());
    c.burn(kSyscallEntryCycles);

    auditHook(proc, no, args);

    int64_t ret;
    switch (no) {
      case kSysRead:
        ret = sysRead(proc, int(args[0]), args[1], args[2], std::nullopt);
        break;
      case kSysWrite:
        ret = sysWrite(proc, int(args[0]), args[1], args[2], std::nullopt);
        break;
      case kSysPread64:
        ret = sysRead(proc, int(args[0]), args[1], args[2], args[3]);
        break;
      case kSysPwrite64:
        ret = sysWrite(proc, int(args[0]), args[1], args[2], args[3]);
        break;
      case kSysOpen:
        ret = sysOpen(proc, args[0], int(args[1]));
        break;
      case kSysCreat:
        ret = sysOpen(proc, args[0], kO_CREAT | kO_TRUNC | kO_WRONLY);
        break;
      case kSysClose:
        ret = sysClose(proc, int(args[0]));
        break;
      case kSysStat:
        ret = sysStat(proc, args[0], args[1]);
        break;
      case kSysFstat:
        ret = sysFstat(proc, int(args[0]), args[1]);
        break;
      case kSysPoll: {
          // Readiness probe for one socket fd (epoll_wait-class cost).
          c.burn(700);
          FdEntry *e = proc.fd(int(args[0]));
          if (!e || e->type != FdEntry::Type::Socket) {
              ret = -kEBADF;
          } else {
              Socket &s = net_.sock(e->sock);
              ret = (!s.backlog.empty() || !s.rx.empty() || s.peerClosed)
                        ? 1
                        : 0;
          }
          break;
      }
      case kSysLseek:
        ret = sysLseek(proc, int(args[0]), int64_t(args[1]), int(args[2]));
        break;
      case kSysMmap:
        ret = sysMmap(proc, args[0], args[1], int(args[2]), int(args[3]),
                      int(int64_t(args[4])));
        break;
      case kSysMprotect:
        ret = sysMprotect(proc, args[0], args[1], int(args[2]));
        break;
      case kSysMunmap:
        ret = sysMunmap(proc, args[0], args[1]);
        break;
      case kSysIoctl:
        ret = sysIoctl(proc, int(args[0]), args[1], args[2]);
        break;
      case kSysDup: {
          c.burn(350);
          FdEntry *e = proc.fd(int(args[0]));
          if (!e) {
              ret = -kEBADF;
          } else {
              // Copy first: allocFd may grow proc.fds and invalidate e.
              FdEntry entry = *e;
              int nfd = proc.allocFd();
              if (nfd < 0) {
                  ret = -kEMFILE;
              } else {
                  proc.fds[nfd] = entry;
                  ret = nfd;
              }
          }
          break;
      }
      case kSysGetpid:
        c.burn(50);
        ret = proc.pid;
        break;
      case kSysSocket:
        ret = sysSocket(proc, int(args[0]), int(args[1]));
        break;
      case kSysConnect:
        ret = sysConnect(proc, int(args[0]), args[1]);
        break;
      case kSysAccept:
        ret = sysAccept(proc, int(args[0]));
        break;
      case kSysSendto:
        ret = sysSendto(proc, int(args[0]), args[1], args[2]);
        break;
      case kSysRecvfrom:
        ret = sysRecvfrom(proc, int(args[0]), args[1], args[2]);
        break;
      case kSysBind:
        ret = sysBind(proc, int(args[0]), args[1]);
        break;
      case kSysListen:
        ret = sysListen(proc, int(args[0]), int(args[1]));
        break;
      case kSysFsync:
        c.burn(4650);
        ret = proc.fd(int(args[0])) ? 0 : -kEBADF;
        break;
      case kSysFtruncate:
        ret = sysFtruncate(proc, int(args[0]), args[1]);
        break;
      case kSysRename:
        ret = sysRename(proc, args[0], args[1]);
        break;
      case kSysMkdir:
        ret = sysMkdir(proc, args[0]);
        break;
      case kSysUnlink:
        ret = sysUnlink(proc, args[0]);
        break;
      case kSysClockGettime:
        ret = sysClockGettime(proc, args[1]);
        break;
      default:
        ret = -kENOSYS;
        break;
    }

    c.setCpl(saved_cpl);
    c.setCr3(saved_cr3);
    if (tamper_)
        ret = tamper_(no, ret);
    return ret;
}

int64_t
Kernel::sysOpen(Process &p, Gva path_gva, int flags)
{
    Vcpu &c = cpu();
    c.burn(3750);
    std::string path = c.readCStr(path_gva, 512);
    auto ino = fs_.resolve(path);
    if (!ino) {
        if (!(flags & kO_CREAT))
            return -kENOENT;
        auto parent = fs_.resolveParent(path);
        if (!parent)
            return -kENOENT;
        ino = fs_.createFile(parent->first, parent->second);
        if (!ino)
            return -kENOENT;
    } else if (flags & kO_TRUNC) {
        Inode &n = fs_.inode(*ino);
        if (n.dir)
            return -kEISDIR;
        n.data.clear();
    }
    if (fs_.inode(*ino).dir && (flags & (kO_WRONLY | kO_RDWR)))
        return -kEISDIR;
    int fd = p.allocFd();
    if (fd < 0)
        return -kEMFILE;
    FdEntry e;
    e.type = FdEntry::Type::File;
    e.ino = *ino;
    e.flags = flags;
    e.offset = (flags & kO_APPEND) ? fs_.inode(*ino).data.size() : 0;
    p.fds[fd] = e;
    return fd;
}

int64_t
Kernel::sysClose(Process &p, int fd)
{
    cpu().burn(550);
    FdEntry *e = p.fd(fd);
    if (!e)
        return -kEBADF;
    if (e->type == FdEntry::Type::Socket)
        net_.close(e->sock);
    e->type = FdEntry::Type::Free;
    return 0;
}

int64_t
Kernel::sysRead(Process &p, int fd, Gva buf, uint64_t len,
                std::optional<uint64_t> at)
{
    Vcpu &c = cpu();
    c.burn(3650);
    FdEntry *e = p.fd(fd);
    if (!e)
        return -kEBADF;
    if (e->type == FdEntry::Type::Socket)
        return sysRecvfrom(p, fd, buf, len);
    if (e->type != FdEntry::Type::File)
        return -kEINVAL;
    Inode &n = fs_.inode(e->ino);
    if (n.dir)
        return -kEISDIR;
    uint64_t off = at.value_or(e->offset);
    if (off >= n.data.size())
        return 0;
    uint64_t take = std::min<uint64_t>(len, n.data.size() - off);
    c.write(buf, n.data.data() + off, take);
    if (!at)
        e->offset = off + take;
    return static_cast<int64_t>(take);
}

int64_t
Kernel::sysWrite(Process &p, int fd, Gva buf, uint64_t len,
                 std::optional<uint64_t> at)
{
    Vcpu &c = cpu();
    FdEntry *e = p.fd(fd);
    if (!e)
        return -kEBADF;
    if (e->type == FdEntry::Type::Console) {
        c.burn(2350);
        std::string text(len, '\0');
        c.read(buf, text.data(), len);
        if (console_.size() < (1u << 20))
            conAppend(text);
        return static_cast<int64_t>(len);
    }
    if (e->type == FdEntry::Type::Socket)
        return sysSendto(p, fd, buf, len);
    if (e->type != FdEntry::Type::File)
        return -kEINVAL;
    c.burn(3850);
    Inode &n = fs_.inode(e->ino);
    if (n.dir)
        return -kEISDIR;
    uint64_t off = at.value_or(e->offset);
    if (n.data.size() < off + len)
        n.data.resize(off + len);
    c.read(buf, n.data.data() + off, len);
    if (!at)
        e->offset = off + len;
    return static_cast<int64_t>(len);
}

int64_t
Kernel::sysLseek(Process &p, int fd, int64_t off, int whence)
{
    cpu().burn(350);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::File)
        return -kEBADF;
    Inode &n = fs_.inode(e->ino);
    int64_t base = 0;
    switch (whence) {
      case kSeekSet:
        base = 0;
        break;
      case kSeekCur:
        base = static_cast<int64_t>(e->offset);
        break;
      case kSeekEnd:
        base = static_cast<int64_t>(n.data.size());
        break;
      default:
        return -kEINVAL;
    }
    int64_t pos = base + off;
    if (pos < 0)
        return -kEINVAL;
    e->offset = static_cast<uint64_t>(pos);
    return pos;
}

int64_t
Kernel::sysStat(Process &p, Gva path_gva, Gva out)
{
    Vcpu &c = cpu();
    c.burn(2150);
    std::string path = c.readCStr(path_gva, 512);
    auto ino = fs_.resolve(path);
    if (!ino)
        return -kENOENT;
    const Inode &n = fs_.inode(*ino);
    Stat st;
    st.ino = n.ino;
    st.size = n.data.size();
    st.isDir = n.dir;
    st.mode = n.dir ? 040755 : 0100644;
    c.writeObj(out, st);
    return 0;
}

int64_t
Kernel::sysFstat(Process &p, int fd, Gva out)
{
    Vcpu &c = cpu();
    c.burn(550);
    FdEntry *e = p.fd(fd);
    if (!e)
        return -kEBADF;
    Stat st;
    if (e->type == FdEntry::Type::File) {
        const Inode &n = fs_.inode(e->ino);
        st.ino = n.ino;
        st.size = n.data.size();
        st.isDir = n.dir;
        st.mode = n.dir ? 040755 : 0100644;
    } else {
        st.mode = 020666; // character device-ish
    }
    c.writeObj(out, st);
    return 0;
}

int64_t
Kernel::sysMmap(Process &p, Gva addr, uint64_t len, int prot, int flags,
                int fd)
{
    Vcpu &c = cpu();
    c.burn(4500);
    if (!(flags & kMAP_ANONYMOUS) || fd != -1)
        return -kEINVAL; // file-backed mmap unsupported (musl-style)
    if (len == 0)
        return -kEINVAL;
    size_t pages = pageAlignUp(len) / kPageSize;
    Gva va;
    if (flags & kMAP_FIXED) {
        if (!isPageAligned(addr) || addr < core::kUserVaLo ||
            addr + pages * kPageSize > core::kUserVaHi) {
            return -kEINVAL;
        }
        // Enclave regions are pinned until destroy (same rule as
        // munmap); everything else is replaced below.
        for (size_t i = 0; i < pages; ++i) {
            VmArea *old = p.as->findVma(addr + i * kPageSize);
            if (old && old->enclave)
                return -kEINVAL;
        }
        va = addr;
    } else {
        va = p.as->allocUserRange(pages);
    }
    for (size_t i = 0; i < pages; ++i) {
        // MAP_FIXED atomically replaces an existing *user* mapping; the
        // old frame goes back to the allocator instead of leaking. The
        // user-bit check matters: in a full address space the
        // supervisor identity map aliases these GVAs, and tearing out
        // an identity PTE would free a frame the allocator never owned.
        if (auto old = p.as->userLeaf(va + i * kPageSize)) {
            if (*old & snp::PteUser) {
                p.as->unmapUser(va + i * kPageSize);
                frames_->free(*old & snp::kPteAddrMask);
            }
        }
        Gpa frame = frames_->alloc();
        // Zero-fill is a private (C-bit) store: a frame the host flipped
        // to shared faults here (#NPF) instead of reaching VeilS-ENC as
        // an unusable enclave frame that fails EncCreate unattributed.
        c.checkRmp(frame, kPageSize, Access::Write);
        machine_.memory().zeroPage(frame);
        c.burn(kPageZeroCycles);
        p.as->mapUser(va + i * kPageSize, frame, prot);
    }
    VmArea vma;
    vma.lo = va;
    vma.hi = va + pages * kPageSize;
    vma.prot = prot;
    p.as->addVma(vma);
    // Note: new mappings reach a live enclave's cloned tables lazily,
    // on its first (faulting) access (§6.2).
    return static_cast<int64_t>(va);
}

int64_t
Kernel::sysMunmap(Process &p, Gva addr, uint64_t len)
{
    Vcpu &c = cpu();
    c.burn(3000);
    if (!isPageAligned(addr) || len == 0)
        return -kEINVAL;
    Gva hi = addr + pageAlignUp(len);
    VmArea *vma = p.as->findVma(addr);
    if (!vma || vma->hi < hi)
        return -kEINVAL;
    if (vma->enclave)
        return -kEINVAL; // enclave regions are pinned until destroy
    for (Gva va = addr; va < hi; va += kPageSize) {
        auto frame = p.as->unmapUser(va);
        if (frame)
            frames_->free(*frame);
        c.burn(kPageUnmapCycles);
    }
    if (vma->lo == addr && vma->hi == hi) {
        p.as->removeVma(vma->lo);
    } else if (vma->lo == addr) {
        VmArea rest = *vma;
        p.as->removeVma(vma->lo);
        rest.lo = hi;
        p.as->addVma(rest);
    } else {
        // A hole in the middle keeps the tail as its own VMA, so a
        // later mmap can never be handed VAs that are still mapped.
        VmArea rest = *vma;
        rest.lo = hi;
        vma->hi = addr;
        if (rest.lo < rest.hi)
            p.as->addVma(rest);
    }
    // Eagerly drop the range from a live enclave's cloned tables so the
    // enclave can never touch recycled frames (§6.2 synchronization).
    if (p.enclave && p.enclave->alive) {
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::EncSyncPerms);
        m.args[0] = p.enclave->id;
        m.args[1] = addr;
        m.args[2] = hi - addr;
        m.args[3] = 0x80; // unmap
        // Deferrable: the enclave cannot run before prepEnclaveRun's
        // op-ring barrier drains this unmap.
        callServiceBatched(m);
    }
    return 0;
}

int64_t
Kernel::sysMprotect(Process &p, Gva addr, uint64_t len, int prot)
{
    Vcpu &c = cpu();
    c.burn(2650);
    if (!isPageAligned(addr) || len == 0)
        return -kEINVAL;
    Gva hi = addr + pageAlignUp(len);
    VmArea *vma = p.as->findVma(addr);
    if (!vma || vma->hi < hi)
        return -kEINVAL;
    if (vma->enclave) {
        // Enclave-region permission changes are mediated by VeilS-ENC
        // (§6.2): requests originate from the enclave (via its GHCB /
        // ocall path) and the service bounds them to the enclave range.
        if (!inEnclaveSession_[cpu().vcpuId()])
            return -kEACCES; // the OS itself may not touch enclave perms
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::EncMprotect);
        m.args[0] = p.enclave->id;
        m.args[1] = addr;
        m.args[2] = hi - addr;
        m.args[3] = (prot & kPROT_WRITE ? 1 : 0) | (prot & kPROT_EXEC ? 2 : 0);
        callService(m);
        return okStatus(m) ? 0 : -kEACCES;
    }
    for (Gva va = addr; va < hi; va += kPageSize)
        p.as->protectUser(va, prot);
    vma->prot = prot;
    if (p.enclave && p.enclave->alive) {
        IdcbMessage m;
        m.op = static_cast<uint32_t>(VeilOp::EncSyncPerms);
        m.args[0] = p.enclave->id;
        m.args[1] = addr;
        m.args[2] = hi - addr;
        m.args[3] = (prot & kPROT_WRITE ? 1 : 0) | (prot & kPROT_EXEC ? 2 : 0);
        callServiceBatched(m);
    }
    return 0;
}

int64_t
Kernel::sysSocket(Process &p, int family, int type)
{
    cpu().burn(2300);
    if (family != kAF_INET || type != kSOCK_STREAM)
        return -kEINVAL;
    int fd = p.allocFd();
    if (fd < 0)
        return -kEMFILE;
    FdEntry e;
    e.type = FdEntry::Type::Socket;
    e.sock = net_.create();
    p.fds[fd] = e;
    return fd;
}

int64_t
Kernel::sysBind(Process &p, int fd, Gva addr_gva)
{
    Vcpu &c = cpu();
    c.burn(1450);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::Socket)
        return -kENOTSOCK;
    SockAddrIn sa = c.readObj<SockAddrIn>(addr_gva);
    if (sa.family != kAF_INET)
        return -kEINVAL;
    return net_.bind(e->sock, sa.port);
}

int64_t
Kernel::sysListen(Process &p, int fd, int backlog)
{
    cpu().burn(1150);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::Socket)
        return -kENOTSOCK;
    return net_.listen(e->sock, backlog);
}

int64_t
Kernel::sysConnect(Process &p, int fd, Gva addr_gva)
{
    Vcpu &c = cpu();
    c.burn(3150);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::Socket)
        return -kENOTSOCK;
    SockAddrIn sa = c.readObj<SockAddrIn>(addr_gva);
    return net_.connect(e->sock, sa.port);
}

int64_t
Kernel::sysAccept(Process &p, int fd)
{
    cpu().burn(2850);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::Socket)
        return -kENOTSOCK;
    int64_t conn = net_.accept(e->sock);
    if (conn < 0)
        return conn;
    int nfd = p.allocFd();
    if (nfd < 0)
        return -kEMFILE;
    FdEntry ne;
    ne.type = FdEntry::Type::Socket;
    ne.sock = conn;
    p.fds[nfd] = ne;
    return nfd;
}

int64_t
Kernel::sysSendto(Process &p, int fd, Gva buf, uint64_t len)
{
    Vcpu &c = cpu();
    c.burn(2550);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::Socket)
        return -kENOTSOCK;
    std::vector<uint8_t> data(len);
    c.read(buf, data.data(), len);
    return net_.send(e->sock, data.data(), data.size());
}

int64_t
Kernel::sysRecvfrom(Process &p, int fd, Gva buf, uint64_t len)
{
    Vcpu &c = cpu();
    c.burn(2250);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::Socket)
        return -kENOTSOCK;
    // Most calls find nothing queued (-EAGAIN): size the bounce buffer
    // to what can actually arrive, not to the caller's buffer.
    std::vector<uint8_t> data(std::min<uint64_t>(len, net_.pending(e->sock)));
    int64_t got = net_.recv(e->sock, data.data(), data.size());
    if (got > 0)
        c.write(buf, data.data(), static_cast<size_t>(got));
    return got;
}

int64_t
Kernel::sysIoctl(Process &p, int fd, uint64_t cmd, Gva arg)
{
    Vcpu &c = cpu();
    c.burn(2650);
    switch (cmd) {
      case kVeilIocEnclaveCreate: {
          VeilEnclaveCreateArgs a = c.readObj<VeilEnclaveCreateArgs>(arg);
          int64_t ret = enclaveCreate(p, a);
          if (ret == 0)
              c.writeObj(arg, a);
          return ret;
      }
      case kVeilIocEnclaveDestroy:
        return enclaveDestroy(p);
      case kVeilIocEnclaveSnapshot: {
          VeilSnapshotArgs a = c.readObj<VeilSnapshotArgs>(arg);
          int64_t ret = enclaveSnapshot(p, a);
          if (ret == 0)
              c.writeObj(arg, a);
          return ret;
      }
      case kVeilIocEnclaveClone: {
          VeilCloneArgs a = c.readObj<VeilCloneArgs>(arg);
          int64_t ret = enclaveClone(p, a);
          if (ret == 0)
              c.writeObj(arg, a);
          return ret;
      }
      case kVeilIocSnapshotRelease:
        return enclaveSnapshotRelease(c.readObj<uint64_t>(arg));
      default:
        return -kENOSYS;
    }
}

int64_t
Kernel::sysUnlink(Process &p, Gva path_gva)
{
    Vcpu &c = cpu();
    c.burn(2050);
    std::string path = c.readCStr(path_gva, 512);
    auto parent = fs_.resolveParent(path);
    if (!parent)
        return -kENOENT;
    return fs_.remove(parent->first, parent->second) ? 0 : -kENOENT;
}

int64_t
Kernel::sysRename(Process &p, Gva oldp, Gva newp)
{
    Vcpu &c = cpu();
    c.burn(2250);
    std::string from = c.readCStr(oldp, 512);
    std::string to = c.readCStr(newp, 512);
    auto op = fs_.resolveParent(from);
    auto np = fs_.resolveParent(to);
    if (!op || !np)
        return -kENOENT;
    return fs_.rename(op->first, op->second, np->first, np->second)
               ? 0
               : -kENOENT;
}

int64_t
Kernel::sysMkdir(Process &p, Gva path_gva)
{
    Vcpu &c = cpu();
    c.burn(2450);
    std::string path = c.readCStr(path_gva, 512);
    auto parent = fs_.resolveParent(path);
    if (!parent)
        return -kENOENT;
    return fs_.createDir(parent->first, parent->second) ? 0 : -kEEXIST;
}

int64_t
Kernel::sysFtruncate(Process &p, int fd, uint64_t len)
{
    cpu().burn(1650);
    FdEntry *e = p.fd(fd);
    if (!e || e->type != FdEntry::Type::File)
        return -kEBADF;
    fs_.inode(e->ino).data.resize(len);
    return 0;
}

int64_t
Kernel::sysClockGettime(Process &p, Gva out)
{
    Vcpu &c = cpu();
    c.burn(150);
    double secs = machine_.costs().seconds(c.rdtsc());
    TimeSpec ts;
    ts.sec = static_cast<int64_t>(secs);
    ts.nsec = static_cast<int64_t>((secs - double(ts.sec)) * 1e9);
    c.writeObj(out, ts);
    return 0;
}

} // namespace veil::kern
