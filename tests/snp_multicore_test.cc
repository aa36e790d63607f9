/**
 * @file
 * Multicore execution battery (DESIGN.md §12): one host thread per
 * VCPU driving domain-switch pings and RMP paging churn through the
 * sharded RMP locks, cross-VCPU RMP revocation, the striped frame
 * allocator, and the safe-point exclusive rendezvous. Event
 * *counts* are asserted exactly (they are scheduling-independent);
 * cycle values are not (multicore trades cycle determinism for host
 * parallelism — single-threaded mode keeps the bit-exact pins, which
 * live in the other test binaries).
 *
 * This whole binary is also the TSan battery: the VEIL_TSAN build runs
 * it to prove the RMP, allocator, trace, and exclusive paths
 * race-free.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/log.hh"
#include "hv/hypervisor.hh"
#include "kernel/mm.hh"
#include "snp/exclusive.hh"
#include "snp/fault.hh"
#include "snp/machine.hh"
#include "snp/vcpu.hh"

namespace veil::snp {
namespace {

constexpr Gpa kGhcbBase = 0x100000;  ///< one GHCB page per VCPU
constexpr Gpa kPscBase = 0x200000;   ///< per-VCPU page-state-change page
constexpr Gpa kPoisonPage = 0x300000; ///< assigned, never validated
constexpr Gpa kFrameBase = 0x400000; ///< striped-allocator pool

/** Scale workload parameters (see buildScaleVm). */
struct ScaleParams
{
    uint32_t vcpus = 4;
    int rounds = 50;     ///< DomainSwitch ping round trips per VCPU
    int pages = 8;       ///< paging-phase frames per VCPU
    int pscRounds = 0;   ///< PageStateChange pairs per VCPU
    bool multicore = true;
    bool trace = false;
    /// This VCPU touches kPoisonPage mid-run (RMP #NPF -> CVM halt).
    int poisonVcpu = -1;
};

/**
 * A raw snp+hv scale workload: per VCPU a VMPL0 worker and a VMPL3
 * replica sharing one GHCB. VCPU 0 boots, starts the others via
 * StartVcpu, then every worker ping-pongs DomainSwitch with its
 * replica and churns frames from the shared (striped) allocator:
 * pvalidate -> write -> read-verify -> un-validate -> free.
 */
struct ScaleVm
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<hv::Hypervisor> hyper;
    std::unique_ptr<kern::FrameAllocator> frames;
    VmsaId boot = kInvalidVmsa;
    std::atomic<uint64_t> tagMismatches{0};
};

std::unique_ptr<ScaleVm>
buildScaleVm(const ScaleParams &p)
{
    auto vm = std::make_unique<ScaleVm>();
    MachineConfig cfg;
    cfg.memBytes = 32 * 1024 * 1024;
    cfg.numVcpus = p.vcpus;
    cfg.interruptsEnabled = false;
    cfg.hostThreads = p.multicore ? p.vcpus : 0;
    cfg.trace.enabled = p.trace;
    vm->machine = std::make_unique<Machine>(cfg);
    vm->hyper = std::make_unique<hv::Hypervisor>(*vm->machine);
    Machine &m = *vm->machine;

    if (p.pages > 0) {
        Gpa lo = kFrameBase;
        Gpa hi = kFrameBase + uint64_t(p.vcpus) * p.pages * kPageSize;
        for (Gpa f = lo; f < hi; f += kPageSize)
            m.rmp().hvAssign(f);
        vm->frames = std::make_unique<kern::FrameAllocator>(lo, hi);
        vm->frames->setMulticore(p.multicore);
    }
    if (p.pscRounds > 0) {
        for (uint32_t v = 0; v < p.vcpus; ++v)
            m.rmp().hvAssign(kPscBase + uint64_t(v) * kPageSize);
    }
    if (p.poisonVcpu >= 0)
        m.rmp().hvAssign(kPoisonPage);

    ScaleVm *raw = vm.get();
    for (uint32_t v = 0; v < p.vcpus; ++v) {
        Gpa ghcb = kGhcbBase + uint64_t(v) * kPageSize;
        m.rmp().hvSetShared(ghcb, true); // GHCBs are shared pages

        Vmsa worker;
        worker.vcpuId = v;
        worker.vmpl = Vmpl::Vmpl0;
        worker.ghcbGpa = ghcb;
        worker.irqMasked = true;
        worker.entry = [raw, p, v](Vcpu &cpu) {
            if (v == 0) {
                for (uint32_t o = 1; o < p.vcpus; ++o) {
                    Ghcb g;
                    g.exitCode = static_cast<uint64_t>(GhcbExit::StartVcpu);
                    g.info[0] = o;
                    g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl0);
                    cpu.hypercall(g);
                }
            }
            for (int i = 0; i < p.rounds; ++i) {
                Ghcb g;
                g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
                g.info[0] = v;
                g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl3);
                cpu.hypercall(g);
            }
            if (p.poisonVcpu == static_cast<int>(v)) {
                uint64_t x = 0xdead;
                cpu.writePhys(kPoisonPage, &x, sizeof(x)); // #NPF -> halt
            }
            for (int i = 0; i < p.pscRounds; ++i) {
                Gpa page = kPscBase + uint64_t(v) * kPageSize;
                Ghcb g;
                g.exitCode =
                    static_cast<uint64_t>(GhcbExit::PageStateChange);
                g.info[0] = page;
                g.info[1] = 1; // to shared
                cpu.hypercall(g);
                g.info[1] = 0; // back to private
                cpu.hypercall(g);
            }
            for (int i = 0; i < p.pages; ++i) {
                Gpa f = raw->frames->alloc();
                cpu.pvalidate(f, true);
                uint64_t tag = (uint64_t(v) << 32) | uint64_t(i);
                cpu.writePhys(f, &tag, sizeof(tag));
                uint64_t back = 0;
                cpu.readPhys(f, &back, sizeof(back));
                if (back != tag)
                    raw->tagMismatches.fetch_add(
                        1, std::memory_order_relaxed);
                cpu.pvalidate(f, false);
                raw->frames->free(f);
            }
        };
        VmsaId wid = m.addVmsa(std::move(worker));

        Vmsa replica;
        replica.vcpuId = v;
        replica.vmpl = Vmpl::Vmpl3;
        replica.ghcbGpa = ghcb;
        replica.irqMasked = true;
        replica.entry = [v](Vcpu &cpu) {
            // Switch straight back forever; the fiber is unwound by the
            // machine's shutdown protocol after the workers finish.
            for (;;) {
                Ghcb g;
                g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
                g.info[0] = v;
                g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl0);
                cpu.hypercall(g);
            }
        };
        VmsaId rid = m.addVmsa(std::move(replica));

        vm->hyper->registerVmsa(v, Vmpl::Vmpl0, wid);
        vm->hyper->registerVmsa(v, Vmpl::Vmpl3, rid);
        if (v == 0)
            vm->boot = wid;
    }
    return vm;
}

TEST(Multicore, ScaleWorkloadCompletesWithExactCounts)
{
    ScaleParams p;
    p.vcpus = 4;
    p.rounds = 50;
    p.pages = 8;
    p.multicore = true;
    auto vm = buildScaleVm(p);
    auto result = vm->hyper->run(vm->boot);

    EXPECT_FALSE(result.halted);
    EXPECT_FALSE(result.terminated);
    EXPECT_FALSE(vm->machine->halted());
    // Counts are scheduling-independent: each ping is exactly two
    // granted switches, each frame exactly two pvalidates.
    EXPECT_EQ(vm->hyper->stats().domainSwitches,
              uint64_t(p.vcpus) * p.rounds * 2);
    EXPECT_EQ(vm->hyper->stats().deniedSwitches, 0u);
    EXPECT_EQ(vm->hyper->stats().vcpuStarts, uint64_t(p.vcpus) - 1);
    EXPECT_EQ(vm->machine->stats().pvalidates,
              uint64_t(p.vcpus) * p.pages * 2);
    EXPECT_EQ(vm->tagMismatches.load(), 0u);
    // Every frame came back: the striped allocator conserved the pool.
    EXPECT_EQ(vm->frames->freeFrames(), uint64_t(p.vcpus) * p.pages);
}

TEST(Multicore, CountersMatchSingleThreadedRun)
{
    ScaleParams p;
    p.vcpus = 4;
    p.rounds = 40;
    p.pages = 6;

    p.multicore = false;
    auto st = buildScaleVm(p);
    st->hyper->run(st->boot);

    p.multicore = true;
    auto mt = buildScaleVm(p);
    mt->hyper->run(mt->boot);

    EXPECT_EQ(uint64_t(mt->hyper->stats().domainSwitches),
              uint64_t(st->hyper->stats().domainSwitches));
    EXPECT_EQ(uint64_t(mt->hyper->stats().vcpuStarts),
              uint64_t(st->hyper->stats().vcpuStarts));
    EXPECT_EQ(uint64_t(mt->machine->stats().pvalidates),
              uint64_t(st->machine->stats().pvalidates));
    EXPECT_EQ(uint64_t(mt->machine->stats().entries),
              uint64_t(st->machine->stats().entries));
    EXPECT_EQ(mt->tagMismatches.load(), 0u);
    EXPECT_EQ(st->tagMismatches.load(), 0u);
}

TEST(Multicore, PageStateChangesRunAsExclusiveSections)
{
    ScaleParams p;
    p.vcpus = 2;
    p.rounds = 5;
    p.pages = 0;
    p.pscRounds = 10;
    p.multicore = true;
    auto vm = buildScaleVm(p);
    vm->hyper->run(vm->boot);

    // Each PageStateChange relay is one exclusive section (the
    // RMPUPDATE + shootdown-completion rendezvous); each pscRound
    // issues two.
    EXPECT_EQ(vm->machine->exclusiveEpochs(),
              uint64_t(p.vcpus) * p.pscRounds * 2);
    EXPECT_EQ(vm->hyper->stats().pageStateChanges,
              uint64_t(p.vcpus) * p.pscRounds * 2);
}

TEST(Multicore, RmpViolationHaltsAllThreadsWithAttribution)
{
    LogConfig::setThreshold(LogLevel::Silent);
    ScaleParams p;
    p.vcpus = 4;
    p.rounds = 30;
    p.pages = 0;
    p.multicore = true;
    p.poisonVcpu = 2;
    auto vm = buildScaleVm(p);
    auto result = vm->hyper->run(vm->boot);

    EXPECT_TRUE(result.halted);
    EXPECT_TRUE(vm->machine->halted());
    const HaltInfo &h = vm->machine->haltInfo();
    EXPECT_FALSE(h.reason.empty());
    EXPECT_EQ(h.gpa, kPoisonPage);
    EXPECT_EQ(h.vmpl, Vmpl::Vmpl0);
}

TEST(Multicore, TracerRecordsUnderConcurrency)
{
    ScaleParams p;
    p.vcpus = 4;
    p.rounds = 25;
    p.pages = 4;
    p.multicore = true;
    p.trace = true;
    auto vm = buildScaleVm(p);
    vm->hyper->run(vm->boot);

    const trace::Tracer &tr = vm->machine->tracer();
    EXPECT_TRUE(tr.enabled());
    EXPECT_GT(tr.recordedEvents(), 0u);
    EXPECT_GT(tr.totalCycles(), 0u);
}

TEST(Multicore, StatsReadableWhileWorkersRun)
{
    // Host-side observer thread sums StatCounters while the machine
    // runs: must never tear or race (the satellite-2 contract).
    ScaleParams p;
    p.vcpus = 4;
    p.rounds = 120;
    p.pages = 16;
    p.multicore = true;
    auto vm = buildScaleVm(p);

    std::atomic<bool> done{false};
    uint64_t lastExits = 0;
    bool monotonic = true;
    std::thread observer([&] {
        while (!done.load(std::memory_order_acquire)) {
            uint64_t exits = vm->hyper->stats().exits;
            uint64_t hw = vm->machine->stats().entries;
            (void)hw;
            if (exits < lastExits)
                monotonic = false;
            lastExits = exits;
            std::this_thread::yield();
        }
    });
    vm->hyper->run(vm->boot);
    done.store(true, std::memory_order_release);
    observer.join();

    EXPECT_TRUE(monotonic);
    EXPECT_GE(uint64_t(vm->hyper->stats().exits), lastExits);
}

TEST(Multicore, StripedFrameAllocatorNeverDoubleAllocates)
{
    constexpr Gpa kLo = 0x100000;
    constexpr size_t kFrames = 512;
    constexpr int kThreads = 8;
    constexpr int kIters = 4000;
    kern::FrameAllocator alloc(kLo, kLo + kFrames * kPageSize);
    alloc.setMulticore(true);

    std::vector<std::atomic<uint8_t>> owned(kFrames);
    for (auto &o : owned)
        o.store(0);
    std::atomic<uint64_t> doubleAllocs{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<Gpa> held;
            for (int i = 0; i < kIters; ++i) {
                Gpa f = alloc.alloc();
                size_t idx = (f - kLo) / kPageSize;
                uint8_t expect = 0;
                if (!owned[idx].compare_exchange_strong(expect, 1))
                    doubleAllocs.fetch_add(1);
                held.push_back(f);
                if (held.size() >= 8 || (i + t) % 3 == 0) {
                    Gpa back = held.back();
                    held.pop_back();
                    owned[(back - kLo) / kPageSize].store(0);
                    alloc.free(back);
                }
            }
            for (Gpa f : held) {
                owned[(f - kLo) / kPageSize].store(0);
                alloc.free(f);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(doubleAllocs.load(), 0u);
    EXPECT_EQ(alloc.freeFrames(), kFrames);

    // The workers parked every frame in their own stripes and the bump
    // region is long gone, so draining the whole pool from this one
    // thread must cross stripes: every frame outside our home stripe
    // comes back through the steal path, and the rotating steal cursor
    // counts each theft.
    uint64_t steals0 = alloc.steals();
    std::vector<Gpa> drained;
    while (auto f = alloc.tryAlloc())
        drained.push_back(*f);
    EXPECT_EQ(drained.size(), kFrames);
    EXPECT_GT(alloc.steals(), steals0);
    for (Gpa f : drained)
        alloc.free(f);
    EXPECT_EQ(alloc.freeFrames(), kFrames);
}

TEST(Multicore, ExclusiveSectionsAreMutuallyExclusive)
{
    ExclusiveCoordinator excl;
    constexpr int kThreads = 4;
    constexpr int kIters = 3000;
    constexpr int kEvery = 10;
    uint64_t shared = 0; // mutated ONLY inside exclusive sections

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            excl.registerThread();
            ExclusiveCoordinator::bindWorker(true);
            for (int i = 0; i < kIters; ++i) {
                excl.safepoint();
                if (i % kEvery == 0) {
                    ExclusiveSection section(&excl);
                    ++shared; // non-atomic: exclusivity is the guard
                }
            }
            ExclusiveCoordinator::bindWorker(false);
            excl.deregisterThread();
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(shared, uint64_t(kThreads) * (kIters / kEvery));
    EXPECT_EQ(excl.epoch(), uint64_t(kThreads) * (kIters / kEvery));
}

TEST(Multicore, RmpRevocationOnOneVcpuDeniesOtherVcpusNextAccess)
{
    // VCPU 1 (VMPL-1) reads a page VMPL-0 granted it; VCPU 0 then
    // revokes the grant with RMPADJUST on its own host thread. VCPU 1's
    // very next checked access must raise #NPF and halt the CVM.
    LogConfig::setThreshold(LogLevel::Silent);
    constexpr Gpa kGranted = 0x300000;
    // Declared before the machine: the guest fibers capture them.
    std::atomic<bool> granted_read{false};
    std::atomic<bool> revoked{false};
    std::atomic<bool> stale_read{false};
    MachineConfig cfg;
    cfg.memBytes = 8 * 1024 * 1024;
    cfg.numVcpus = 2;
    cfg.interruptsEnabled = false;
    cfg.hostThreads = 2;
    Machine m(cfg);
    hv::Hypervisor hyper(m);
    m.rmp().hvAssign(kGranted);
    m.rmp().pvalidate(Vmpl::Vmpl0, kGranted, true);
    m.rmp().rmpadjust(Vmpl::Vmpl0, kGranted, Vmpl::Vmpl1, kPermRw);
    m.rmp().hvSetShared(kGhcbBase, true);

    Vmsa owner;
    owner.vcpuId = 0;
    owner.vmpl = Vmpl::Vmpl0;
    owner.ghcbGpa = kGhcbBase;
    owner.irqMasked = true;
    owner.entry = [&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::StartVcpu);
        g.info[0] = 1;
        g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl1);
        cpu.hypercall(g);
        // Spin at charge boundaries (safe points); give up if the CVM
        // halted, so a failure here cannot hang the test.
        while (!granted_read.load(std::memory_order_acquire) && !m.halted())
            cpu.burn(1);
        cpu.rmpadjust(kGranted, Vmpl::Vmpl1, kPermNone);
        revoked.store(true, std::memory_order_release);
    };
    VmsaId owner_id = m.addVmsa(std::move(owner));

    Vmsa reader;
    reader.vcpuId = 1;
    reader.vmpl = Vmpl::Vmpl1;
    reader.irqMasked = true;
    reader.entry = [&](Vcpu &cpu) {
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kGranted));
        granted_read.store(true, std::memory_order_release);
        while (!revoked.load(std::memory_order_acquire) && !m.halted())
            cpu.burn(1);
        cpu.readObj<uint64_t>(kGranted); // throws NpfFault
        stale_read.store(true);
    };
    VmsaId reader_id = m.addVmsa(std::move(reader));

    hyper.registerVmsa(0, Vmpl::Vmpl0, owner_id);
    hyper.registerVmsa(1, Vmpl::Vmpl1, reader_id);
    auto result = hyper.run(owner_id);

    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(stale_read.load()) << "revoked read went through";
    const HaltInfo &h = m.haltInfo();
    EXPECT_EQ(h.gpa, kGranted);
    EXPECT_EQ(h.vmpl, Vmpl::Vmpl1);
}

} // namespace
} // namespace veil::snp
