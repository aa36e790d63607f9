/**
 * @file
 * Machine + Vcpu + fiber tests: VMENTER/VMGEXIT round trips, GHCB
 * passing, timer interrupts, NPF-halt semantics, VMSA replication,
 * cycle accounting against the calibrated cost model, and attestation.
 */
#include <gtest/gtest.h>

#include <thread>

#include "base/log.hh"
#include "snp/fault.hh"
#include "snp/machine.hh"
#include "snp/vcpu.hh"

namespace veil::snp {
namespace {

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.memBytes = 8 * 1024 * 1024;
    cfg.numVcpus = 1;
    cfg.interruptsEnabled = false;
    return cfg;
}

/** Validate a page range directly (test scaffolding, not guest code). */
void
prepareRange(Machine &m, Gpa lo, Gpa hi, Vmpl grant_to = Vmpl::Vmpl0,
             PermMask perms = kPermAll)
{
    for (Gpa p = lo; p < hi; p += kPageSize) {
        m.rmp().hvAssign(p);
        m.rmp().pvalidate(Vmpl::Vmpl0, p, true);
        if (grant_to != Vmpl::Vmpl0)
            m.rmp().rmpadjust(Vmpl::Vmpl0, p, grant_to, perms);
    }
}

TEST(Fiber, RunsAndYields)
{
    int step = 0;
    Fiber f([&] {
        step = 1;
        Fiber::yieldToScheduler();
        step = 2;
    });
    EXPECT_FALSE(f.started());
    f.resume();
    EXPECT_EQ(step, 1);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_EQ(step, 2);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptions)
{
    LogConfig::setThreshold(LogLevel::Silent);
    Fiber f([] { throw std::runtime_error("inner"); });
    EXPECT_THROW(f.resume(), std::runtime_error);
    EXPECT_TRUE(f.finished());
}

uint32_t
readMxcsr()
{
    uint32_t v;
    asm volatile("stmxcsr %0" : "=m"(v));
    return v;
}

void
writeMxcsr(uint32_t v)
{
    asm volatile("ldmxcsr %0" : : "m"(v));
}

uint16_t
readFpuCw()
{
    uint16_t v;
    asm volatile("fnstcw %0" : "=m"(v));
    return v;
}

void
writeFpuCw(uint16_t v)
{
    asm volatile("fldcw %0" : : "m"(v));
}

TEST(Fiber, SwitchPreservesRegistersAndFpControl)
{
    constexpr int kSwitches = 100000;
    constexpr uint32_t kRcMask = 0x6000;   // MXCSR rounding control
    constexpr uint16_t kX87RcMask = 0x0c00; // x87 CW rounding control
    const uint32_t sched_mxcsr = readMxcsr();
    const uint16_t sched_cw = readFpuCw();
    int bad_fiber_fp = 0;

    // Six values live across every yield on each side: they sit in
    // callee-saved registers (or their spill slots) across the switch.
    uint64_t fiber_sum = 0;
    Fiber f([&] {
        // Round toward zero on both units inside the fiber only.
        writeMxcsr(readMxcsr() | kRcMask);
        writeFpuCw(readFpuCw() | kX87RcMask);
        uint64_t a = 1, b = 2, c = 3, d = 5, e = 7, g = 11;
        for (int i = 0; i < kSwitches; ++i) {
            asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                         "+r"(g));
            Fiber::yieldToScheduler();
            asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                         "+r"(g));
            a = a * 3 + b;
            b ^= c + i;
            c += d;
            d = d * 5 + e;
            e ^= g << 1;
            g += a;
            if ((readMxcsr() & kRcMask) != kRcMask ||
                (readFpuCw() & kX87RcMask) != kX87RcMask)
                ++bad_fiber_fp;
        }
        fiber_sum = a ^ b ^ c ^ d ^ e ^ g;
    });

    uint64_t a = 13, b = 17, c = 19, d = 23, e = 29, g = 31;
    int bad_sched_fp = 0;
    for (int i = 0; !f.finished(); ++i) {
        asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                     "+r"(g));
        f.resume();
        asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                     "+r"(g));
        a += b * 7;
        b ^= c + i;
        c = c * 3 + d;
        d += e;
        e ^= g >> 1;
        g += a;
        if (readMxcsr() != sched_mxcsr || readFpuCw() != sched_cw)
            ++bad_sched_fp;
    }
    uint64_t sched_sum = a ^ b ^ c ^ d ^ e ^ g;

    // Replay both computations without any switch.
    uint64_t ra = 1, rb = 2, rc = 3, rd = 5, re = 7, rg = 11;
    for (int i = 0; i < kSwitches; ++i) {
        ra = ra * 3 + rb;
        rb ^= rc + i;
        rc += rd;
        rd = rd * 5 + re;
        re ^= rg << 1;
        rg += ra;
    }
    EXPECT_EQ(fiber_sum, ra ^ rb ^ rc ^ rd ^ re ^ rg);
    uint64_t sa = 13, sb = 17, sc = 19, sd = 23, se = 29, sg = 31;
    for (int i = 0; i <= kSwitches; ++i) {
        sa += sb * 7;
        sb ^= sc + i;
        sc = sc * 3 + sd;
        sd += se;
        se ^= sg >> 1;
        sg += sa;
    }
    EXPECT_EQ(sched_sum, sa ^ sb ^ sc ^ sd ^ se ^ sg);
    EXPECT_EQ(bad_fiber_fp, 0);
    EXPECT_EQ(bad_sched_fp, 0);
    EXPECT_EQ(readMxcsr(), sched_mxcsr);
    EXPECT_EQ(readFpuCw(), sched_cw);
}

TEST(Fiber, ExceptionsCrossYieldsAndPropagate)
{
    LogConfig::setThreshold(LogLevel::Silent);
    int caught_inside = 0;
    Fiber f([&] {
        try {
            Fiber::yieldToScheduler();
            throw std::logic_error("caught in the fiber");
        } catch (const std::logic_error &) {
            ++caught_inside;
        }
        Fiber::yieldToScheduler();
        throw std::runtime_error("escapes the fiber");
    });
    f.resume();
    f.resume();
    EXPECT_EQ(caught_inside, 1);
    EXPECT_FALSE(f.finished());
    EXPECT_THROW(f.resume(), std::runtime_error);
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(Fiber::current(), nullptr);
}

/** The host thread running the caller. Out of line and opaque: glibc
 *  declares pthread_self const, so an inlined call could be reused
 *  across a yield that moved the fiber to another thread. */
[[gnu::noinline]] std::thread::id
hostThread()
{
    asm volatile("");
    return std::this_thread::get_id();
}

TEST(Fiber, ResumesOnASecondHostThread)
{
    std::thread::id ran_on[2];
    Fiber *seen[2] = {nullptr, nullptr};
    Fiber f([&] {
        ran_on[0] = hostThread();
        seen[0] = Fiber::current();
        Fiber::yieldToScheduler();
        ran_on[1] = hostThread();
        seen[1] = Fiber::current();
    });
    f.resume();
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *on_thief = &f;
    std::thread thief([&] {
        on_thief->resume();
        EXPECT_EQ(Fiber::current(), nullptr);
    });
    thief.join();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(ran_on[0], hostThread());
    EXPECT_NE(ran_on[1], ran_on[0]);
    EXPECT_EQ(seen[0], &f);
    EXPECT_EQ(seen[1], &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Machine, SimpleEnterRunsToCompletion)
{
    Machine m(smallConfig());
    bool ran = false;
    VmsaId id = m.addVmsa([&] {
        Vmsa v;
        v.vmpl = Vmpl::Vmpl0;
        v.entry = [&ran](Vcpu &) { ran = true; };
        return v;
    }());
    VmExit e = m.enter(id);
    EXPECT_TRUE(ran);
    EXPECT_EQ(e.reason, ExitReason::Halted);
    EXPECT_FALSE(m.halted());
}

TEST(Machine, VmgexitAndReenterResumes)
{
    Machine m(smallConfig());
    prepareRange(m, 0, 2 * kPageSize);
    // Legitimate page-state change: the guest releases the page (clears
    // its C-bit expectation) before the host marks it shared.
    m.rmp().pvalidate(Vmpl::Vmpl0, kPageSize, false);
    m.rmp().hvSetShared(kPageSize, true); // GHCB page

    int phase = 0;
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.entry = [&phase](Vcpu &cpu) {
        cpu.wrmsrGhcb(kPageSize);
        phase = 1;
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::ConsoleWrite);
        cpu.writeGhcb(g);
        cpu.vmgexit();
        phase = 2;
    };
    VmsaId id = m.addVmsa(std::move(v));

    VmExit e1 = m.enter(id);
    EXPECT_EQ(e1.reason, ExitReason::NonAutomatic);
    EXPECT_EQ(phase, 1);
    // "Hypervisor" reads the GHCB from the shared page.
    Ghcb g;
    m.memory().read(kPageSize, &g, sizeof(g));
    EXPECT_EQ(g.exitCode, static_cast<uint64_t>(GhcbExit::ConsoleWrite));

    VmExit e2 = m.enter(id);
    EXPECT_EQ(e2.reason, ExitReason::Halted);
    EXPECT_EQ(phase, 2);
}

TEST(Machine, DomainSwitchCostMatchesPaperAnchor)
{
    // One VMGEXIT + hvDispatch + one VMENTER must equal the paper's
    // 7135-cycle domain switch (§9.1).
    MachineConfig cfg = smallConfig();
    EXPECT_EQ(cfg.costs.domainSwitchTransition(), 7135u);
    EXPECT_EQ(cfg.costs.domainSwitchRoundTrip(), 14270u);

    Machine m(cfg);
    prepareRange(m, 0, 2 * kPageSize);
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.entry = [](Vcpu &cpu) { cpu.machine().guestExit(ExitReason::NonAutomatic); };
    VmsaId id = m.addVmsa(std::move(v));

    uint64_t before = m.tsc();
    m.enter(id);
    // enter charges restore; guestExit charges save. hvDispatch is the
    // hypervisor's to add.
    EXPECT_EQ(m.tsc() - before, cfg.costs.vmenterRestore + cfg.costs.vmgexitSave);
}

TEST(Machine, PlainVmExitCostMatchesNonSnpAnchor)
{
    MachineConfig cfg = smallConfig();
    cfg.snpMode = false;
    EXPECT_EQ(cfg.costs.plainExit + cfg.costs.plainResume, 1100u);

    Machine m(cfg);
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.entry = [](Vcpu &cpu) { cpu.machine().guestExit(ExitReason::NonAutomatic); };
    VmsaId id = m.addVmsa(std::move(v));
    uint64_t before = m.tsc();
    m.enter(id);
    EXPECT_EQ(m.tsc() - before, cfg.costs.plainResume + cfg.costs.plainExit);
}

TEST(Machine, NpfHaltsWholeMachine)
{
    LogConfig::setThreshold(LogLevel::Silent);
    Machine m(smallConfig());
    prepareRange(m, 0, 4 * kPageSize);
    // Page 2 stays VMPL-0-only; a VMPL-3 VMSA touches it.
    Vmsa v;
    v.vmpl = Vmpl::Vmpl3;
    v.entry = [](Vcpu &cpu) {
        uint64_t x = 0;
        cpu.readPhys(2 * kPageSize, &x, sizeof(x)); // must fault
        FAIL() << "NPF did not fire";
    };
    VmsaId id = m.addVmsa(std::move(v));
    VmExit e = m.enter(id);
    EXPECT_EQ(e.reason, ExitReason::NpfHalt);
    EXPECT_TRUE(m.halted());
    EXPECT_NE(m.haltInfo().reason.find("NPF"), std::string::npos);
    // Subsequent enters refuse to run.
    EXPECT_EQ(m.enter(id).reason, ExitReason::NpfHalt);
}

TEST(Machine, TimerInterruptFiresForUnmaskedVmsa)
{
    MachineConfig cfg = smallConfig();
    cfg.interruptsEnabled = true;
    Machine m(cfg);
    prepareRange(m, 0, 2 * kPageSize, Vmpl::Vmpl3, kPermAll);

    int bursts = 0;
    Vmsa v;
    v.vmpl = Vmpl::Vmpl3;
    v.irqMasked = false;
    v.entry = [&](Vcpu &cpu) {
        for (int i = 0; i < 3; ++i) {
            cpu.burn(cfg.costs.timerQuantum() + 1);
            ++bursts;
        }
    };
    VmsaId id = m.addVmsa(std::move(v));

    int intr_exits = 0;
    VmExit e = m.enter(id);
    while (e.reason == ExitReason::AutomaticIntr) {
        ++intr_exits;
        e = m.enter(id);
    }
    EXPECT_EQ(e.reason, ExitReason::Halted);
    EXPECT_EQ(bursts, 3);
    EXPECT_GE(intr_exits, 3);
    EXPECT_EQ(m.stats().timerInterrupts, static_cast<uint64_t>(intr_exits));
}

TEST(Machine, MaskedVmsaNeverInterrupted)
{
    MachineConfig cfg = smallConfig();
    cfg.interruptsEnabled = true;
    Machine m(cfg);
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.irqMasked = true;
    v.entry = [&](Vcpu &cpu) { cpu.burn(10 * cfg.costs.timerQuantum()); };
    VmsaId id = m.addVmsa(std::move(v));
    EXPECT_EQ(m.enter(id).reason, ExitReason::Halted);
    EXPECT_EQ(m.stats().timerInterrupts, 0u);
}

TEST(Machine, InjectedVectorsQueueInsteadOfOverwriting)
{
    Machine m(smallConfig());
    prepareRange(m, 0, 4 * kPageSize);

    int delivered = 0;
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.idtHandlerVa = 2 * kPageSize;
    v.softTimerHook = [&delivered] { ++delivered; };
    v.entry = [](Vcpu &cpu) {
        cpu.machine().guestExit(ExitReason::NonAutomatic);
    };
    VmsaId id = m.addVmsa(std::move(v));

    EXPECT_EQ(m.enter(id).reason, ExitReason::NonAutomatic);
    // The hypervisor piles three vectors on before resuming. The old
    // single-slot latch collapsed these into one delivery; they must
    // all arrive, in order, on the next resume.
    m.injectVector(id);
    m.injectVector(id);
    m.injectVector(id);
    EXPECT_EQ(m.enter(id).reason, ExitReason::Halted);
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(m.stats().vectorsInjected, 3u);
    EXPECT_EQ(m.stats().vectorsQueued, 2u);
}

TEST(Machine, MaskedTimerTickLatchedAndDeliveredOnUnmask)
{
    MachineConfig cfg = smallConfig();
    cfg.interruptsEnabled = true;
    Machine m(cfg);
    prepareRange(m, 0, 4 * kPageSize);

    int hook_fires = 0;
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.irqMasked = true;
    v.idtHandlerVa = 2 * kPageSize;
    v.softTimerHook = [&hook_fires] { ++hook_fires; };
    v.entry = [&](Vcpu &cpu) {
        // A full quantum elapses while masked: the tick is latched, not
        // dropped (the old code lost it entirely).
        cpu.burn(cfg.costs.timerQuantum() + 1);
        EXPECT_EQ(cpu.machine().stats().timerTicksLatched, 1u);
        EXPECT_EQ(cpu.machine().stats().timerInterrupts, 0u);
        // Unmask: the very next poll must deliver the held tick.
        cpu.vmsa().irqMasked = false;
        cpu.burn(1);
    };
    VmsaId id = m.addVmsa(std::move(v));

    VmExit e = m.enter(id);
    ASSERT_EQ(e.reason, ExitReason::AutomaticIntr);
    EXPECT_EQ(m.stats().timerInterrupts, 1u);
    // Hypervisor relay: injecting the vector fires the handler and the
    // soft timer hook (the kernel's audit deadline-flush path) even
    // though the tick originally went due under a masked context.
    m.injectVector(id);
    EXPECT_EQ(m.enter(id).reason, ExitReason::Halted);
    EXPECT_EQ(hook_fires, 1);
}

TEST(Machine, HostileSharedFlipFaultsInsteadOfExposing)
{
    LogConfig::setThreshold(LogLevel::Silent);
    Machine m(smallConfig());
    prepareRange(m, 0, 4 * kPageSize);
    // The host flips a guest-private (pvalidated) page to shared without
    // the guest releasing it first. The guest's C-bit expectation still
    // stands, so its next access must halt with an #NPF — never silently
    // read what is now host-visible memory.
    m.rmp().hvSetShared(3 * kPageSize, true);
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.entry = [](Vcpu &cpu) {
        uint64_t x = 0;
        cpu.readPhys(3 * kPageSize, &x, sizeof(x));
        FAIL() << "hostile flip did not fault";
    };
    EXPECT_EQ(m.enter(m.addVmsa(std::move(v))).reason, ExitReason::NpfHalt);
    EXPECT_TRUE(m.halted());
}

TEST(Machine, VirtualAccessChecksPageTablesThenRmp)
{
    Machine m(smallConfig());
    prepareRange(m, 0, 16 * kPageSize, Vmpl::Vmpl3, kPermAll);
    // Make page 8 VMPL-0 only again.
    m.rmp().pvalidate(Vmpl::Vmpl0, 8 * kPageSize, false);
    m.rmp().pvalidate(Vmpl::Vmpl0, 8 * kPageSize, true);

    Vmsa v;
    v.vmpl = Vmpl::Vmpl3;
    v.entry = [](Vcpu &cpu) {
        // Identity map (cr3 = 0): write via VA to an allowed page works.
        uint64_t magic = 0xdecafbad;
        cpu.writeObj<uint64_t>(4 * kPageSize, magic);
        EXPECT_EQ(cpu.readObj<uint64_t>(4 * kPageSize), magic);
        // Crossing into the restricted page faults.
        EXPECT_THROW(cpu.readObj<uint64_t>(8 * kPageSize), NpfFault);
    };
    m.enter(m.addVmsa(std::move(v)));
}

TEST(Machine, CreateVmsaRequiresVmpl0)
{
    LogConfig::setThreshold(LogLevel::Silent);
    Machine m(smallConfig());
    prepareRange(m, 0, 8 * kPageSize, Vmpl::Vmpl3, kPermAll);

    Vmsa v;
    v.vmpl = Vmpl::Vmpl3;
    v.entry = [](Vcpu &cpu) {
        cpu.createVmsa(6 * kPageSize, 0, Vmpl::Vmpl3, false,
                       [](Vcpu &) {});
    };
    VmExit e = m.enter(m.addVmsa(std::move(v)));
    EXPECT_EQ(e.reason, ExitReason::NpfHalt);
}

TEST(Machine, Vmpl0CreatesAndRunsReplica)
{
    Machine m(smallConfig());
    prepareRange(m, 0, 8 * kPageSize);

    bool replica_ran = false;
    VmsaId replica = kInvalidVmsa;
    Vmsa boot;
    boot.vmpl = Vmpl::Vmpl0;
    boot.entry = [&](Vcpu &cpu) {
        replica = cpu.createVmsa(6 * kPageSize, 0, Vmpl::Vmpl3, false,
                                 [&replica_ran](Vcpu &inner) {
                                     EXPECT_EQ(inner.vmpl(), Vmpl::Vmpl3);
                                     replica_ran = true;
                                 });
    };
    m.enter(m.addVmsa(std::move(boot)));
    ASSERT_NE(replica, kInvalidVmsa);
    EXPECT_TRUE(m.rmp().isVmsaPage(6 * kPageSize));
    EXPECT_EQ(m.enter(replica).reason, ExitReason::Halted);
    EXPECT_TRUE(replica_ran);
}

TEST(Machine, VmsaPageInaccessibleToOs)
{
    LogConfig::setThreshold(LogLevel::Silent);
    Machine m(smallConfig());
    prepareRange(m, 0, 8 * kPageSize, Vmpl::Vmpl3, kPermAll);

    // Monitor creates a VMSA on page 6 (previously OS-accessible).
    Vmsa boot;
    boot.vmpl = Vmpl::Vmpl0;
    boot.entry = [&](Vcpu &cpu) {
        cpu.createVmsa(6 * kPageSize, 0, Vmpl::Vmpl1, true, [](Vcpu &) {});
    };
    m.enter(m.addVmsa(std::move(boot)));

    // The OS then tries to read the live VMSA.
    Vmsa os;
    os.vmpl = Vmpl::Vmpl3;
    os.entry = [](Vcpu &cpu) {
        uint64_t x;
        cpu.readPhys(6 * kPageSize, &x, sizeof(x));
    };
    EXPECT_EQ(m.enter(m.addVmsa(std::move(os))).reason, ExitReason::NpfHalt);
    EXPECT_TRUE(m.halted());
}

TEST(Machine, AttestationReportsVmplAndVerifies)
{
    Machine m(smallConfig());
    crypto::Digest launch = crypto::Sha256::hash("boot-image", 10);
    m.psp().setLaunchDigest(launch);

    AttestationReport captured{};
    Vmsa v;
    v.vmpl = Vmpl::Vmpl1;
    v.entry = [&](Vcpu &cpu) {
        ReportData rd{};
        rd[0] = 0xaa;
        captured = cpu.attest(rd);
    };
    m.enter(m.addVmsa(std::move(v)));

    EXPECT_EQ(captured.requesterVmpl, 1);
    EXPECT_EQ(captured.measurement, launch);
    EXPECT_TRUE(m.psp().verify(captured));
    // Tampering breaks verification.
    AttestationReport forged = captured;
    forged.requesterVmpl = 0;
    EXPECT_FALSE(m.psp().verify(forged));
}

TEST(Machine, CopyCostsChargedForAccesses)
{
    MachineConfig cfg = smallConfig();
    Machine m(cfg);
    prepareRange(m, 0, 16 * kPageSize);
    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    uint64_t delta = 0;
    v.entry = [&](Vcpu &cpu) {
        std::vector<uint8_t> buf(4096);
        uint64_t t0 = cpu.rdtsc();
        cpu.read(2 * kPageSize, buf.data(), buf.size());
        delta = cpu.rdtsc() - t0;
    };
    m.enter(m.addVmsa(std::move(v)));
    EXPECT_EQ(delta, cfg.costs.copyCost(4096));
}

TEST(Machine, TeardownUnwindsBlockedFibers)
{
    // A fiber blocked in vmgexit must unwind its stack (destructors
    // run) when the Machine dies.
    bool destroyed = false;
    struct Sentinel
    {
        bool *flag;
        ~Sentinel() { *flag = true; }
    };
    {
        Machine m(smallConfig());
        Vmsa v;
        v.vmpl = Vmpl::Vmpl0;
        v.entry = [&destroyed](Vcpu &cpu) {
            Sentinel s{&destroyed};
            cpu.machine().guestExit(ExitReason::NonAutomatic);
        };
        VmsaId id = m.addVmsa(std::move(v));
        EXPECT_EQ(m.enter(id).reason, ExitReason::NonAutomatic);
        EXPECT_FALSE(destroyed);
    }
    EXPECT_TRUE(destroyed);
}

} // namespace
} // namespace veil::snp
