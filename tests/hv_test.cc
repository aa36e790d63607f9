/**
 * @file
 * Hypervisor tests: the SNP shared-page boundary (HvView), GHCB exit
 * dispatch (domain switches, VMSA registry, page-state changes, console
 * writes, termination), the same-VCPU switch rule, and the restricted
 * user-GHCB policy (§5.2, §6.2).
 */
#include <gtest/gtest.h>

#include "base/log.hh"
#include "hv/launch.hh"
#include "snp/fault.hh"

namespace veil::hv {
namespace {

using namespace snp;

class HvTest : public ::testing::Test
{
  protected:
    HvTest()
    {
        LogConfig::setThreshold(LogLevel::Silent);
        MachineConfig cfg;
        cfg.memBytes = 8 * 1024 * 1024;
        cfg.numVcpus = 2;
        cfg.interruptsEnabled = false;
        machine = std::make_unique<Machine>(cfg);
        hyper = std::make_unique<Hypervisor>(*machine);
    }

    /** Launch a one-page boot image with the given entry. */
    VmsaId
    launch(GuestEntry entry, bool irq_masked = true)
    {
        LaunchParams params;
        params.bootImage = Bytes(4096, 0x90);
        params.imageBase = 0x1000;
        params.bootVmsaPage = 0x2000;
        params.bootGhcb = 0x3000;
        params.bootEntry = std::move(entry);
        params.bootIrqMasked = irq_masked;
        return launchCvm(*machine, *hyper, params);
    }

    /** Register a guest-created VMSA with the hypervisor via GHCB. */
    static void
    machineRegister(Vcpu &cpu, VmsaId id, uint32_t vcpu)
    {
        Vmsa &state = cpu.machine().vmsaState(id);
        state.ghcbGpa = cpu.vmsa().ghcbGpa; // share the boot GHCB
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::RegisterVmsa);
        g.info[0] = state.page;
        g.info[1] = vcpu;
        g.info[2] = static_cast<uint64_t>(state.vmpl);
        g.info[3] = id;
        cpu.hypercall(g);
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<Hypervisor> hyper;
};

TEST_F(HvTest, LaunchAssignsAndMeasures)
{
    launch([](Vcpu &) {});
    EXPECT_TRUE(machine->rmp().isAssigned(0x100000));
    EXPECT_TRUE(machine->rmp().isValidated(0x1000)); // image page
    EXPECT_TRUE(machine->rmp().isVmsaPage(0x2000));
    EXPECT_TRUE(machine->rmp().isShared(0x3000));
    crypto::Digest expect = crypto::Sha256::hash(Bytes(4096, 0x90));
    EXPECT_EQ(machine->psp().launchDigest(), expect);
}

TEST_F(HvTest, RunTerminatesOnTerminateHypercall)
{
    VmsaId boot = launch([](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        g.info[0] = 42;
        cpu.writeGhcb(g);
        cpu.vmgexit();
        FAIL() << "resumed after terminate";
    });
    auto result = hyper->run(boot);
    EXPECT_TRUE(result.terminated);
    EXPECT_EQ(result.status, 42u);
}

TEST_F(HvTest, HvViewRefusesPrivatePages)
{
    launch([](Vcpu &) {});
    HvView &view = hyper->view();
    uint8_t b;
    EXPECT_NO_THROW(view.read(0x3000, &b, 1)); // shared GHCB
    EXPECT_THROW(view.read(0x1000, &b, 1), PanicError); // private image
    EXPECT_THROW(view.write(0x2000, &b, 1), PanicError); // VMSA page
}

TEST_F(HvTest, ConsoleWriteThroughSharedBuffer)
{
    VmsaId boot = launch([](Vcpu &cpu) {
        // Reuse the GHCB page itself as the console buffer tail.
        const char msg[] = "hello host";
        cpu.writePhys(0x3000 + 512, msg, sizeof(msg) - 1);
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::ConsoleWrite);
        g.info[0] = 0x3000 + 512;
        g.info[1] = sizeof(msg) - 1;
        cpu.writeGhcb(g);
        cpu.vmgexit();
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    hyper->run(boot);
    EXPECT_EQ(hyper->console(), "hello host");
    EXPECT_EQ(hyper->stats().consoleWrites, 1u);
}

TEST_F(HvTest, DomainSwitchBetweenRegisteredVmsas)
{
    std::vector<int> order;
    VmsaId boot = launch([&](Vcpu &cpu) {
        order.push_back(0);
        // Create and register a VMPL-1 replica, then switch to it.
        machine->rmp().hvAssign(0x5000);
        cpu.pvalidate(0x5000, true);
        VmsaId replica = cpu.createVmsa(0x5000, 0, Vmpl::Vmpl1, true,
                                        [&](Vcpu &inner) {
                                            order.push_back(1);
                                            Ghcb t;
                                            t.exitCode = static_cast<uint64_t>(
                                                GhcbExit::Terminate);
                                            inner.writeGhcb(t);
                                            inner.vmgexit();
                                        });
        machine->vmsaState(replica).ghcbGpa = 0x3000;

        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::RegisterVmsa);
        g.info[0] = 0x5000;
        g.info[1] = 0;
        g.info[2] = static_cast<uint64_t>(Vmpl::Vmpl1);
        g.info[3] = replica;
        cpu.hypercall(g);

        g = Ghcb{};
        g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
        g.info[0] = 0;
        g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl1);
        cpu.writeGhcb(g);
        cpu.vmgexit();
        order.push_back(2); // never reached: replica terminates
    });
    auto result = hyper->run(boot);
    EXPECT_TRUE(result.terminated);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(hyper->stats().domainSwitches, 1u);
}

TEST_F(HvTest, SwitchToUnregisteredDomainDenied)
{
    uint64_t result_code = 0;
    VmsaId boot = launch([&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
        g.info[0] = 0;
        g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl2); // nothing there
        result_code = cpu.hypercall(g);
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    hyper->run(boot);
    EXPECT_EQ(result_code, static_cast<uint64_t>(HvResult::Denied));
    EXPECT_EQ(hyper->stats().deniedSwitches, 1u);
}

TEST_F(HvTest, CrossVcpuSwitchDenied)
{
    uint64_t result_code = 0;
    VmsaId boot = launch([&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
        g.info[0] = 1; // other VCPU
        g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl0);
        result_code = cpu.hypercall(g);
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    // Register something at (1, VMPL0) so only the same-VCPU rule trips.
    hyper->registerVmsa(1, Vmpl::Vmpl0, 0);
    hyper->run(boot);
    EXPECT_EQ(result_code, static_cast<uint64_t>(HvResult::Denied));
}

TEST_F(HvTest, RestrictedGhcbOnlyAllowsEnclaveSwitches)
{
    uint64_t to_mon = 0;
    VmsaId boot = launch([&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::RestrictGhcb);
        g.info[0] = 0x3000; // restrict our own GHCB
        cpu.hypercall(g);

        g = Ghcb{};
        g.exitCode = static_cast<uint64_t>(GhcbExit::DomainSwitch);
        g.info[0] = 0;
        g.info[1] = static_cast<uint64_t>(Vmpl::Vmpl0); // not ENC/UNT
        to_mon = cpu.hypercall(g);

        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    hyper->run(boot);
    EXPECT_EQ(to_mon, static_cast<uint64_t>(HvResult::Denied));
}

TEST_F(HvTest, PageStateChangeFlipsSharedBit)
{
    VmsaId boot = launch([&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
        g.info[0] = 0x7000;
        g.info[1] = 1;
        cpu.hypercall(g);
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    hyper->run(boot);
    EXPECT_TRUE(machine->rmp().isShared(0x7000));
    EXPECT_EQ(hyper->stats().pageStateChanges, 1u);
}

TEST_F(HvTest, PageStateChangePastGuestMemoryDenied)
{
    // 1M entries from 0x7000 run past the 8 MiB of guest memory (and
    // past the PSC buffer bound); a 2 MiB entry at the end of memory
    // leaves it too; 254 4 KiB entries fit in memory but exceed the
    // bound. All three are refused before any RMPUPDATE.
    uint64_t too_many = 0, past_end = 0, at_bound = 0;
    VmsaId boot = launch([&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::PageStateChange);
        g.info[0] = 0x7000;
        g.info[1] = 1;
        g.info[2] = 1 << 20;
        too_many = cpu.hypercall(g);
        g.info[0] = 8 * 1024 * 1024;
        g.info[2] = 1;
        g.info[3] = 1;
        past_end = cpu.hypercall(g);
        g.info[0] = 0x7000;
        g.info[2] = kPscMaxEntries + 1;
        g.info[3] = 0;
        at_bound = cpu.hypercall(g);
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    EXPECT_TRUE(hyper->run(boot).terminated);
    EXPECT_EQ(too_many, static_cast<uint64_t>(HvResult::Denied));
    EXPECT_EQ(past_end, static_cast<uint64_t>(HvResult::Denied));
    EXPECT_EQ(at_bound, static_cast<uint64_t>(HvResult::Denied));
    EXPECT_FALSE(machine->rmp().isShared(0x7000));
    EXPECT_EQ(hyper->stats().pageStateChanges, 0u);
}

TEST_F(HvTest, ConsoleWriteFromPrivateBufferDenied)
{
    // The image page is private: the hypervisor may not read it, so
    // the request is refused instead of tripping the HvView check.
    uint64_t from_private = 0, past_end = 0;
    VmsaId boot = launch([&](Vcpu &cpu) {
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::ConsoleWrite);
        g.info[0] = 0x1000;
        g.info[1] = 16;
        from_private = cpu.hypercall(g);
        g.info[0] = 8 * 1024 * 1024 - 8; // runs off the end of memory
        past_end = cpu.hypercall(g);
        g.exitCode = static_cast<uint64_t>(GhcbExit::Terminate);
        cpu.writeGhcb(g);
        cpu.vmgexit();
    });
    EXPECT_TRUE(hyper->run(boot).terminated);
    EXPECT_EQ(from_private, static_cast<uint64_t>(HvResult::Denied));
    EXPECT_EQ(past_end, static_cast<uint64_t>(HvResult::Denied));
    EXPECT_EQ(hyper->console(), "");
    EXPECT_EQ(hyper->stats().consoleWrites, 0u);
}

TEST_F(HvTest, HaltedVcpuGoesOffline)
{
    // Entry returns immediately: the VCPU goes offline and run() ends.
    VmsaId boot = launch([](Vcpu &) {});
    auto result = hyper->run(boot);
    EXPECT_FALSE(result.terminated);
    EXPECT_FALSE(result.halted);
}

TEST_F(HvTest, RoundRobinInterleavesTwoVcpus)
{
    // Fresh machine with timer interrupts so compute-bound VCPUs get
    // preempted and the run loop round-robins between them.
    MachineConfig cfg;
    cfg.memBytes = 8 * 1024 * 1024;
    cfg.numVcpus = 2;
    cfg.interruptsEnabled = true;
    Machine m(cfg);
    Hypervisor hv(m);

    std::vector<int> trace;
    uint64_t quantum = cfg.costs.timerQuantum();

    LaunchParams params;
    params.bootImage = Bytes(4096, 0x90);
    params.imageBase = 0x1000;
    params.bootVmsaPage = 0x2000;
    params.bootGhcb = 0x3000;
    params.bootIrqMasked = false;
    params.bootEntry = [&](Vcpu &cpu) {
        // Create + register + start a second compute VCPU.
        m.rmp().hvAssign(0x5000);
        cpu.pvalidate(0x5000, true);
        VmsaId ap = cpu.createVmsa(0x5000, 1, Vmpl::Vmpl0, false,
                                   [&](Vcpu &inner) {
                                       for (int i = 0; i < 3; ++i) {
                                           trace.push_back(100 + i);
                                           inner.burn(quantum + 1);
                                       }
                                   });
        machineRegister(cpu, ap, 1);
        Ghcb g;
        g.exitCode = static_cast<uint64_t>(GhcbExit::StartVcpu);
        g.info[0] = 1;
        g.info[1] = 0;
        cpu.hypercall(g);
        for (int i = 0; i < 3; ++i) {
            trace.push_back(i);
            cpu.burn(quantum + 1);
        }
    };
    VmsaId boot = launchCvm(m, hv, params);
    auto result = hv.run(boot);
    EXPECT_FALSE(result.halted);

    // Both VCPUs made full progress...
    ASSERT_EQ(trace.size(), 6u);
    // ...and their execution interleaved (not strictly sequential).
    bool interleaved = false;
    for (size_t i = 0; i + 1 < trace.size(); ++i)
        interleaved |= (trace[i] >= 100) != (trace[i + 1] >= 100);
    EXPECT_TRUE(interleaved) << "round robin did not interleave";
}

TEST_F(HvTest, NpfHaltStopsTheWorld)
{
    VmsaId boot = launch([&](Vcpu &cpu) {
        uint64_t x;
        cpu.readPhys(0x100000, &x, sizeof(x)); // unvalidated page
    });
    auto result = hyper->run(boot);
    EXPECT_TRUE(result.halted);
    EXPECT_TRUE(machine->halted());
}

} // namespace
} // namespace veil::hv
