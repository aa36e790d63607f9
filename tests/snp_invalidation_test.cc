/**
 * @file
 * Invalidation semantics of the checked guest-access path: after a
 * page-table edit (unmap, protect, destroyRoot with frame recycling),
 * an RMP mutation (RMPADJUST revoke, PVALIDATE un-validate, from this
 * or another VCPU) or a CR3 switch, the *next* checked access must
 * reflect the edit. Also pins readCStr's page-crossing per-byte
 * accounting and the simulated cycles of two translation-heavy
 * sequences (4 KiB and mixed-size) against recorded values.
 */
#include <gtest/gtest.h>


#include "base/log.hh"
#include "snp/fault.hh"
#include "snp/machine.hh"
#include "snp/paging.hh"
#include "snp/vcpu.hh"

namespace veil::snp {
namespace {

class InvalidationTest : public ::testing::Test
{
  protected:
    static constexpr Gva kVa = 0x400000;

    InvalidationTest()
    {
        LogConfig::setThreshold(LogLevel::Silent);
        MachineConfig cfg;
        cfg.memBytes = 8 * 1024 * 1024;
        cfg.numVcpus = 1;
        cfg.interruptsEnabled = false;
        machine = std::make_unique<Machine>(cfg);
        for (Gpa p = 0; p < Gpa(machine->memory().size()); p += kPageSize) {
            machine->rmp().hvAssign(p);
            machine->rmp().pvalidate(Vmpl::Vmpl0, p, true);
        }
        editor = std::make_unique<PageTableEditor>(
            machine->memory(),
            [this] {
                if (!freeFrames.empty()) {
                    Gpa f = freeFrames.back();
                    freeFrames.pop_back();
                    return f;
                }
                Gpa f = nextFrame;
                nextFrame += kPageSize;
                return f;
            },
            [this](Gpa p) { freeFrames.push_back(p); });
    }

    template <typename Fn>
    VmExit
    runAs(Vmpl vmpl, Cpl cpl, Gpa cr3, Fn &&fn)
    {
        Vmsa v;
        v.vmpl = vmpl;
        v.cpl = cpl;
        v.cr3 = cr3;
        v.entry = [fn = std::forward<Fn>(fn)](Vcpu &cpu) { fn(cpu); };
        return machine->enter(machine->addVmsa(std::move(v)));
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<PageTableEditor> editor;
    Gpa nextFrame = 0x100000;
    std::vector<Gpa> freeFrames;
};

TEST_F(InvalidationTest, UnmapFaultsNextAccess)
{
    Gpa cr3 = editor->createRoot();
    editor->map(cr3, kVa, 0x200000, PageFlags{true, true, false});
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        cpu.writeObj<uint64_t>(kVa, 0x1122334455667788ULL);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 0x1122334455667788ULL);
        editor->unmap(cr3, kVa);
        EXPECT_THROW(cpu.readObj<uint64_t>(kVa), GuestPageFault);
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

TEST_F(InvalidationTest, ProtectRevokesWritePermission)
{
    Gpa cr3 = editor->createRoot();
    editor->map(cr3, kVa, 0x200000, PageFlags{true, true, false});
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        cpu.writeObj<uint64_t>(kVa, 1);
        editor->protect(cr3, kVa, PageFlags{false, true, false});
        EXPECT_THROW(cpu.writeObj<uint64_t>(kVa, 2), GuestPageFault);
        // Reads survive the downgrade.
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 1u);
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

TEST_F(InvalidationTest, RmpadjustRevocationFaultsNextAccess)
{
    Gpa page = 0x200000;
    machine->rmp().rmpadjust(Vmpl::Vmpl0, page, Vmpl::Vmpl1, kPermRw);
    // VMPL-1 reads through the identity map (supervisor); after VMPL-0
    // revokes, the very next VMPL-1 access must raise #NPF and halt the
    // CVM.
    VmExit e = runAs(Vmpl::Vmpl1, Cpl::Supervisor, 0, [&](Vcpu &cpu) {
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(page));
        machine->rmp().rmpadjust(Vmpl::Vmpl0, page, Vmpl::Vmpl1, kPermNone);
        cpu.readObj<uint64_t>(page); // throws NpfFault
        ADD_FAILURE() << "revoked access did not fault";
    });
    EXPECT_EQ(e.reason, ExitReason::NpfHalt);
}

TEST_F(InvalidationTest, PvalidateUnvalidateFaultsNextAccess)
{
    Gpa page = 0x201000;
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, 0, [&](Vcpu &cpu) {
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(page));
        cpu.pvalidate(page, false);
        cpu.readObj<uint64_t>(page); // throws NpfFault
        ADD_FAILURE() << "unvalidated access did not fault";
    });
    EXPECT_EQ(e.reason, ExitReason::NpfHalt);
}

TEST_F(InvalidationTest, Cr3SwitchIsolatesAddressSpaces)
{
    Gpa cr3_a = editor->createRoot();
    Gpa cr3_b = editor->createRoot();
    editor->map(cr3_a, kVa, 0x200000, PageFlags{true, true, false});
    editor->map(cr3_b, kVa, 0x202000, PageFlags{true, true, false});
    machine->memory().writeObj<uint64_t>(0x200000, 0xAAAA);
    machine->memory().writeObj<uint64_t>(0x202000, 0xBBBB);
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3_a, [&](Vcpu &cpu) {
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 0xAAAAu);
        cpu.setCr3(cr3_b);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 0xBBBBu);
        cpu.setCr3(cr3_a);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 0xAAAAu);
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

TEST_F(InvalidationTest, DestroyRootSurvivesTableFrameRecycling)
{
    Gpa cr3_a = editor->createRoot();
    editor->map(cr3_a, kVa, 0x200000, PageFlags{true, true, false});
    machine->memory().writeObj<uint64_t>(0x200000, 0xAAAA);
    machine->memory().writeObj<uint64_t>(0x203000, 0xCCCC);
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3_a, [&](Vcpu &cpu) {
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 0xAAAAu);
        // Tear the tree down and rebuild: the free-list allocator hands
        // the old root frame back, so the new cr3 aliases the old one.
        // Deliberately no setCr3: the VMSA's cr3 value is unchanged, and
        // the next access must see the rebuilt tree.
        editor->destroyRoot(cr3_a);
        Gpa cr3_new = editor->createRoot();
        ASSERT_EQ(cr3_new, cr3_a);
        editor->map(cr3_new, kVa, 0x203000, PageFlags{true, true, false});
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa), 0xCCCCu);
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

TEST_F(InvalidationTest, SecondVcpuObservesRmpRevocation)
{
    Gpa page = 0x200000;
    machine->rmp().rmpadjust(Vmpl::Vmpl0, page, Vmpl::Vmpl1, kPermRw);

    // VCPU A (VMPL-1) reads the page, exits, and retries after VCPU B
    // (VMPL-0) revoked its permission from another VMSA.
    Vmsa a;
    a.vmpl = Vmpl::Vmpl1;
    a.entry = [&](Vcpu &cpu) {
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(page));
        cpu.vmgexit();
        cpu.readObj<uint64_t>(page); // throws NpfFault after revocation
        ADD_FAILURE() << "access survived cross-VCPU revocation";
    };
    VmsaId id_a = machine->addVmsa(std::move(a));

    Vmsa b;
    b.vmpl = Vmpl::Vmpl0;
    b.entry = [&](Vcpu &cpu) {
        cpu.rmpadjust(page, Vmpl::Vmpl1, kPermNone);
    };
    VmsaId id_b = machine->addVmsa(std::move(b));

    EXPECT_EQ(machine->enter(id_a).reason, ExitReason::NonAutomatic);
    EXPECT_EQ(machine->enter(id_b).reason, ExitReason::Halted);
    EXPECT_EQ(machine->enter(id_a).reason, ExitReason::NpfHalt);
}

TEST_F(InvalidationTest, ReadCStrCrossesPagesAndKeepsPerByteAccounting)
{
    Gpa cr3 = editor->createRoot();
    editor->map(cr3, kVa, 0x200000, PageFlags{true, true, false});
    editor->map(cr3, kVa + kPageSize, 0x201000, PageFlags{true, true, false});
    // 100 chars ending 40 bytes into the second page.
    std::string s(100, 'a');
    machine->memory().write(0x200000 + kPageSize - 61, s.c_str(),
                            s.size() + 1);
    runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        uint64_t t0 = cpu.rdtsc();
        EXPECT_EQ(cpu.readCStr(kVa + kPageSize - 61), s);
        uint64_t delta = cpu.rdtsc() - t0;
        // Historical model: every examined byte (terminator included)
        // costs copyCost(1).
        EXPECT_EQ(delta, 101 * machine->costs().copyCost(1));
        EXPECT_THROW(cpu.readCStr(kVa + kPageSize - 61, 5), FatalError);
        // Unmapping the second page faults the next page-crossing read.
        editor->unmap(cr3, kVa + kPageSize);
        EXPECT_THROW(cpu.readCStr(kVa + kPageSize - 61), GuestPageFault);
    });
}

// ---- Recorded simulated cycles ----

/**
 * Drive one machine through a fixed, translation-heavy access sequence
 * (hot loop, strided pages, cross-page string reads, CR3 switches,
 * unmap faults, RMP revocations) with timer interrupts enabled, and
 * return the final TSC plus the interrupt count.
 */
std::pair<uint64_t, uint64_t>
runFixedSequence()
{
    LogConfig::setThreshold(LogLevel::Silent);
    MachineConfig cfg;
    cfg.memBytes = 8 * 1024 * 1024;
    cfg.numVcpus = 1;
    cfg.interruptsEnabled = true;
    // Shrink the quantum so timers actually fire inside the sequence.
    cfg.costs.timerHz = 100000;
    Machine m(cfg);
    for (Gpa p = 0; p < Gpa(m.memory().size()); p += kPageSize) {
        m.rmp().hvAssign(p);
        m.rmp().pvalidate(Vmpl::Vmpl0, p, true);
    }
    Gpa next_frame = 0x100000;
    PageTableEditor editor(
        m.memory(),
        [&next_frame] {
            Gpa f = next_frame;
            next_frame += kPageSize;
            return f;
        },
        [](Gpa) {});
    Gpa cr3 = editor.createRoot();
    for (int i = 0; i < 16; ++i) {
        editor.map(cr3, 0x400000 + Gva(i) * kPageSize,
                   0x200000 + Gpa(i) * kPageSize,
                   PageFlags{true, true, false});
    }
    std::string s(300, 'q');
    m.memory().write(0x200000 + kPageSize - 100, s.c_str(), s.size() + 1);

    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.cr3 = cr3;
    v.entry = [&](Vcpu &cpu) {
        std::vector<uint8_t> buf(kPageSize);
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 50; ++i)
                cpu.readObj<uint64_t>(0x400000 + 8 * Gva(i % 100));
            for (int i = 0; i < 16; ++i)
                cpu.read(0x400000 + Gva(i) * kPageSize, buf.data(),
                         buf.size());
            cpu.readCStr(0x400000 + kPageSize - 100);
            cpu.setCr3(0);
            cpu.readObj<uint64_t>(0x200000);
            cpu.setCr3(cr3);
        }
        editor.unmap(cr3, 0x400000 + 15 * kPageSize);
        EXPECT_THROW(cpu.readObj<uint64_t>(0x400000 + 15 * kPageSize),
                     GuestPageFault);
        cpu.pvalidate(0x205000, false);
        EXPECT_THROW(cpu.readObj<uint64_t>(0x400000 + 5 * kPageSize),
                     NpfFault);
    };
    VmsaId id = m.addVmsa(std::move(v));
    while (m.enter(id).reason == ExitReason::AutomaticIntr) {
    }
    return {m.tsc(), m.stats().timerInterrupts};
}

/**
 * The same over a 2 MiB leaf: strided reads through the huge leaf,
 * CR3 switches, an unmap that splits the leaf, and an RMP change that
 * smashes the huge RMP entry mid-region.
 */
std::pair<uint64_t, uint64_t>
runMixedSizeSequence()
{
    LogConfig::setThreshold(LogLevel::Silent);
    MachineConfig cfg;
    cfg.memBytes = 16 * 1024 * 1024;
    cfg.numVcpus = 1;
    cfg.interruptsEnabled = true;
    cfg.costs.timerHz = 100000;
    cfg.hugePages = true;
    Machine m(cfg);
    constexpr Gpa kRegion = 0x800000;
    for (Gpa p = 0; p < kRegion; p += kPageSize) {
        m.rmp().hvAssign(p);
        m.rmp().pvalidate(Vmpl::Vmpl0, p, true);
    }
    m.rmp().hvAssign2m(kRegion);
    m.rmp().pvalidate2m(Vmpl::Vmpl0, kRegion, true);
    Gpa next_frame = 0x100000;
    PageTableEditor editor(
        m.memory(),
        [&next_frame] {
            Gpa f = next_frame;
            next_frame += kPageSize;
            return f;
        },
        [](Gpa) {});
    Gpa cr3 = editor.createRoot();
    constexpr Gva kVa2m = 0x400000;
    editor.map2m(cr3, kVa2m, kRegion, PageFlags{true, true, false});

    Vmsa v;
    v.vmpl = Vmpl::Vmpl0;
    v.cr3 = cr3;
    v.entry = [&](Vcpu &cpu) {
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 64; ++i)
                cpu.readObj<uint64_t>(kVa2m + Gva(i) * 0x1000);
            cpu.setCr3(0);
            cpu.readObj<uint64_t>(kRegion);
            cpu.setCr3(cr3);
        }
        // Unmap one 4 KiB page: splits the 2 MiB leaf.
        editor.unmap(cr3, kVa2m + 0x5000);
        EXPECT_THROW(cpu.readObj<uint64_t>(kVa2m + 0x5000),
                     GuestPageFault);
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kVa2m));
        // RMP change mid-huge-page: smash, then revoked validation.
        m.rmp().pvalidate(Vmpl::Vmpl0, kRegion + 0x9000, false);
        EXPECT_THROW(cpu.readObj<uint64_t>(kVa2m + 0x9000), NpfFault);
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kVa2m + 0xa000));
    };
    VmsaId id = m.addVmsa(std::move(v));
    while (m.enter(id).reason == ExitReason::AutomaticIntr) {
    }
    return {m.tsc(), m.stats().timerInterrupts};
}

// Recorded with the software TLB (cached walk + RMP verdicts) that
// this path once had, on and off alike: translation never charged a
// cycle, so these must not move.
constexpr uint64_t kFixedSequenceTsc = 779108;
constexpr uint64_t kFixedSequenceInterrupts = 31;
constexpr uint64_t kMixedSizeSequenceTsc = 60336;
constexpr uint64_t kMixedSizeSequenceInterrupts = 2;

TEST(InvalidationCycles, FixedSequenceMatchesRecording)
{
    auto [tsc, interrupts] = runFixedSequence();
    EXPECT_EQ(tsc, kFixedSequenceTsc);
    EXPECT_EQ(interrupts, kFixedSequenceInterrupts);
    EXPECT_GT(interrupts, 0u) << "sequence too short to exercise the timer";
}

TEST(InvalidationCycles, MixedSizeSequenceMatchesRecording)
{
    auto [tsc, interrupts] = runMixedSizeSequence();
    EXPECT_EQ(tsc, kMixedSizeSequenceTsc);
    EXPECT_EQ(interrupts, kMixedSizeSequenceInterrupts);
    EXPECT_GT(interrupts, 0u) << "sequence too short to exercise the timer";
}

} // namespace
} // namespace veil::snp
