/**
 * @file
 * 2 MiB large-page fast-path tests (DESIGN.md §14): huge RMP entry
 * promotion eligibility, architecturally faithful smash/split on 4 KiB
 * mutations, RMPADJUST-2M grants, mixed-size translation after smash,
 * split and cr3 switches, multi-threaded splits under the sharded RMP
 * locks, the
 * frame allocator's aligned contiguous ranges with 4 KiB fallback, and
 * end-to-end hugepage + lazy-acceptance boots.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "base/log.hh"
#include "kernel/mm.hh"
#include "sdk/vm.hh"
#include "snp/fault.hh"
#include "snp/machine.hh"
#include "snp/paging.hh"
#include "snp/vcpu.hh"

namespace veil::snp {
namespace {

class LargePageTest : public ::testing::Test
{
  protected:
    static constexpr Gpa kRegion = 0x800000;  ///< 2 MiB-aligned frames
    static constexpr Gva kVa2m = 0x400000;    ///< 2 MiB-aligned VA

    LargePageTest()
    {
        LogConfig::setThreshold(LogLevel::Silent);
        MachineConfig cfg;
        cfg.memBytes = 16 * 1024 * 1024;
        cfg.numVcpus = 1;
        cfg.interruptsEnabled = false;
        cfg.hugePages = true;
        machine = std::make_unique<Machine>(cfg);
        // Validate the low region backing page tables so walks work.
        for (Gpa p = 0; p < kRegion; p += kPageSize) {
            machine->rmp().hvAssign(p);
            machine->rmp().pvalidate(Vmpl::Vmpl0, p, true);
        }
        editor = std::make_unique<PageTableEditor>(
            machine->memory(),
            [this] {
                Gpa f = nextFrame;
                nextFrame += kPageSize;
                return f;
            },
            [](Gpa) {});
    }

    /** Assign + validate kRegion as one huge entry. */
    void
    makeHugeRegion()
    {
        machine->rmp().hvAssign2m(kRegion);
        machine->rmp().pvalidate2m(Vmpl::Vmpl0, kRegion, true);
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
};

// ---- Promotion eligibility ----

TEST_F(LargePageTest, HvAssign2mCreatesHugeEntry)
{
    machine->rmp().hvAssign2m(kRegion);
    EXPECT_TRUE(machine->rmp().isHuge(kRegion));
    EXPECT_TRUE(machine->rmp().isHuge(kRegion + 0x1000));
    EXPECT_TRUE(machine->rmp().isHuge(kRegion + kPageSize2m - kPageSize));
    EXPECT_FALSE(machine->rmp().isHuge(kRegion + kPageSize2m));
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize)
        EXPECT_TRUE(machine->rmp().isAssigned(p));
    EXPECT_EQ(machine->rmp().promotes(), 1u);
}

TEST_F(LargePageTest, Pvalidate2mPromotesPerPageAssignedRegion)
{
    // Per-page hvAssign (the historical launch path), then one
    // PVALIDATE-2M: the region promotes to a huge entry.
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize)
        machine->rmp().hvAssign(p);
    EXPECT_FALSE(machine->rmp().isHuge(kRegion));
    machine->rmp().pvalidate2m(Vmpl::Vmpl0, kRegion, true);
    EXPECT_TRUE(machine->rmp().isHuge(kRegion));
    EXPECT_EQ(machine->rmp().promotes(), 1u);
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize)
        EXPECT_TRUE(machine->rmp().isValidated(p));
}

TEST_F(LargePageTest, Pvalidate2mRejectsNonUniformRegion)
{
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize)
        machine->rmp().hvAssign(p);
    // One shared page in the middle makes the region non-uniform.
    machine->rmp().hvSetShared(kRegion + 0x7000, true);
    EXPECT_THROW(machine->rmp().pvalidate2m(Vmpl::Vmpl0, kRegion, true),
                 NpfFault);
    EXPECT_FALSE(machine->rmp().isHuge(kRegion));
}

TEST_F(LargePageTest, UnalignedOrOutOfRange2mOperandPanics)
{
    EXPECT_THROW(machine->rmp().hvAssign2m(kRegion + kPageSize),
                 PanicError);
    Gpa last = pageAlignDown2m(Gpa(machine->memory().size()));
    // Memory is exactly 16 MiB (2 MiB-multiple); one region past the
    // end is out of range.
    EXPECT_THROW(machine->rmp().hvAssign2m(last), PanicError);
}

// ---- Smash/split on 4 KiB mutation ----

TEST_F(LargePageTest, FourKMutationSmashesHugeEntry)
{
    makeHugeRegion();
    ASSERT_TRUE(machine->rmp().isHuge(kRegion));
    // A 4 KiB PVALIDATE landing inside the huge region demotes it.
    machine->rmp().pvalidate(Vmpl::Vmpl0, kRegion + 0x3000, false);
    EXPECT_FALSE(machine->rmp().isHuge(kRegion));
    EXPECT_EQ(machine->rmp().splits(), 1u);
    // Per-page state stays coherent: only the mutated page changed.
    EXPECT_FALSE(machine->rmp().isValidated(kRegion + 0x3000));
    EXPECT_TRUE(machine->rmp().isValidated(kRegion));
    EXPECT_TRUE(machine->rmp().isValidated(kRegion + 0x4000));
}

TEST_F(LargePageTest, SharedFlipSmashesHugeEntry)
{
    makeHugeRegion();
    machine->rmp().hvSetShared(kRegion + 0x10000, true);
    EXPECT_FALSE(machine->rmp().isHuge(kRegion));
    EXPECT_EQ(machine->rmp().splits(), 1u);
    EXPECT_TRUE(machine->rmp().isShared(kRegion + 0x10000));
    EXPECT_FALSE(machine->rmp().isShared(kRegion + 0x11000));
}

TEST_F(LargePageTest, ExplicitSmashIsIdempotent)
{
    makeHugeRegion();
    machine->rmp().smash(kRegion + 0x42000);
    EXPECT_FALSE(machine->rmp().isHuge(kRegion));
    EXPECT_EQ(machine->rmp().splits(), 1u);
    machine->rmp().smash(kRegion); // already split: no-op
    EXPECT_EQ(machine->rmp().splits(), 1u);
    // State is untouched by PSMASH itself.
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize)
        EXPECT_TRUE(machine->rmp().isValidated(p));
}

// ---- RMPADJUST-2M ----

TEST_F(LargePageTest, Rmpadjust2mRequiresHugeEntryAndGrantsWholeRegion)
{
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize) {
        machine->rmp().hvAssign(p);
        machine->rmp().pvalidate(Vmpl::Vmpl0, p, true);
    }
    // Not huge (per-page validation): the 2 MiB form must fault.
    EXPECT_THROW(machine->rmp().rmpadjust2m(Vmpl::Vmpl0, kRegion,
                                            Vmpl::Vmpl1, kPermRw),
                 NpfFault);
    // Re-validate as a huge entry, then grant VMPL-1 across the region.
    machine->rmp().pvalidate2m(Vmpl::Vmpl0, kRegion, true);
    machine->rmp().rmpadjust2m(Vmpl::Vmpl0, kRegion, Vmpl::Vmpl1, kPermRw);
    VmExit e = runAs(Vmpl::Vmpl1, Cpl::Supervisor, 0, [&](Vcpu &cpu) {
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kRegion));
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kRegion + 0x5000));
        EXPECT_NO_THROW(
            cpu.readObj<uint64_t>(kRegion + kPageSize2m - kPageSize));
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

// ---- Mixed-size translation ----

TEST_F(LargePageTest, HugeLeafTranslatesEveryOffset)
{
    makeHugeRegion();
    Gpa cr3 = editor->createRoot();
    editor->map2m(cr3, kVa2m, kRegion, PageFlags{true, true, false});
    machine->memory().writeObj<uint64_t>(kRegion + 0x5000, 0x5150);
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m + 0x5000), 0x5150u);
        // Every 4 KiB offset resolves through the one 2 MiB leaf.
        for (int i = 0; i < 64; ++i) {
            EXPECT_EQ(walk(machine->memory(), cr3, kVa2m + Gva(i) * 0x1000,
                           Access::Read, Cpl::Supervisor)
                          .gpa,
                      kRegion + Gpa(i) * 0x1000);
        }
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

TEST_F(LargePageTest, MidRegionRmpChangeDeniesNextAccess)
{
    makeHugeRegion();
    Gpa cr3 = editor->createRoot();
    editor->map2m(cr3, kVa2m, kRegion, PageFlags{true, true, false});
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kVa2m + 0x3000));
        // Direct RMP mutation mid-region smashes the huge entry; the
        // next access to the revoked page must fault.
        machine->rmp().pvalidate(Vmpl::Vmpl0, kRegion + 0x3000, false);
        EXPECT_THROW(cpu.readObj<uint64_t>(kVa2m + 0x3000), NpfFault);
        // Untouched offsets keep working at 4 KiB RMP granularity.
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kVa2m));
        EXPECT_NO_THROW(cpu.readObj<uint64_t>(kVa2m + 0x9000));
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
    EXPECT_EQ(machine->rmp().splits(), 1u);
}

TEST_F(LargePageTest, UnmapSplitsHugeLeafAndInvalidates)
{
    makeHugeRegion();
    Gpa cr3 = editor->createRoot();
    editor->map2m(cr3, kVa2m, kRegion, PageFlags{true, true, false});
    machine->memory().writeObj<uint64_t>(kRegion, 0xAAAA);
    machine->memory().writeObj<uint64_t>(kRegion + 0x5000, 0xBBBB);
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m), 0xAAAAu);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m + 0x5000), 0xBBBBu);
        // unmap of one 4 KiB page inside the 2 MiB leaf splits the leaf
        // into a 4 KiB subtree; only the unmapped page stops resolving.
        editor->unmap(cr3, kVa2m + 0x5000);
        EXPECT_THROW(cpu.readObj<uint64_t>(kVa2m + 0x5000),
                     GuestPageFault);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m), 0xAAAAu);
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

TEST_F(LargePageTest, Cr3SwitchRetranslatesBothSizes)
{
    makeHugeRegion();
    constexpr Gva kVa4k = 0x300000;
    Gpa cr3 = editor->createRoot();
    editor->map2m(cr3, kVa2m, kRegion, PageFlags{true, true, false});
    editor->map(cr3, kVa4k, Gpa(kVa4k), PageFlags{true, true, false});
    // A second address space maps the same VAs to other frames.
    Gpa cr3_b = editor->createRoot();
    editor->map(cr3_b, kVa2m + 0x2000, 0x500000, PageFlags{true, true, false});
    editor->map(cr3_b, kVa4k, 0x501000, PageFlags{true, true, false});
    machine->memory().writeObj<uint64_t>(kRegion + 0x2000, 0x2222);
    machine->memory().writeObj<uint64_t>(Gpa(kVa4k), 0x4444);
    machine->memory().writeObj<uint64_t>(0x500000, 0xB222);
    machine->memory().writeObj<uint64_t>(0x501000, 0xB444);
    VmExit e = runAs(Vmpl::Vmpl0, Cpl::Supervisor, cr3, [&](Vcpu &cpu) {
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m + 0x2000), 0x2222u);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa4k), 0x4444u);
        cpu.setCr3(cr3_b);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m + 0x2000), 0xB222u);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa4k), 0xB444u);
        EXPECT_THROW(cpu.readObj<uint64_t>(kVa2m + 0x3000), GuestPageFault);
        cpu.setCr3(cr3);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa2m + 0x2000), 0x2222u);
        EXPECT_EQ(cpu.readObj<uint64_t>(kVa4k), 0x4444u);
    });
    EXPECT_EQ(e.reason, ExitReason::Halted);
}

// ---- Multi-threaded split under the sharded RMP locks ----

TEST_F(LargePageTest, ConcurrentFourKMutationsSplitOnceConsistently)
{
    machine->rmp().setMulticore(true);
    makeHugeRegion();
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            // Half mutate distinct pages inside the region (each would
            // smash); half read the lock-free huge probe + per-page
            // state concurrently.
            if (t % 2 == 0) {
                Gpa p = kRegion + Gpa(t + 1) * kPageSize;
                machine->rmp().pvalidate(Vmpl::Vmpl0, p, false);
                machine->rmp().pvalidate(Vmpl::Vmpl0, p, true);
            } else {
                for (int i = 0; i < 2000; ++i) {
                    (void)machine->rmp().isHuge(kRegion);
                    (void)machine->rmp().isValidated(kRegion +
                                                     Gpa(i % 512) *
                                                         kPageSize);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    // Exactly one mutator won the smash; everything is 4 KiB now and
    // every page ended validated (each mutator re-validated its page).
    EXPECT_FALSE(machine->rmp().isHuge(kRegion));
    EXPECT_EQ(machine->rmp().splits(), 1u);
    for (Gpa p = kRegion; p < kRegion + kPageSize2m; p += kPageSize)
        EXPECT_TRUE(machine->rmp().isValidated(p));
}

// ---- Configuration ----

/// The environment override that Machine no longer reads.
constexpr const char *kHugePagesEnv = "VEIL_HUGEPAGES";

/** Scoped kHugePagesEnv value, restored on exit. */
class ScopedHugePagesEnv
{
  public:
    explicit ScopedHugePagesEnv(const char *value)
    {
        if (const char *old = std::getenv(kHugePagesEnv))
            saved_ = old;
        had_ = std::getenv(kHugePagesEnv) != nullptr;
        ::setenv(kHugePagesEnv, value, 1);
    }
    ~ScopedHugePagesEnv()
    {
        if (had_)
            ::setenv(kHugePagesEnv, saved_.c_str(), 1);
        else
            ::unsetenv(kHugePagesEnv);
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(LargePageConfig, EnvironmentCannotOverrideMachineConfig)
{
    // MachineConfig::hugePages is the only switch: the removed
    // environment escape must not turn the fast path back on.
    ScopedHugePagesEnv env("1");
    MachineConfig cfg;
    cfg.memBytes = 4 * 1024 * 1024;
    cfg.hugePages = false;
    Machine m(cfg);
    EXPECT_FALSE(m.hugePagesEnabled());
}

// ---- FrameAllocator contiguous aligned ranges ----

TEST(LargePageAllocator, AlignedRangeWithGapRecycledAndFallback)
{
    constexpr Gpa kLo = 0x100000; // deliberately NOT 2 MiB aligned
    constexpr size_t kFrames = 1024;
    kern::FrameAllocator a(kLo, kLo + kFrames * kPageSize);

    auto base = a.tryAllocRange(kPagesPer2m, kPagesPer2m);
    ASSERT_TRUE(base.has_value());
    EXPECT_TRUE(isPageAligned2m(*base));
    EXPECT_EQ(a.inUse(), kPagesPer2m);
    // The 256 alignment-gap frames went back to the free list: total
    // 1024 minus the 512 handed out leaves 512 free.
    EXPECT_EQ(a.freeFrames(), kFrames - kPagesPer2m);

    // Not enough aligned room for a second region: fall back to 4 KiB.
    EXPECT_FALSE(a.tryAllocRange(kPagesPer2m, kPagesPer2m).has_value());
    auto f = a.tryAlloc();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(*f < *base || *f >= *base + Gpa(kPagesPer2m) * kPageSize)
        << "fallback frame overlaps the huge range";
}

TEST(LargePageAllocator, AlignedRangeMulticoreRecyclesGapToStripes)
{
    constexpr Gpa kLo = 0x100000;
    constexpr size_t kFrames = 1024;
    kern::FrameAllocator a(kLo, kLo + kFrames * kPageSize);
    a.setMulticore(true);
    auto base = a.tryAllocRange(kPagesPer2m, kPagesPer2m);
    ASSERT_TRUE(base.has_value());
    EXPECT_TRUE(isPageAligned2m(*base));
    EXPECT_EQ(a.freeFrames(), kFrames - kPagesPer2m);
    // Gap frames are reachable again through normal allocation.
    size_t got = 0;
    while (a.tryAlloc())
        ++got;
    EXPECT_EQ(got, kFrames - kPagesPer2m);
}

// ---- End-to-end hugepage + lazy-acceptance boots ----

TEST(LargePageBoot, VeilHugeLazyBootProtectsRegionsAndIsDeterministic)
{
    LogConfig::setThreshold(LogLevel::Silent);
    auto boot = [](bool huge, bool lazy) {
        sdk::VmConfig cfg;
        cfg.machine.memBytes = 32 * 1024 * 1024;
        cfg.machine.numVcpus = 1;
        cfg.machine.hugePages = huge;
        cfg.kernel.lazyAccept = lazy;
        sdk::VeilVm vm(cfg);
        uint64_t tsc = 0;
        vm.run([&](kern::Kernel &k, kern::Process &) {
            tsc = k.cpu().rdtsc();
        });
        struct
        {
            uint64_t tsc, hugeRegions, pscBatches, pvalidates2m;
        } out{tsc, vm.monitor().bootStats().hugeRegions,
              vm.monitor().bootStats().pscBatches,
              vm.machine().stats().pvalidates2m};
        return out;
    };

    auto huge_lazy = boot(true, true);
    EXPECT_GT(huge_lazy.hugeRegions, 0u);
    EXPECT_GT(huge_lazy.pscBatches, 0u);
    EXPECT_GT(huge_lazy.pvalidates2m, 0u);

    // Same-seed replay is bit-identical.
    auto again = boot(true, true);
    EXPECT_EQ(huge_lazy.tsc, again.tsc);

    // Huge pages without lazy acceptance also work (promotion from the
    // per-page assigned launch state).
    auto huge_eager = boot(true, false);
    EXPECT_GT(huge_eager.hugeRegions, 0u);
    EXPECT_EQ(huge_eager.pscBatches, 0u);
}

TEST(LargePageBoot, NativeHugeLazyBootCompletes)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    cfg.machine.hugePages = true;
    cfg.veilEnabled = false;
    cfg.kernel.lazyAccept = true;
    sdk::VeilVm vm(cfg);
    bool ran = false;
    auto r = vm.run([&](kern::Kernel &k, kern::Process &) {
        ran = k.booted();
    });
    EXPECT_TRUE(r.terminated);
    EXPECT_TRUE(ran);
    EXPECT_GT(uint64_t(vm.machine().stats().pvalidates2m), 0u);
    EXPECT_GT(uint64_t(vm.machine().stats().pscBatches), 0u);
}

TEST(LargePageBoot, HugePagesOffIsCycleIdenticalToBaseline)
{
    // The opt-out keeps the default 4 KiB path bit-identical: a boot
    // with hugePages=false must produce the same TSC as one that never
    // heard of the feature (same config, default flag).
    LogConfig::setThreshold(LogLevel::Silent);
    auto boot_tsc = [](bool set_flag) {
        sdk::VmConfig cfg;
        cfg.machine.memBytes = 32 * 1024 * 1024;
        cfg.machine.numVcpus = 1;
        if (set_flag)
            cfg.machine.hugePages = false;
        sdk::VeilVm vm(cfg);
        uint64_t tsc = 0;
        vm.run([&](kern::Kernel &k, kern::Process &) {
            tsc = k.cpu().rdtsc();
        });
        return tsc;
    };
    EXPECT_EQ(boot_tsc(true), boot_tsc(false));
}

} // namespace
} // namespace veil::snp
