/**
 * @file
 * VeilFleet tests (§13): clone attestation + behavioral equivalence
 * with a fresh boot, CoW isolation between clones, the fleet scheduler
 * (single-threaded determinism, work stealing, multicore workers),
 * memory-pressure eviction, frame steady-state across a whole fleet,
 * and same-seed chaos replay with the fleet's own fault sites.
 */
#include <gtest/gtest.h>


#include "base/log.hh"
#include "fleet/fleet.hh"
#include "sdk/vm.hh"

namespace veil {
namespace {

using namespace sdk;
using namespace snp;
using namespace kern;
using fleet::FleetConfig;
using fleet::FleetManager;

VmConfig
fleetVmConfig(uint32_t vcpus = 2, uint32_t host_threads = 0)
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 64 * 1024 * 1024;
    cfg.machine.numVcpus = vcpus;
    cfg.machine.hostThreads = host_threads;
    return cfg;
}

/** Small template so tests stay fast; geometry shared by every case. */
FleetConfig
smallFleet()
{
    FleetConfig fc;
    fc.codePages = 4;
    fc.heapPages = 64;
    fc.stackPages = 4;
    fc.pagesPerCall = 4;
    fc.burnPerCall = 2'000;
    return fc;
}

EnclaveHost::Params
paramsFor(const FleetConfig &fc)
{
    EnclaveHost::Params p;
    p.codePages = fc.codePages;
    p.heapPages = fc.heapPages;
    p.stackPages = fc.stackPages;
    return p;
}

TEST(FleetClone, AttestsToTemplateAndMatchesFreshBootBehavior)
{
    VmConfig cfg = fleetVmConfig(1);
    VeilVm vm(cfg);
    FleetConfig fc = smallFleet();
    FleetManager fm(vm, fc);
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));

        // CoW clone: no build, no measurement pass — and it attests to
        // exactly the template's measurement.
        Process &cp = k.makeProcess("clone", /*light_as=*/true);
        cp.audited = false;
        NativeEnv cenv(k, cp);
        EnclaveHost clone(cenv, vm.programs());
        ASSERT_TRUE(clone.createFromSnapshot(fm.snapshot()));
        EXPECT_EQ(clone.fetchMeasurement(),
                  fm.snapshot().expectedMeasurement);
        EXPECT_EQ(clone.expectedMeasurement(),
                  fm.snapshot().expectedMeasurement);

        // Fresh full boot of the same workload: the clone's observable
        // state evolution (per-call checksums over counter + touched
        // heap) must be byte-identical to it, call for call.
        Process &fp = k.makeProcess("fresh", /*light_as=*/true);
        fp.audited = false;
        NativeEnv fenv(k, fp);
        EnclaveHost fresh(fenv, vm.programs());
        ASSERT_TRUE(
            fresh.create(FleetManager::makeWorkload(fc), paramsFor(fc)));

        for (int i = 0; i < 5; ++i) {
            int64_t a = clone.call();
            int64_t b = fresh.call();
            EXPECT_EQ(a, b) << "diverged at call " << i;
        }
        EXPECT_EQ(clone.destroy(), 0);
        EXPECT_EQ(fresh.destroy(), 0);
        fm.releaseTemplate(k);
    });
    EXPECT_TRUE(run.terminated);
    EXPECT_FALSE(run.halted);
}

TEST(FleetClone, CowIsolatesClonesFromEachOther)
{
    VeilVm vm(fleetVmConfig(1));
    FleetConfig fc = smallFleet();
    FleetManager fm(vm, fc);
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));

        Process &pa = k.makeProcess("a", true);
        pa.audited = false;
        NativeEnv ea(k, pa);
        EnclaveHost a(ea, vm.programs());
        ASSERT_TRUE(a.createFromSnapshot(fm.snapshot()));

        Process &pb = k.makeProcess("b", true);
        pb.audited = false;
        NativeEnv eb(k, pb);
        EnclaveHost b(eb, vm.programs());
        ASSERT_TRUE(b.createFromSnapshot(fm.snapshot()));

        // A runs three calls, dirtying template pages through CoW; B's
        // view is untouched — its first call still sees call index 1.
        int64_t first = a.call();
        a.call();
        a.call();
        EXPECT_EQ(b.call(), first);
        // And A's private writes keep evolving independently.
        EXPECT_NE(a.call(), first);

        EXPECT_EQ(a.destroy(), 0);
        EXPECT_EQ(b.destroy(), 0);
        fm.releaseTemplate(k);
    });
    EXPECT_TRUE(run.terminated);
}

TEST(FleetClone, HugePageModeIsByteIdenticalTo4kMode)
{
    // CoW writes into a template sealed inside promoted 2 MiB regions
    // force RMP smashes on the huge fast path; the clone's observable
    // state evolution must nonetheless match the 4 KiB mode byte for
    // byte — splits are a representation change, never a behavior one.
    auto run_calls = [](bool huge) {
        VmConfig cfg = fleetVmConfig(1);
        cfg.machine.hugePages = huge;
        VeilVm vm(cfg);
        FleetConfig fc = smallFleet();
        FleetManager fm(vm, fc);
        struct
        {
            std::vector<int64_t> calls;
            crypto::Digest measurement{};
        } out;
        auto run = vm.run([&](Kernel &k, Process &) {
            ASSERT_TRUE(fm.sealTemplate(k));
            Process &cp = k.makeProcess("clone", /*light_as=*/true);
            cp.audited = false;
            NativeEnv cenv(k, cp);
            EnclaveHost clone(cenv, vm.programs());
            ASSERT_TRUE(clone.createFromSnapshot(fm.snapshot()));
            out.measurement = clone.fetchMeasurement();
            for (int i = 0; i < 8; ++i)
                out.calls.push_back(clone.call());
            EXPECT_EQ(clone.destroy(), 0);
            fm.releaseTemplate(k);
        });
        EXPECT_TRUE(run.terminated);
        return out;
    };
    auto huge = run_calls(true);
    auto base = run_calls(false);
    ASSERT_EQ(huge.calls.size(), base.calls.size());
    EXPECT_EQ(huge.calls, base.calls);
    EXPECT_EQ(huge.measurement, base.measurement);
}

TEST(FleetClone, SnapshotReleaseStopsNewClones)
{
    VeilVm vm(fleetVmConfig(1));
    FleetConfig fc = smallFleet();
    FleetManager fm(vm, fc);
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));
        EnclaveSnapshot snap = fm.snapshot(); // survives the release

        Process &pa = k.makeProcess("a", true);
        pa.audited = false;
        NativeEnv ea(k, pa);
        EnclaveHost a(ea, vm.programs());
        ASSERT_TRUE(a.createFromSnapshot(snap));
        EXPECT_EQ(a.destroy(), 0);

        fm.releaseTemplate(k);

        Process &pb = k.makeProcess("b", true);
        pb.audited = false;
        NativeEnv eb(k, pb);
        EnclaveHost b(eb, vm.programs());
        EXPECT_FALSE(b.createFromSnapshot(snap));
    });
    EXPECT_TRUE(run.terminated);
}

TEST(FleetSched, RunsAllSessionsSingleThreadedAndReturnsFrames)
{
    VeilVm vm(fleetVmConfig(2));
    FleetConfig fc = smallFleet();
    fc.sessions = 24;
    fc.maxLive = 6;
    fc.quantum = 2;
    fc.callsMax = 6;
    fc.seed = 7;
    FleetManager fm(vm, fc);
    uint64_t frames_before = 0, frames_after = 0;
    auto run = vm.run([&](Kernel &k, Process &) {
        frames_before = k.frames().inUse();
        ASSERT_TRUE(fm.sealTemplate(k));
        fm.run(k);
        fm.releaseTemplate(k);
        frames_after = k.frames().inUse();
    });
    EXPECT_TRUE(run.terminated);
    const fleet::FleetStats &s = fm.stats();
    EXPECT_EQ(s.sessionsCompleted, 24u);
    EXPECT_EQ(s.clones, 24u);
    EXPECT_EQ(s.cloneFailures, 0u);
    EXPECT_EQ(s.checksumErrors, 0u);
    EXPECT_EQ(s.killedSessions, 0u);
    uint64_t expected_calls = 0;
    for (uint32_t i = 0; i < fc.sessions; ++i)
        expected_calls += fm.callsFor(i);
    EXPECT_EQ(s.callsCompleted, expected_calls);
    EXPECT_LE(s.peakLive, fc.maxLive);
    EXPECT_GT(fm.bootCycles(), fm.avgCloneCycles());
    // Session churn is a steady state: every frame a session took —
    // page tables, ocall block, GHCB, CoW copies, the template image —
    // came back when the fleet drained.
    EXPECT_EQ(frames_after, frames_before);
}

TEST(FleetSched, WorkStealingDrainsUnevenQueues)
{
    VeilVm vm(fleetVmConfig(2));
    FleetConfig fc = smallFleet();
    fc.sessions = 16;
    fc.maxLive = 8;
    fc.quantum = 1;
    fc.callsMax = 8;
    fc.seed = 11;
    FleetManager fm(vm, fc);
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));
        fm.run(k);
        fm.releaseTemplate(k);
    });
    EXPECT_TRUE(run.terminated);
    EXPECT_EQ(fm.stats().sessionsCompleted, 16u);
    EXPECT_EQ(fm.stats().checksumErrors, 0u);
    // Zipf call counts drain the two logical queues unevenly; the
    // empty one must have pulled work over.
    EXPECT_GT(fm.stats().steals, 0u);
}

TEST(FleetSched, MulticoreWorkersCompleteTheFleet)
{
    VeilVm vm(fleetVmConfig(4, /*host_threads=*/4));
    FleetConfig fc = smallFleet();
    fc.sessions = 12;
    fc.maxLive = 6;
    fc.quantum = 2;
    fc.callsMax = 4;
    fc.seed = 3;
    FleetManager fm(vm, fc);
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));
        fm.run(k);
        fm.releaseTemplate(k);
    });
    EXPECT_TRUE(run.terminated);
    const fleet::FleetStats &s = fm.stats();
    EXPECT_EQ(s.sessionsCompleted, 12u);
    EXPECT_EQ(s.cloneFailures, 0u);
    EXPECT_EQ(s.checksumErrors, 0u);
    uint64_t expected_calls = 0;
    for (uint32_t i = 0; i < fc.sessions; ++i)
        expected_calls += fm.callsFor(i);
    EXPECT_EQ(s.callsCompleted, expected_calls);
}

TEST(FleetEvict, FrameBudgetEvictsAndSessionsStillComplete)
{
    VeilVm vm(fleetVmConfig(2));
    FleetConfig fc = smallFleet();
    fc.sessions = 8;
    fc.maxLive = 4;
    fc.quantum = 1;
    fc.callsMax = 8;
    fc.pagesPerCall = 8;
    fc.seed = 5;
    fc.frameBudget = 200; // well under the fleet's natural working set
    FleetManager fm(vm, fc);
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));
        fm.run(k);
        fm.releaseTemplate(k);
    });
    EXPECT_TRUE(run.terminated);
    const fleet::FleetStats &s = fm.stats();
    EXPECT_EQ(s.sessionsCompleted, 8u);
    // Pressure fired, pages went through the sealed swap path, and the
    // sessions still produced exactly the right answers.
    EXPECT_GT(s.evictionSweeps, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.checksumErrors, 0u);
}

// ---- Chaos: fleet sites replay deterministically ----

struct FleetChaosOutcome
{
    bool terminated = false;
    bool halted = false;
    std::string haltReason;
    uint64_t finalTsc = 0;
    fleet::FleetStats stats;
    uint64_t injected = 0;
};

FleetChaosOutcome
runFleetChaosSeed(uint64_t seed)
{
    VeilVm vm(fleetVmConfig(2));
    chaos::FaultPlan plan;
    plan.seed = seed;
    plan.probability[size_t(chaos::FaultSite::EvictRace)] = 0.3;
    plan.budget[size_t(chaos::FaultSite::EvictRace)] = 64;
    plan.probability[size_t(chaos::FaultSite::CloneRmpFlip)] = 0.1;
    plan.budget[size_t(chaos::FaultSite::CloneRmpFlip)] = 1;
    chaos::FaultInjector inj(plan);

    FleetConfig fc = smallFleet();
    fc.sessions = 10;
    fc.maxLive = 4;
    fc.quantum = 1;
    fc.callsMax = 6;
    fc.pagesPerCall = 8;
    fc.seed = seed;
    fc.frameBudget = 200; // drive eviction so EvictRace has a stage
    fc.chaos = &inj;
    FleetManager fm(vm, fc);

    FleetChaosOutcome out;
    auto run = vm.run([&](Kernel &k, Process &) {
        ASSERT_TRUE(fm.sealTemplate(k));
        fm.run(k);
        fm.releaseTemplate(k);
    });
    out.terminated = run.terminated;
    out.halted = run.halted;
    out.haltReason = vm.machine().haltInfo().reason;
    out.finalTsc = vm.machine().tsc();
    out.stats = fm.stats();
    out.injected = inj.stats().totalInjected();
    return out;
}

TEST(FleetChaos, ProgressOrAttributedHalt)
{
    for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        FleetChaosOutcome o = runFleetChaosSeed(seed);
        // Either the whole fleet drained, or a CloneRmpFlip landed and
        // the first touch of the flipped template page halted the CVM
        // with attribution. No third outcome, and never bad data.
        if (o.terminated) {
            EXPECT_EQ(o.stats.sessionsCompleted, 10u) << "seed " << seed;
        } else {
            ASSERT_TRUE(o.halted) << "seed " << seed;
            EXPECT_FALSE(o.haltReason.empty()) << "seed " << seed;
        }
        EXPECT_EQ(o.stats.checksumErrors, 0u) << "seed " << seed;
    }
}

TEST(FleetChaos, SameSeedReplaysIdentically)
{
    FleetChaosOutcome a = runFleetChaosSeed(3);
    FleetChaosOutcome b = runFleetChaosSeed(3);
    EXPECT_EQ(a.terminated, b.terminated);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.haltReason, b.haltReason);
    EXPECT_EQ(a.finalTsc, b.finalTsc);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.stats.sessionsCompleted, b.stats.sessionsCompleted);
    EXPECT_EQ(a.stats.callsCompleted, b.stats.callsCompleted);
    EXPECT_EQ(a.stats.clones, b.stats.clones);
    EXPECT_EQ(a.stats.steals, b.stats.steals);
    EXPECT_EQ(a.stats.evictions, b.stats.evictions);
    EXPECT_EQ(a.stats.chaosEvictRaces, b.stats.chaosEvictRaces);
    EXPECT_EQ(a.stats.chaosCloneFlips, b.stats.chaosCloneFlips);
}

} // namespace
} // namespace veil
