/**
 * @file
 * VeilChaos soak and directed fault tests (DESIGN.md §10). A seeded
 * sweep runs the shared soak scenario (sdk/chaos_soak.hh, also driven
 * by bench_chaos) under the canonical fault mixture — dropped /
 * duplicated / delayed relays, denied/misrouted switches, GHCB
 * tampering, spurious interrupts, hostile RMP flips — and asserts its
 * resilience invariants (progress or attributed halt, gap-accounted
 * audit stream, no host plaintext exposure) plus same-seed replay.
 *
 * Directed tests then pin each recovery path (and its budget-exhaustion
 * halt) individually. CHAOS_SOAK_SEEDS overrides the sweep width.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/chaos.hh"
#include "sdk/chaos_soak.hh"

namespace veil {
namespace {

using namespace sdk;
using namespace snp;
using namespace kern;

void
checkInvariants(uint64_t seed, const SoakOutcome &r)
{
    for (const std::string &v : soakViolations(r))
        ADD_FAILURE() << "seed " << seed << ": " << v;
}

TEST(ChaosSoak, SeedSweepHoldsInvariants)
{
    uint64_t seeds = 64;
    if (const char *env = std::getenv("CHAOS_SOAK_SEEDS")) {
        uint64_t n = strtoull(env, nullptr, 10);
        if (n > 0)
            seeds = n;
    }

    uint64_t terminated = 0, halted = 0, injections = 0, retries = 0;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        SoakOutcome r = runSoakSeed(seed);
        checkInvariants(seed, r);
        terminated += r.run.terminated;
        halted += r.run.halted;
        injections += r.faults.totalInjected();
        retries += r.guestRetries;
        if (HasFatalFailure())
            break;
    }
    printf("[  chaos   ] %llu seeds: %llu terminated, %llu halted, "
           "%llu faults injected, %llu guest retries\n",
           (unsigned long long)seeds, (unsigned long long)terminated,
           (unsigned long long)halted, (unsigned long long)injections,
           (unsigned long long)retries);
    // The sweep must actually exercise chaos (faults landed) and the
    // guest's bounded recovery (retries absorbed at least some of them).
    EXPECT_GT(injections, seeds);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(terminated, 0u);
}

TEST(ChaosSoak, HugePageArmHoldsInvariantsAndReplays)
{
    // A slice of the seed sweep on the 2 MiB fast path: every run must
    // still make progress or halt with an attributed reason, leak
    // nothing, and keep the audit accounting identity.
    uint64_t terminated = 0;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SoakOutcome r = runSoakSeed(seed, /*huge_pages=*/true);
        checkInvariants(seed, r);
        if (r.run.terminated)
            ++terminated;
    }
    EXPECT_GT(terminated, 0u);

    // Same-seed replay stays bit-identical with smashes in the mix.
    SoakOutcome a = runSoakSeed(5, /*huge_pages=*/true);
    SoakOutcome b = runSoakSeed(5, /*huge_pages=*/true);
    EXPECT_EQ(a.run.terminated, b.run.terminated);
    EXPECT_EQ(a.run.halted, b.run.halted);
    EXPECT_EQ(a.haltReason, b.haltReason);
    EXPECT_EQ(a.finalTsc, b.finalTsc);
    EXPECT_EQ(a.produced, b.produced);
    EXPECT_EQ(a.stored, b.stored);
    EXPECT_EQ(a.guestRetries, b.guestRetries);
    EXPECT_EQ(a.faults.totalInjected(), b.faults.totalInjected());
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i)
        EXPECT_EQ(a.records[i], b.records[i]);
}

TEST(ChaosSoak, SameSeedReplaysIdentically)
{
    SoakOutcome a = runSoakSeed(3);
    SoakOutcome b = runSoakSeed(3);
    EXPECT_EQ(a.run.terminated, b.run.terminated);
    EXPECT_EQ(a.run.halted, b.run.halted);
    EXPECT_EQ(a.haltReason, b.haltReason);
    EXPECT_EQ(a.finalTsc, b.finalTsc);
    EXPECT_EQ(a.produced, b.produced);
    EXPECT_EQ(a.stored, b.stored);
    EXPECT_EQ(a.guestRetries, b.guestRetries);
    EXPECT_EQ(a.faults.totalInjected(), b.faults.totalInjected());
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i)
        EXPECT_EQ(a.records[i], b.records[i]);
}

// ---- Directed recovery-path tests ----

TEST(ChaosDirected, BudgetedRelayDropsAbsorbedByRetry)
{
    // A handful of swallowed relays is recovered by the sentinel-armed
    // re-issue paths; the run still terminates with a complete stream.
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::RelayDrop, 0.3,
                                 /*seed=*/11, /*budget=*/6));
    EXPECT_TRUE(r.run.terminated) << r.haltReason;
    EXPECT_GE(r.faults.injected[size_t(chaos::FaultSite::RelayDrop)], 1u);
    EXPECT_GE(r.guestRetries, 1u);
    EXPECT_EQ(r.accounted(), r.produced);
    EXPECT_FALSE(r.auditLeaked);
}

TEST(ChaosDirected, PersistentRelayDropHaltsAttributed)
{
    // A hypervisor that swallows every relay cannot livelock the guest:
    // the retry budget expires into an attributed halt.
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::RelayDrop, 1.0,
                                 /*seed=*/12));
    EXPECT_FALSE(r.run.terminated);
    EXPECT_TRUE(r.run.halted);
    EXPECT_NE(r.haltReason.find("retry budget"), std::string::npos)
        << r.haltReason;
}

TEST(ChaosDirected, BudgetedSwitchDenialsAbsorbedByRetry)
{
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::SwitchDeny, 0.3,
                                 /*seed=*/13, /*budget=*/20));
    EXPECT_TRUE(r.run.terminated) << r.haltReason;
    EXPECT_GE(r.faults.injected[size_t(chaos::FaultSite::SwitchDeny)], 1u);
    EXPECT_GE(r.guestRetries, 1u);
    EXPECT_EQ(r.accounted(), r.produced);
}

TEST(ChaosDirected, PersistentSwitchDenialHaltsAttributed)
{
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::SwitchDeny, 1.0,
                                 /*seed=*/14));
    EXPECT_FALSE(r.run.terminated);
    EXPECT_TRUE(r.run.halted);
    EXPECT_NE(r.haltReason.find("starved"), std::string::npos)
        << r.haltReason;
}

TEST(ChaosDirected, GhcbTamperAbsorbed)
{
    // Scribbled result words (fake denials, fake redirects, fake
    // sentinels, garbage) are all survivable: requests re-issue
    // idempotently and the stream stays exact.
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::GhcbTamper, 0.25,
                                 /*seed=*/15, /*budget=*/12));
    EXPECT_TRUE(r.run.terminated) << r.haltReason;
    EXPECT_GE(r.faults.injected[size_t(chaos::FaultSite::GhcbTamper)], 1u);
    EXPECT_EQ(r.accounted(), r.produced);
    uint64_t last = 0;
    for (const auto &rec : r.records) {
        uint64_t seq = auditRecordSeq(rec);
        EXPECT_GT(seq, last) << rec;
        last = seq;
    }
}

TEST(ChaosDirected, SpuriousInterruptsAbsorbed)
{
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::SpuriousIntr, 0.2,
                                 /*seed=*/17, /*budget=*/32));
    EXPECT_TRUE(r.run.terminated) << r.haltReason;
    EXPECT_GE(r.faults.injected[size_t(chaos::FaultSite::SpuriousIntr)], 1u);
    EXPECT_EQ(r.accounted(), r.produced);
}

TEST(ChaosDirected, RmpFlipOfOpRingHaltsNotSilentLoss)
{
    // Flipping the kernel's op submission ring page (where batched
    // audit records queue) to shared must fault the producer's next
    // append (C-bit mismatch #NPF) — tampering with the audit pipeline
    // yields a halt, never silently missing records. The flipped page
    // is host-visible now, but holds only the flip-time scramble
    // (re-keyed ciphertext) — no audit plaintext.
    SoakOutcome r = runDirected(
        chaos::FaultPlan::single(chaos::FaultSite::RmpFlip, 1.0,
                                 /*seed=*/16, /*budget=*/1),
        /*flip_op_ring=*/true);
    EXPECT_FALSE(r.run.terminated);
    EXPECT_TRUE(r.run.halted);
    EXPECT_NE(r.haltReason.find("NPF"), std::string::npos) << r.haltReason;
    EXPECT_FALSE(r.auditLeaked);
}

TEST(ChaosDirected, RmpFlipOfFreeFrameHaltsBeforeEnclaveCreate)
{
    // The host flips a *free* frame to shared; the kernel later hands
    // it out as an enclave heap page without the guest ever storing to
    // it, and VeilS-ENC rightly refuses it at EncCreate — a failed
    // create nothing attributed, in a run that still ends "orderly".
    // The kernel's zero-fill is a private store, so the flip must fault
    // there (#NPF) and halt with that reason instead.
    auto scenario = [](VeilVm &vm, Gpa victim, Gpa *heap_frame,
                       bool *created) {
        return vm.run([&vm, victim, heap_frame, created](Kernel &k,
                                                         Process &p) {
            if (victim != 0)
                vm.machine().rmp().hvSetShared(victim, true);
            NativeEnv env(k, p);
            EnclaveHost host(env, vm.programs());
            *created = host.create([](Env &) -> int64_t { return 0; });
            if (auto leaf = p.as->userLeaf(host.config().heapLo))
                *heap_frame = *leaf & kPteAddrMask;
        });
    };

    // A clean run names the frame the enclave heap gets (allocation is
    // deterministic), so the hostile run can flip it while still free.
    Gpa heap_frame = 0;
    bool created = false;
    {
        VeilVm vm(soakConfig());
        ASSERT_TRUE(scenario(vm, 0, &heap_frame, &created).terminated);
        ASSERT_TRUE(created);
        ASSERT_NE(heap_frame, 0u);
    }
    VeilVm vm(soakConfig());
    Gpa unused = 0;
    created = false;
    auto result = scenario(vm, heap_frame, &unused, &created);
    EXPECT_FALSE(result.terminated) << "create failed unattributed";
    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(created);
    EXPECT_NE(vm.machine().haltInfo().reason.find("NPF"), std::string::npos)
        << vm.machine().haltInfo().reason;
}

TEST(ChaosDirected, RmpFlipOfPageTableHaltsAttributed)
{
    // A flip that lands on a live page-table page leaves re-keyed junk
    // where the kernel's PTEs were. The kernel's next edit of that
    // table is a private access and must fault (#NPF, attributed)
    // rather than trust the junk (a wild "entry" there walks off the
    // end of guest memory and aborts the simulator).
    VeilVm vm(soakConfig());
    auto result = vm.run([&vm](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        Gva first = env.alloc(4096);
        // The leaf table holding the first user mapping (user-only:
        // the kernel's identity map lives in other leaf tables).
        GuestMemory &mem = vm.machine().memory();
        Gpa table = p.as->cr3();
        for (int level = 3; level >= 1; --level) {
            table = mem.readObj<uint64_t>(table + ptIndex(first, level) * 8) &
                    kPteAddrMask;
        }
        vm.machine().rmp().hvSetShared(table, true);
        std::vector<uint8_t> junk(kPageSize, 0x5a);
        mem.write(table, junk.data(), junk.size());
        env.alloc(4096); // mmap maps the next page into that table
    });
    EXPECT_FALSE(result.terminated);
    EXPECT_TRUE(result.halted);
    EXPECT_NE(vm.machine().haltInfo().reason.find("page-table page"),
              std::string::npos)
        << vm.machine().haltInfo().reason;
}

TEST(ChaosDirected, RmpFlipOfWalkedTableHaltsAttributed)
{
    // The hardware walk's table reads are private accesses too. A flip
    // of the leaf table under a live user page must end the next
    // checked read of that page in an #NPF that names the table page,
    // not in a #PF on whatever the re-keyed junk "entry" says.
    VeilVm vm(soakConfig());
    Gpa table = 0;
    auto result = vm.run([&vm, &table](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        Gva first = env.alloc(4096);
        GuestMemory &mem = vm.machine().memory();
        table = p.as->cr3();
        for (int level = 3; level >= 1; --level) {
            table = mem.readObj<uint64_t>(table + ptIndex(first, level) * 8) &
                    kPteAddrMask;
        }
        vm.machine().rmp().hvSetShared(table, true);
        std::vector<uint8_t> junk(kPageSize, 0x5a);
        mem.write(table, junk.data(), junk.size());
        uint64_t word = 0;
        env.copyOut(first, &word, sizeof(word)); // a user-mode read
    });
    EXPECT_FALSE(result.terminated);
    EXPECT_TRUE(result.halted);
    const HaltInfo &halt = vm.machine().haltInfo();
    EXPECT_NE(halt.reason.find("unhandled #NPF"), std::string::npos)
        << halt.reason;
    EXPECT_NE(halt.reason.find("page-table page"), std::string::npos)
        << halt.reason;
    EXPECT_EQ(halt.gpa, table);
}

TEST(ChaosDirected, RedirectsAndDeadlineFlushSurviveChaos)
{
    // Satellite: interrupt redirects from enclave execution, the masked
    // timer latch, and the batched-audit deadline flush all interact
    // under non-lethal chaos; the record stream must stay exact.
    VmConfig cfg = soakConfig();
    cfg.kernel.opFlushDeadlineCycles = 50'000;
    VeilVm vm(cfg);
    const uint64_t quantum = vm.machine().costs().timerQuantum();

    chaos::FaultPlan plan;
    plan.seed = 0xfeed;
    auto arm = [&](chaos::FaultSite s, double p, uint32_t budget) {
        plan.probability[size_t(s)] = p;
        plan.budget[size_t(s)] = budget;
    };
    // Non-lethal sites only: spurious vectors can legitimately halt a
    // CVM mid-enclave-session (unmapped handler — Table 2), and that
    // outcome is the sweep's to cover; this test pins the survivable
    // interaction of redirects, the timer latch, and the deadline flush.
    arm(chaos::FaultSite::RelayDelay, 0.3, 300);
    arm(chaos::FaultSite::RelayDuplicate, 0.1, 24);
    arm(chaos::FaultSite::GhcbTamper, 0.1, 24);
    chaos::FaultInjector inj(plan);
    vm.hypervisor().setFaultInjector(&inj);
    vm.hypervisor().setExitCap(200'000);

    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 10; ++i)
            env.close(999);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([quantum](Env &e) -> int64_t {
            for (int i = 0; i < 5; ++i)
                e.close(999);
            e.burn(3 * quantum); // force redirected timer interrupts
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);
        for (int i = 0; i < 3; ++i)
            env.close(999);
        // Idle long enough for the deadline flush to drain the tail.
        k.cpu().burn(3 * quantum);
        EXPECT_EQ(k.opRingPending(0), 0u);
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
    EXPECT_GT(vm.hypervisor().stats().intrRedirects, 0u);
    EXPECT_GE(vm.kernel().stats().opFlushDeadline, 1u);
    EXPECT_GE(inj.stats().totalInjected(), 1u);

    const KernelStats &s = vm.kernel().stats();
    auto records = vm.services().log().snapshotRecords();
    EXPECT_EQ(records.size() + vm.services().log().droppedRecords(),
              s.auditRecords);
    uint64_t last = 0;
    for (const auto &rec : records) {
        uint64_t seq = auditRecordSeq(rec);
        EXPECT_GT(seq, last) << rec;
        last = seq;
    }
    EXPECT_FALSE(sharedPagesContain(vm, "msg=audit(", 10));
}

} // namespace
} // namespace veil
