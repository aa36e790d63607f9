/**
 * @file
 * Crypto-rewrite equivalence guard: a full Veil boot plus an enclave
 * page-out/page-in round trip must produce the exact same final TSC
 * and MachineStats as recorded from the seed
 * (pre-T-table, pre-midstate) crypto implementation. Crypto costs are
 * charged by callers through the cost model, never derived from host
 * work, so any drift here means the host-side rewrite leaked into
 * simulated time. Also pins the steady-state no-rekey contract: warm
 * ENC page-out/page-in and LOG appends compute zero AES key schedules
 * and zero HMAC key initializations.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "base/log.hh"
#include "crypto/stats.hh"
#include "paging_scenario.hh"
#include "sdk/vm.hh"

namespace veil {
namespace {

using namespace sdk;
using namespace snp;
using namespace kern;
using tests::RunRecord;
using tests::runPagingScenario;
using tests::expectSeedRecord;

TEST(CryptoEquivalence, BootAndPagingRoundTripMatchesSeedRecording)
{
    RunRecord r = runPagingScenario();
    std::printf("SCENARIO tsc=%llu entries=%llu nonauto=%llu auto=%llu "
                "timer=%llu rmpadj=%llu pval=%llu\n",
                (unsigned long long)r.tsc, (unsigned long long)r.stats.entries,
                (unsigned long long)r.stats.nonAutomaticExits,
                (unsigned long long)r.stats.automaticExits,
                (unsigned long long)r.stats.timerInterrupts,
                (unsigned long long)r.stats.rmpadjusts,
                (unsigned long long)r.stats.pvalidates);
    expectSeedRecord(r);
}

/**
 * Steady-state no-rekey contract: once an enclave and the monitor are
 * set up, warm page-out/page-in cycles and LOG appends must perform
 * zero AES key schedules and zero HMAC key initializations — all key
 * contexts (per-enclave paging AES schedule and MAC midstates, DRBG
 * key) were cached at creation time.
 */
TEST(CryptoEquivalence, SteadyStatePagingAndLogDoNoKeyWork)
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 48 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    VeilVm vm(cfg);
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        Gva heap = 0;
        ASSERT_TRUE(host.create([&heap](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            heap = ee->config().heapLo;
            Bytes page(kPageSize, 0x5a);
            for (int i = 0; i < 4; ++i)
                e.copyIn(heap + Gva(i) * kPageSize, page.data(), page.size());
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);

        // Warm up: one full evict/restore pass and one log append so any
        // lazily-built state exists before we start counting.
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(k.enclaveFreePage(p, heap + Gva(i) * kPageSize), 0);
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(k.enclaveHandleFault(p, heap + Gva(i) * kPageSize), 0);
        {
            core::IdcbMessage m;
            m.op = static_cast<uint32_t>(core::VeilOp::LogAppend);
            const char rec[] = "warmup";
            std::memcpy(m.payload, rec, sizeof(rec) - 1);
            m.payloadLen = sizeof(rec) - 1;
            k.callService(m);
            EXPECT_EQ(m.status, uint64_t(core::VeilStatus::Ok));
        }

        crypto::CryptoStats before = crypto::cryptoStats();

        // Steady state: many page-out/page-in round trips + log appends.
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(k.enclaveFreePage(p, heap + Gva(i) * kPageSize), 0);
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(k.enclaveHandleFault(p, heap + Gva(i) * kPageSize),
                          0);
            core::IdcbMessage m;
            m.op = static_cast<uint32_t>(core::VeilOp::LogAppend);
            const char rec[] = "steady-state record";
            std::memcpy(m.payload, rec, sizeof(rec) - 1);
            m.payloadLen = sizeof(rec) - 1;
            k.callService(m);
            EXPECT_EQ(m.status, uint64_t(core::VeilStatus::Ok));
        }

        crypto::CryptoStats after = crypto::cryptoStats();
        EXPECT_EQ(after.aesKeySchedules, before.aesKeySchedules)
            << "steady-state paging expanded an AES key schedule";
        EXPECT_EQ(after.hmacKeyInits, before.hmacKeyInits)
            << "steady-state paging/logging re-derived HMAC pads";
        // The work itself still hashes (paging MACs), so the block
        // counter must advance — proving the ops actually ran.
        EXPECT_GT(after.sha256Blocks, before.sha256Blocks);
    });
    EXPECT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
}

TEST(CryptoEquivalence, ScenarioIsDeterministicAcrossRuns)
{
    RunRecord a = runPagingScenario();
    RunRecord b = runPagingScenario();
    EXPECT_EQ(a.tsc, b.tsc);
    EXPECT_EQ(a.stats.entries, b.stats.entries);
    EXPECT_EQ(a.stats.rmpadjusts, b.stats.rmpadjusts);
}

} // namespace
} // namespace veil
