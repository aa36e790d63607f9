/**
 * @file
 * Shared deterministic boot + enclave-paging scenario and its golden
 * seed recording. crypto_equivalence_test.cc pins the crypto rewrite
 * against these constants; trace_test.cc reuses the same scenario to
 * prove VeilTrace charges zero simulated cycles (the same constants
 * must hold with tracing on, runtime-off, and compiled out).
 */
#ifndef VEIL_TESTS_PAGING_SCENARIO_HH_
#define VEIL_TESTS_PAGING_SCENARIO_HH_

#include <gtest/gtest.h>

#include <functional>

#include "base/log.hh"
#include "base/rng.hh"
#include "sdk/vm.hh"

namespace veil::tests {

struct RunRecord
{
    uint64_t tsc = 0;
    snp::MachineStats stats;
};

constexpr int kScenarioPages = 8;

/**
 * Boot Veil, create an enclave over kScenarioPages seeded heap pages,
 * evict all of them, restore half eagerly, re-evict/restore one (fresh
 * counter path), then let the enclave verify every page (demand faults
 * restore the rest). Deterministic by construction.
 *
 * @p tweak may adjust the VmConfig before boot (e.g. trace ring size);
 * @p inspect runs after the workload with the VM still alive, so tests
 * can examine host-side state (the tracer) that dies with the machine.
 */
inline RunRecord
runPagingScenario(
    const std::function<void(sdk::VmConfig &)> &tweak = nullptr,
    const std::function<void(sdk::VeilVm &)> &inspect = nullptr)
{
    using namespace sdk;
    using namespace snp;
    using namespace kern;

    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 48 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    if (tweak)
        tweak(cfg);
    VeilVm vm(cfg);
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        Gva heap = 0;
        int phase = 0;
        ASSERT_TRUE(host.create([&heap, &phase](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            heap = ee->config().heapLo;
            Rng rng(42);
            if (phase == 0) {
                for (int i = 0; i < kScenarioPages; ++i) {
                    Bytes page = rng.bytes(kPageSize);
                    e.copyIn(heap + Gva(i) * kPageSize, page.data(),
                             page.size());
                }
                return 0;
            }
            for (int i = 0; i < kScenarioPages; ++i) {
                Bytes expect = rng.bytes(kPageSize);
                Bytes got(kPageSize);
                e.copyOut(heap + Gva(i) * kPageSize, got.data(), got.size());
                if (got != expect)
                    return -(i + 1);
            }
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);

        for (int i = 0; i < kScenarioPages; ++i)
            ASSERT_EQ(k.enclaveFreePage(p, heap + Gva(i) * kPageSize), 0);
        for (int i = 0; i < kScenarioPages / 2; ++i)
            ASSERT_EQ(k.enclaveHandleFault(p, heap + Gva(i) * kPageSize), 0);
        ASSERT_EQ(k.enclaveFreePage(p, heap), 0);
        ASSERT_EQ(k.enclaveHandleFault(p, heap), 0);

        phase = 1;
        ASSERT_EQ(host.call(), 0);
        EXPECT_GT(host.faultsServed(), 0u);
    });
    EXPECT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
    if (inspect)
        inspect(vm);
    return {vm.machine().tsc(), vm.machine().stats()};
}

// Golden values recorded from the seed scalar crypto implementation
// (commit da31af0) running this exact scenario. Neither the crypto
// hot-path rewrite nor VeilTrace (in any mode) may move them.
constexpr uint64_t kSeedTsc = 130179086;
constexpr uint64_t kSeedEntries = 66;
constexpr uint64_t kSeedNonAutomaticExits = 64;
constexpr uint64_t kSeedAutomaticExits = 2;
constexpr uint64_t kSeedTimerInterrupts = 2;
constexpr uint64_t kSeedRmpadjusts = 24824;
constexpr uint64_t kSeedPvalidates = 12253;

/** EXPECT every golden constant against @p r. */
inline void
expectSeedRecord(const RunRecord &r)
{
    EXPECT_EQ(r.tsc, kSeedTsc);
    EXPECT_EQ(r.stats.entries, kSeedEntries);
    EXPECT_EQ(r.stats.nonAutomaticExits, kSeedNonAutomaticExits);
    EXPECT_EQ(r.stats.automaticExits, kSeedAutomaticExits);
    EXPECT_EQ(r.stats.timerInterrupts, kSeedTimerInterrupts);
    EXPECT_EQ(r.stats.rmpadjusts, kSeedRmpadjusts);
    EXPECT_EQ(r.stats.pvalidates, kSeedPvalidates);
}

} // namespace veil::tests

#endif // VEIL_TESTS_PAGING_SCENARIO_HH_
