/**
 * @file
 * Batched audit logging tests (DESIGN.md §11): under the VeilLogBatched
 * backend every record queues as a LogAppend slot on the per-VCPU VeilOp
 * ring — wrap-around, in-session overflow (sync fallback: no record
 * lost or overwritten), all three drain barriers (LogQuery, enclave
 * entry, orderly exit), deadline flushes, record truncation counting,
 * interrupt-redirect resumes, and record-stream equality against the
 * execute-ahead (VeilLog) backend.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "base/log.hh"
#include "sdk/remote.hh"
#include "sdk/vm.hh"

namespace veil {
namespace {

using namespace sdk;
using namespace snp;
using namespace kern;

VmConfig
auditConfig(AuditBackend backend, uint32_t batch = 32,
            uint64_t deadline_cycles = 1ULL << 62)
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    cfg.logBytes = 128 * 1024;
    cfg.kernel.auditBackend = backend;
    cfg.kernel.auditRules = priorWorkAuditRuleset();
    cfg.kernel.opBatchSize = batch;
    cfg.kernel.opFlushDeadlineCycles = deadline_cycles;
    return cfg;
}

/**
 * Audit records embed wall-clock fields derived from the TSC, which
 * legitimately differs between backends (batched appends are cheaper
 * than execute-ahead round trips). Blank the timestamp inside
 * "msg=audit(SS.MMM:seq)" so streams compare on sequence, syscall,
 * args, and process identity only.
 */
std::string
normalized(const std::string &rec)
{
    size_t open = rec.find("audit(");
    size_t colon = rec.find(':', open);
    if (open == std::string::npos || colon == std::string::npos)
        return rec;
    return rec.substr(0, open + 6) + rec.substr(colon);
}

/** "…:seq):" — unique marker for a record's sequence number. */
std::string
seqMarker(uint64_t seq)
{
    return strfmt(":%llu):", (unsigned long long)seq);
}

TEST(AuditBatch, WrapAroundPreservesRecordStream)
{
    // 200 records through a 63-slot ring: the ring wraps three times
    // across many size-triggered flushes and no record is lost,
    // reordered, or corrupted.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched, /*batch=*/16));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 200; ++i)
            env.close(999); // audited even though it fails (execute-ahead)
    });
    ASSERT_TRUE(result.terminated);
    const KernelStats &s = vm.kernel().stats();
    EXPECT_EQ(s.auditRecords, 200u);
    EXPECT_EQ(s.auditRingDrops, 0u);
    EXPECT_EQ(s.opSyncFallbacks, 0u);
    EXPECT_GE(s.auditBatchFlushes, 200u / 16u);
    EXPECT_EQ(s.auditFlushedRecords, 200u);

    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 200u);
    for (uint64_t i = 0; i < 200; ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " out of order: " << records[i];
}

TEST(AuditBatch, BatchedMatchesExecuteAheadRecordStream)
{
    // The same workload under VeilLog (execute-ahead, one IDCB call per
    // record) and VeilLogBatched must protect an identical record
    // stream — batching changes when records travel, not what.
    auto workload = [](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        int fd = int(env.creat("/stream.bin"));
        Gva buf = env.alloc(4096);
        for (int i = 0; i < 10; ++i)
            env.write(fd, buf, 100 + 7 * i);
        env.close(fd);
        int sock = int(env.socket());
        env.bind(sock, 8080);
        env.close(sock);
        env.rename("/stream.bin", "/stream2.bin");
        env.unlink("/stream2.bin");
        for (int i = 0; i < 20; ++i)
            env.close(999);
    };

    VeilVm ahead(auditConfig(AuditBackend::VeilLog));
    ASSERT_TRUE(ahead.run(workload).terminated);
    VeilVm batched(auditConfig(AuditBackend::VeilLogBatched, /*batch=*/8));
    ASSERT_TRUE(batched.run(workload).terminated);

    auto a = ahead.services().log().snapshotRecords();
    auto b = batched.services().log().snapshotRecords();
    ASSERT_GT(a.size(), 30u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(normalized(a[i]), normalized(b[i])) << "record " << i;
    EXPECT_EQ(batched.kernel().stats().auditRingDrops, 0u);
    // The ring must actually batch: far fewer doorbells than records.
    EXPECT_LT(batched.kernel().stats().auditBatchFlushes, a.size() / 2);
}

TEST(AuditBatch, InSessionOverflowLosesNoRecordAndOverwritesNone)
{
    // Inside an enclave ocall session nothing may queue (the session
    // holds the enclave GHCB/cr3, so no doorbell can drain the ring).
    // A burst larger than the ring must therefore take the sync
    // LogAppend record by record: nothing dropped, nothing overwritten,
    // and the records queued before the session land first.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched,
                          /*batch=*/uint32_t(core::kOpRingSlots)));
    constexpr uint64_t kBurst = 80; // > 63-slot ring capacity
    uint64_t pre_session = 0, fallbacks_before = 0, fallbacks_after = 0;
    uint64_t pending_in_session = 0;
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([&](Env &e) -> int64_t {
            for (uint64_t i = 0; i < kBurst; ++i)
                e.close(999); // each an audited ocall
            pending_in_session = k.opRingPending(0);
            return 0;
        }));
        for (int i = 0; i < 10; ++i)
            env.close(999); // queued; the entry barrier drains them
        pre_session = k.stats().auditRecords;
        EXPECT_EQ(k.opRingPending(0), 10u);
        fallbacks_before = k.stats().opSyncFallbacks;
        ASSERT_EQ(host.call(), 0);
        fallbacks_after = k.stats().opSyncFallbacks;
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(pending_in_session, 0u);
    EXPECT_EQ(fallbacks_after - fallbacks_before, kBurst);

    const KernelStats &s = vm.kernel().stats();
    EXPECT_EQ(s.auditRingDrops, 0u);
    EXPECT_EQ(s.auditRecords, pre_session + kBurst);
    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), s.auditRecords);
    for (uint64_t i = 0; i < records.size(); ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " lost or out of order: " << records[i];

    // The consumer drained every slot the producer published.
    core::RingHeader h{};
    vm.machine().memory().read(vm.layout().opSubRing(0), &h, sizeof(h));
    EXPECT_EQ(h.capacity, core::kOpRingSlots);
    EXPECT_EQ(h.tail, h.head);
}

TEST(AuditBatch, LogQueryBarrierDrainsPendingRecords)
{
    // A remote LogQuery must observe every record produced so far,
    // including those still queued in the ring: the kernel drains the
    // op ring on the way into any sync service call, LogQuery included.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched,
                          /*batch=*/uint32_t(core::kOpRingSlots)));
    RemoteUser user(vm);
    std::vector<std::string> retrieved;
    uint64_t pending_before = 0, pending_after = 0;
    auto result = vm.run([&](Kernel &k, Process &p) {
        ASSERT_TRUE(user.establishChannel(k));
        NativeEnv env(k, p);
        for (int i = 0; i < 10; ++i)
            env.close(999);
        pending_before = k.opRingPending(0);
        retrieved = user.retrieveAllRecords(k);
        pending_after = k.opRingPending(0);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(pending_before, 10u);
    EXPECT_EQ(pending_after, 0u);
    ASSERT_EQ(retrieved.size(), 10u);
    for (uint64_t i = 0; i < 10; ++i)
        EXPECT_NE(retrieved[i].find(seqMarker(i + 1)), std::string::npos);
    EXPECT_GE(vm.kernel().stats().opFlushBarrier, 1u);
}

TEST(AuditBatch, OrderlyExitDrainsRing)
{
    // Records still queued when the workload finishes are drained by
    // the terminate barrier: the loss window covers crashes only.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched,
                          /*batch=*/uint32_t(core::kOpRingSlots)));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 5; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 5u);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(vm.services().log().recordCount(), 5u);
    EXPECT_GE(vm.kernel().stats().opFlushBarrier, 1u);
    EXPECT_EQ(vm.kernel().stats().auditFlushedRecords, 5u);
}

TEST(AuditBatch, EnclaveEntryBarrierDrainsRing)
{
    // Entering a (mutually distrusting) enclave drains the ring first:
    // pre-enclave records are protected before control transfers.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched,
                          /*batch=*/uint32_t(core::kOpRingSlots)));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }));
        uint64_t stored_before = vm.services().log().recordCount();
        for (int i = 0; i < 7; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 7u);
        EXPECT_EQ(vm.services().log().recordCount(), stored_before);
        ASSERT_EQ(host.call(), 0); // prepEnclaveRun barrier fires here
        EXPECT_EQ(k.opRingPending(0), 0u);
        EXPECT_EQ(vm.services().log().recordCount(), stored_before + 7);
        EXPECT_GE(k.stats().opFlushBarrier, 1u);
    });
    ASSERT_TRUE(result.terminated);
}

TEST(AuditBatch, DeadlineFlushBoundsResidencyWindow)
{
    // With a small deadline, queued records are flushed from the timer
    // interrupt path long before the batch-size trigger would fire.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched,
                          /*batch=*/uint32_t(core::kOpRingSlots),
                          /*deadline_cycles=*/100'000));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 3; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 3u);
        // Idle compute long enough for at least two timer ticks.
        k.cpu().burn(3 * vm.machine().costs().timerQuantum());
        EXPECT_EQ(k.opRingPending(0), 0u);
        EXPECT_GE(k.stats().opFlushDeadline, 1u);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(vm.services().log().recordCount(), 3u);
}

TEST(AuditBatch, TruncationIsCountedExecuteAhead)
{
    // Satellite fix: oversized records were silently clamped. A comm
    // long enough to push the record past the IDCB payload must bump
    // the truncation counter and still protect a (clamped) record.
    VeilVm vm(auditConfig(AuditBackend::VeilLog));
    auto result = vm.run([&](Kernel &k, Process &) {
        Process &noisy = k.makeProcess(std::string(3000, 'c'));
        NativeEnv env(k, noisy);
        env.close(999);
        EXPECT_GE(k.stats().auditTruncations, 1u);
    });
    ASSERT_TRUE(result.terminated);
    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].size(), core::kIdcbPayloadMax);
}

TEST(AuditBatch, TruncationIsCountedBatched)
{
    // A record too big for a ring slot takes the sync LogAppend, so it
    // keeps the full IDCB payload: one over the slot payload arrives
    // whole, and only one over the IDCB payload is clamped (and
    // counted), exactly as execute-ahead does.
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched));
    auto result = vm.run([&](Kernel &k, Process &) {
        Process &wide = k.makeProcess(std::string(400, 'c'));
        NativeEnv(k, wide).close(999);
        EXPECT_EQ(k.stats().auditTruncations, 0u);
        Process &noisy = k.makeProcess(std::string(3000, 'c'));
        NativeEnv(k, noisy).close(999);
        EXPECT_EQ(k.stats().auditTruncations, 1u);
        EXPECT_EQ(k.stats().opSyncFallbacks, 2u);
    });
    ASSERT_TRUE(result.terminated);
    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_GT(records[0].size(), core::kOpPayloadMax);
    EXPECT_NE(records[0].find(std::string(400, 'c')), std::string::npos);
    EXPECT_EQ(records[1].size(), core::kIdcbPayloadMax);
}

TEST(AuditBatch, InterruptRedirectResumeKeepsStreamIntact)
{
    // Timer interrupts during enclave execution are redirected to
    // DomUNT (§6.2); the timer flush hook runs on those resumes while a
    // flush is forbidden (ocall context) and in-session records go
    // sync. The suppressed flush must not corrupt or lose anything.
    uint64_t quantum = 0;
    VeilVm vm(auditConfig(AuditBackend::VeilLogBatched, /*batch=*/8,
                          /*deadline_cycles=*/50'000));
    quantum = vm.machine().costs().timerQuantum();
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 20; ++i)
            env.close(999);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([quantum](Env &e) -> int64_t {
            for (int i = 0; i < 10; ++i)
                e.close(999); // records inside the session
            e.burn(3 * quantum); // force redirected timer interrupts
            for (int i = 0; i < 10; ++i)
                e.close(999);
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);
        for (int i = 0; i < 5; ++i)
            env.close(999);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_GT(vm.hypervisor().stats().intrRedirects, 0u);

    const KernelStats &s = vm.kernel().stats();
    EXPECT_EQ(s.auditRingDrops, 0u);
    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), s.auditRecords);
    for (uint64_t i = 0; i < records.size(); ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " out of order: " << records[i];
}

} // namespace
} // namespace veil
