/**
 * @file
 * Exit-less service-call tests (DESIGN.md §11): per-VCPU VeilOp
 * submission/completion rings under serviceBatching — wrap-around,
 * sync-fallback paths (oversized payloads, in-enclave sessions), the
 * drain barriers (orderly exit, enclave entry, explicit), deadline
 * flushes, deferred EncFreePage completion, a hand-written PSC slot,
 * record-stream equality against the sync path, doorbell fault
 * injection (dropped and duplicated doorbells), and the SDK's async
 * ocall ring including its backpressure fallback.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "base/log.hh"
#include "chaos/chaos.hh"
#include "sdk/remote.hh"
#include "sdk/vm.hh"

namespace veil {
namespace {

using namespace sdk;
using namespace snp;
using namespace kern;

VmConfig
batchConfig(bool batched, uint32_t batch = 16,
            uint64_t deadline_cycles = 1ULL << 62)
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 48 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    cfg.logBytes = 128 * 1024;
    // Execute-ahead audit: every audited syscall is one LogAppend
    // service call — deferrable, so it rides the VeilOp ring when
    // serviceBatching is on and goes sync IDCB when off.
    cfg.kernel.auditBackend = AuditBackend::VeilLog;
    cfg.kernel.auditRules = priorWorkAuditRuleset();
    cfg.kernel.serviceBatching = batched;
    cfg.kernel.opBatchSize = batch;
    cfg.kernel.opFlushDeadlineCycles = deadline_cycles;
    return cfg;
}

/** Blank the TSC-derived timestamp inside "msg=audit(SS.MMM:seq)" so
 *  streams compare on sequence, syscall, args, and identity only. */
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

TEST(OpRing, WrapAroundPreservesRecordStream)
{
    // 200 deferrable LogAppends through a 63-slot ring: the ring wraps
    // three times across many size-triggered doorbells and no op is
    // lost, reordered, or corrupted.
    VeilVm vm(batchConfig(true, /*batch=*/16));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 200; ++i)
            env.close(999); // audited even though it fails
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;

    const KernelStats &s = vm.kernel().stats();
    EXPECT_GE(s.opSubmitted, 200u);
    EXPECT_EQ(s.opCompletions, s.opSubmitted);
    EXPECT_EQ(s.opCplErrors, 0u);
    EXPECT_EQ(s.opSyncFallbacks, 0u);
    EXPECT_GE(s.opFlushSize, 200u / 16u);
    // Batching actually batched: far fewer doorbells than ops.
    EXPECT_LE(s.opDoorbells, s.opSubmitted / 8);

    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 200u);
    for (uint64_t i = 0; i < 200; ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " out of order: " << records[i];

    // The shared submission header agrees: fully drained.
    core::RingHeader h{};
    vm.machine().memory().read(vm.layout().opSubRing(0), &h, sizeof(h));
    EXPECT_EQ(h.capacity, core::kOpRingSlots);
    EXPECT_EQ(h.tail, h.head);
}

TEST(OpRing, BatchedMatchesSyncRecordStream)
{
    // The same workload with batching off (sync IDCB per service call)
    // and on must protect an identical record stream — the ring changes
    // when ops travel, not what they say.
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

    VeilVm sync(batchConfig(false));
    ASSERT_TRUE(sync.run(workload).terminated);
    VeilVm batched(batchConfig(true, /*batch=*/8));
    ASSERT_TRUE(batched.run(workload).terminated);

    auto a = sync.services().log().snapshotRecords();
    auto b = batched.services().log().snapshotRecords();
    ASSERT_GT(a.size(), 30u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(normalized(a[i]), normalized(b[i])) << "record " << i;

    EXPECT_EQ(sync.kernel().stats().opSubmitted, 0u);
    EXPECT_GT(batched.kernel().stats().opSubmitted, 0u);
    EXPECT_LT(batched.kernel().stats().opDoorbells, a.size() / 2);
}

TEST(OpRing, OversizedPayloadFallsBackToSync)
{
    // A record larger than a 512-byte ring slot can't be deferred: it
    // must take the sync IDCB path (2 KB payload), be counted as a
    // fallback, and still land in the protected stream.
    VeilVm vm(batchConfig(true));
    auto result = vm.run([&](Kernel &k, Process &) {
        Process &noisy = k.makeProcess(std::string(3000, 'c'));
        NativeEnv env(k, noisy);
        env.close(999);
        EXPECT_GE(k.stats().opSyncFallbacks, 1u);
    });
    ASSERT_TRUE(result.terminated);
    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].size(), core::kIdcbPayloadMax);
}

TEST(OpRing, InEnclaveSessionFallsBackToSync)
{
    // Batching is illegal inside an enclave ocall session (§11 mode
    // legality): deferrable ops arriving there go sync immediately and
    // the stream stays exact.
    VeilVm vm(batchConfig(true, /*batch=*/16));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            for (int i = 0; i < 5; ++i)
                e.close(999); // audited ocalls, in-session
            return 0;
        }));
        uint64_t fallbacks0 = k.stats().opSyncFallbacks;
        ASSERT_EQ(host.call(), 0);
        EXPECT_GE(k.stats().opSyncFallbacks, fallbacks0 + 5);
        EXPECT_EQ(k.opRingPending(0), 0u);
    });
    ASSERT_TRUE(result.terminated);

    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), vm.kernel().stats().auditRecords);
    for (uint64_t i = 0; i < records.size(); ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " out of order: " << records[i];
}

TEST(OpRing, OrderlyExitDrainsRing)
{
    // Ops still queued when the workload finishes are drained by the
    // terminate barrier — nothing is lost on an orderly exit.
    VeilVm vm(batchConfig(true, /*batch=*/uint32_t(core::kOpRingSlots)));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 5; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 5u);
    });
    ASSERT_TRUE(result.terminated);
    const KernelStats &s = vm.kernel().stats();
    EXPECT_GE(s.opFlushBarrier, 1u);
    EXPECT_EQ(s.opCompletions, s.opSubmitted);
    EXPECT_EQ(vm.services().log().recordCount(), 5u);
}

TEST(OpRing, EnclaveEntryBarrierDrainsRing)
{
    // Entering an enclave drains the ring first (prepEnclaveRun): no
    // deferred op may still be in flight while the enclave runs.
    VeilVm vm(batchConfig(true, /*batch=*/uint32_t(core::kOpRingSlots)));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }));
        for (int i = 0; i < 7; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 7u);
        uint64_t barriers0 = k.stats().opFlushBarrier;
        ASSERT_EQ(host.call(), 0); // prepEnclaveRun barrier fires here
        EXPECT_EQ(k.opRingPending(0), 0u);
        EXPECT_GT(k.stats().opFlushBarrier, barriers0);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_GE(vm.services().log().recordCount(), 7u);
}

TEST(OpRing, SyncCallDrainsQueuedOpsFirst)
{
    // A sync service call must not overtake queued deferrable ops: the
    // IDCB drain barrier flushes the ring before the sync op travels,
    // so the service observes submission order.
    VeilVm vm(batchConfig(true, /*batch=*/uint32_t(core::kOpRingSlots)));
    RemoteUser user(vm);
    std::vector<std::string> retrieved;
    auto result = vm.run([&](Kernel &k, Process &p) {
        ASSERT_TRUE(user.establishChannel(k));
        NativeEnv env(k, p);
        for (int i = 0; i < 10; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 10u);
        retrieved = user.retrieveAllRecords(k); // sync LogQuery
        EXPECT_EQ(k.opRingPending(0), 0u);
    });
    ASSERT_TRUE(result.terminated);
    ASSERT_EQ(retrieved.size(), 10u);
    for (uint64_t i = 0; i < 10; ++i)
        EXPECT_NE(retrieved[i].find(seqMarker(i + 1)), std::string::npos);
}

TEST(OpRing, DeadlineFlushBoundsResidencyWindow)
{
    // With a small deadline, queued ops are flushed from the timer path
    // long before the batch-size trigger would fire.
    VeilVm vm(batchConfig(true, /*batch=*/uint32_t(core::kOpRingSlots),
                          /*deadline_cycles=*/100'000));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 3; ++i)
            env.close(999);
        EXPECT_EQ(k.opRingPending(0), 3u);
        k.cpu().burn(3 * vm.machine().costs().timerQuantum());
        EXPECT_EQ(k.opRingPending(0), 0u);
        EXPECT_GE(k.stats().opFlushDeadline, 1u);
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_EQ(vm.services().log().recordCount(), 3u);
}

TEST(OpRing, DeferredFreePageSwapsOutAtBarrier)
{
    // Async mode for EncFreePage: the caller observes success at
    // submission, but the frame is sealed (and the mapping torn down)
    // only when the completion arrives — and the evicted page must
    // still restore with its contents intact.
    VeilVm vm(batchConfig(true, /*batch=*/uint32_t(core::kOpRingSlots)));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        Gva heap = 0;
        int phase = 0;
        ASSERT_TRUE(host.create([&heap, &phase](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            heap = ee->config().heapLo;
            uint64_t v = 0xfeedf00ddeadbeef;
            if (phase == 0) {
                e.copyIn(heap, &v, 8);
                return 0;
            }
            uint64_t got = 0;
            e.copyOut(heap, &got, 8);
            return got == v ? 0 : -1;
        }));
        ASSERT_EQ(host.call(), 0);

        uint64_t pending0 = k.opRingPending(0);
        ASSERT_EQ(k.enclaveFreePage(p, heap), 0);
        // Deferred: queued but not yet swapped out.
        EXPECT_EQ(k.opRingPending(0), pending0 + 1);
        EXPECT_EQ(p.enclave->swapStore.count(heap), 0u);

        k.opRingBarrier();
        EXPECT_EQ(k.opRingPending(0), 0u);
        ASSERT_EQ(p.enclave->swapStore.count(heap), 1u);

        // Restore and verify contents from inside the enclave.
        ASSERT_EQ(k.enclaveHandleFault(p, heap), 0);
        phase = 1;
        EXPECT_EQ(host.call(), 0);
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
    EXPECT_EQ(vm.kernel().stats().opCplErrors, 0u);
}

TEST(OpRing, HandWrittenPageStateChangeSlotIsRefused)
{
    // PageStateChange belongs to VeilMon and has no ring path: a PSC
    // slot the OS writes into its submission ring by hand reaches the
    // dispatcher's default branch and completes Unsupported, and the
    // RMP does not change.
    VmConfig cfg = batchConfig(true);
    cfg.kernel.auditBackend = AuditBackend::None; // no kernel-queued op
    VeilVm vm(cfg);
    auto result = vm.run([&](Kernel &k, Process &) {
        Vcpu &c = k.cpu();
        Gpa page = k.frames().alloc();
        ASSERT_FALSE(vm.machine().rmp().isShared(page));
        ASSERT_TRUE(vm.machine().rmp().isValidated(page));

        Gpa sub = vm.layout().opSubRing(0);
        Gpa cplr = vm.layout().opCplRing(0);
        core::RingHeader ch;
        ch.capacity = core::kOpCplSlots;
        c.writePhys(cplr, &ch, sizeof(ch));
        core::VeilOpSlot slot;
        slot.op = static_cast<uint32_t>(core::VeilOp::PageStateChange);
        slot.args[0] = page;
        slot.args[1] = 1; // to shared
        c.writePhys(core::ringSlot(sub, core::kOpSlotBytes,
                                   core::kOpRingSlots, 0),
                    &slot, sizeof(slot));
        core::RingHeader h;
        h.capacity = core::kOpRingSlots;
        h.head = 1;
        c.writePhys(sub, &h, sizeof(h));

        core::IdcbMessage m;
        m.op = static_cast<uint32_t>(core::VeilOp::OpRingDoorbell);
        k.callService(m);

        c.readPhys(sub, &h, sizeof(h));
        EXPECT_EQ(h.tail, 1u); // the slot was consumed
        c.readPhys(cplr, &ch, sizeof(ch));
        ASSERT_EQ(ch.head, 1u);
        core::VeilOpCompletion cpl;
        c.readPhys(core::ringSlot(cplr, core::kOpCplSlotBytes,
                                  core::kOpCplSlots, 0),
                   &cpl, sizeof(cpl));
        EXPECT_EQ(cpl.op, slot.op);
        EXPECT_NE(cpl.status, static_cast<uint64_t>(core::VeilStatus::Ok));
        EXPECT_FALSE(vm.machine().rmp().isShared(page));
        EXPECT_TRUE(vm.machine().rmp().isValidated(page));
        k.frames().free(page);
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
}

// ---- Doorbell fault injection (§10 + §11) ----

TEST(OpRingChaos, DroppedDoorbellsAbsorbed)
{
    // A hypervisor that occasionally swallows doorbell-hinted switches
    // cannot lose queued ops: the switch-denied retry path re-rings,
    // and the dispatcher's opportunistic drain picks up the rest.
    VeilVm vm(batchConfig(true, /*batch=*/4));
    chaos::FaultPlan plan = chaos::FaultPlan::single(
        chaos::FaultSite::DoorbellDrop, 0.5, /*seed=*/21, /*budget=*/4);
    chaos::FaultInjector inj(plan);
    vm.hypervisor().setFaultInjector(&inj);
    vm.hypervisor().setExitCap(200'000);

    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 40; ++i)
            env.close(999);
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
    EXPECT_GE(inj.stats().injected[size_t(chaos::FaultSite::DoorbellDrop)],
              1u);

    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 40u);
    for (uint64_t i = 0; i < 40; ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " out of order: " << records[i];
    EXPECT_EQ(vm.kernel().stats().opCompletions,
              vm.kernel().stats().opSubmitted);
}

TEST(OpRingChaos, PersistentDoorbellDropHaltsAttributed)
{
    // Swallowing every doorbell cannot livelock the guest: the bounded
    // switch retry expires into an attributed halt.
    VeilVm vm(batchConfig(true, /*batch=*/4));
    chaos::FaultPlan plan = chaos::FaultPlan::single(
        chaos::FaultSite::DoorbellDrop, 1.0, /*seed=*/22);
    chaos::FaultInjector inj(plan);
    vm.hypervisor().setFaultInjector(&inj);
    vm.hypervisor().setExitCap(200'000);

    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 40; ++i)
            env.close(999);
    });
    EXPECT_FALSE(result.terminated);
    EXPECT_TRUE(result.halted);
    EXPECT_FALSE(result.exitCapHit);
    EXPECT_NE(vm.machine().haltInfo().reason.find("starved"),
              std::string::npos)
        << vm.machine().haltInfo().reason;
}

TEST(OpRingChaos, DuplicatedDoorbellDrainIsIdempotent)
{
    // Bouncing Dom-SRV's return switch back replays the doorbell just
    // served. The dispatcher advances the shared tail per-op, so the
    // replayed drain finds an empty ring: no op is served twice.
    VeilVm vm(batchConfig(true, /*batch=*/4));
    chaos::FaultPlan plan = chaos::FaultPlan::single(
        chaos::FaultSite::DoorbellDuplicate, 0.5, /*seed=*/23,
        /*budget=*/8);
    chaos::FaultInjector inj(plan);
    vm.hypervisor().setFaultInjector(&inj);
    vm.hypervisor().setExitCap(200'000);

    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        for (int i = 0; i < 40; ++i)
            env.close(999);
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
    EXPECT_GE(
        inj.stats().injected[size_t(chaos::FaultSite::DoorbellDuplicate)],
        1u);

    // Exactly one completion per submission, and the stream is exact —
    // a double-served op would store a duplicate record.
    const KernelStats &s = vm.kernel().stats();
    EXPECT_EQ(s.opCompletions, s.opSubmitted);
    auto records = vm.services().log().snapshotRecords();
    ASSERT_EQ(records.size(), 40u);
    for (uint64_t i = 0; i < 40; ++i)
        EXPECT_NE(records[i].find(seqMarker(i + 1)), std::string::npos)
            << "record " << i << " duplicated or reordered: " << records[i];
}

// ---- Async ocalls (§11 SDK mode) ----

/** Run the burst-write enclave under @p async and return the log file
 *  contents plus SDK-side accounting. */
struct AsyncOutcome
{
    std::string content;
    uint64_t served = 0;     ///< host-side async submissions serviced
    uint64_t asyncCalls = 0; ///< enclave-side ring submissions
};

void
runAsyncWrites(bool async, AsyncOutcome &out)
{
    VeilVm vm(batchConfig(false));
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        EnclaveHost::Params ep;
        ep.asyncOcalls = async;
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            int fd = int(e.creat("/alog"));
            Gva buf = e.alloc(4096);
            // 12 back-to-back fire-and-forget writes: more than the
            // 8-slot ring, so the tail must fall back to sync ocalls
            // without reordering the byte stream.
            for (int i = 0; i < 12; ++i) {
                std::string line = strfmt("line-%03d\n", i);
                e.copyIn(buf, line.data(), line.size());
                e.writeAsync(fd, buf, line.size());
            }
            e.close(999); // natural exit: completions harvested
            for (int i = 0; i < 5; ++i) {
                std::string line = strfmt("tail-%03d\n", i);
                e.copyIn(buf, line.data(), line.size());
                e.writeAsync(fd, buf, line.size());
            }
            e.close(fd);
            return 0;
        }, ep));
        ASSERT_EQ(host.call(), 0);
        out.served = host.asyncOcallsServed();
        out.asyncCalls = host.lastRunStats().asyncCalls;

        int fd = int(env.open("/alog", kO_RDONLY));
        ASSERT_GE(fd, 0);
        Gva rbuf = env.alloc(4096);
        int64_t n = env.pread(fd, rbuf, 4096, 0);
        ASSERT_GT(n, 0);
        out.content.resize(size_t(n));
        env.copyOut(rbuf, out.content.data(), out.content.size());
        env.close(fd);
    });
    ASSERT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
}

TEST(AsyncOcall, RingedWritesMatchSyncByteStream)
{
    AsyncOutcome sync, async;
    runAsyncWrites(false, sync);
    runAsyncWrites(true, async);
    if (HasFatalFailure())
        return;

    // Identical file contents: async submission changes when the write
    // travels, never what lands or in what order.
    EXPECT_EQ(sync.content, async.content);
    EXPECT_NE(sync.content.find("line-000\n"), std::string::npos);
    EXPECT_NE(sync.content.find("tail-004\n"), std::string::npos);

    // Sync mode never touches the ring.
    EXPECT_EQ(sync.served, 0u);
    EXPECT_EQ(sync.asyncCalls, 0u);

    // Async mode rides the ring up to its 8 slots, then falls back to
    // sync for the burst's tail (backpressure), and rides again after
    // the harvest.
    EXPECT_EQ(async.served, async.asyncCalls);
    EXPECT_GE(async.asyncCalls, kAsyncSlots);
    EXPECT_LT(async.asyncCalls, 17u);
}

} // namespace
} // namespace veil
