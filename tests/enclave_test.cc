/**
 * @file
 * VeilS-ENC end-to-end tests: enclave creation + measurement, syscall
 * redirection with deep-copy marshalling, demand paging (evict +
 * fault + verified restore), IAGO sanitization, unsupported-syscall
 * kill, lazy mmap synchronization, mprotect mediation, and teardown.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <initializer_list>

#include "base/log.hh"
#include "sdk/remote.hh"
#include "sdk/vm.hh"

namespace veil {
namespace {

using namespace sdk;
using namespace snp;
using namespace kern;

VmConfig
testConfig()
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 48 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    return cfg;
}

/** Run @p body inside the CVM init context. */
template <typename Fn>
void
inVm(VmConfig cfg, Fn &&body)
{
    VeilVm vm(cfg);
    bool ran = false;
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        body(vm, k, p, env);
        ran = true;
    });
    ASSERT_TRUE(ran);
    ASSERT_TRUE(result.terminated) << "CVM halted: "
                                   << vm.machine().haltInfo().reason;
}

TEST(Enclave, RunsSimpleComputation)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            // Pure compute + heap use inside the enclave.
            Gva buf = e.alloc(1024);
            uint64_t acc = 7;
            for (int i = 0; i < 64; ++i) {
                acc = acc * 1099511628211ULL + 17;
                e.copyIn(buf + (i * 8) % 1024, &acc, 8);
            }
            uint64_t back = 0;
            e.copyOut(buf + (63 * 8) % 1024, &back, 8);
            e.release(buf, 1024);
            return static_cast<int64_t>(back & 0x7fffffff);
        }));
        int64_t r = host.call();
        EXPECT_GT(r, 0);
        EXPECT_FALSE(host.killed());
        EXPECT_EQ(host.destroy(), 0);
    });
}

TEST(Enclave, MeasurementMatchesLocalExpectation)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }));
        EXPECT_EQ(host.fetchMeasurement(), host.expectedMeasurement());
    });
}

TEST(Enclave, SmallEnclaveMeasurementMatchesPinnedDigest)
{
    // Pins the §6.2 measurement bytes for config + 2 code + 1 heap +
    // 1 stack page. The layout, the config page and the code bytes (an
    // Rng seeded by the program id) are fixed, so the digest is a
    // constant. MeasurementMatchesLocalExpectation alone would miss a
    // rule change that moved VeilS-ENC and the SDK replay alike.
    constexpr const char *kPinned =
        "ead534030c95890520494899fb4554c38ac60b2cf08f92acdf052db516be235e";
    inVm(testConfig(), [&](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost::Params params;
        params.codePages = 2;
        params.heapPages = 1;
        params.stackPages = 1;
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }, params));
        EXPECT_EQ(crypto::digestHex(host.expectedMeasurement()), kPinned);
        EXPECT_EQ(crypto::digestHex(host.fetchMeasurement()), kPinned);
    });
}

TEST(Enclave, SealedMeasurementVerifiesOverChannel)
{
    VmConfig cfg = testConfig();
    VeilVm vm(cfg);
    RemoteUser user(vm);
    bool verified = false;
    auto result = vm.run([&](Kernel &k, Process &p) {
        ASSERT_TRUE(user.establishChannel(k));
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }));

        core::IdcbMessage m;
        m.op = static_cast<uint32_t>(core::VeilOp::EncGetMeasurement);
        m.args[0] = host.enclaveId();
        k.callService(m);
        ASSERT_EQ(m.status, static_cast<uint64_t>(core::VeilStatus::Ok));
        // Layout: raw digest (32) then sealed blob.
        size_t sealed_len = m.ret[0];
        ASSERT_GT(sealed_len, 0u);
        Bytes sealed(m.retPayload + 32, m.retPayload + 32 + sealed_len);
        verified = user.verifySealedMeasurement(
            sealed, host.expectedMeasurement(), host.enclaveId());
    });
    ASSERT_TRUE(result.terminated);
    EXPECT_TRUE(verified);
}

TEST(Enclave, OsCannotReadEnclaveMemory)
{
    VmConfig cfg = testConfig();
    VeilVm vm(cfg);
    auto result = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            uint32_t secret = 0xdeadbeef;
            e.copyIn(ee->config().heapLo + 64, &secret, 4);
            return 0;
        }));
        host.call();
        // Compromised kernel reads enclave heap: #NPF -> CVM halt.
        Gpa pa = *p.as->userLeaf(host.config().heapLo) & kPteAddrMask;
        uint32_t leak = 0;
        k.cpu().readPhys(pa, &leak, sizeof(leak));
        FAIL() << "OS read enclave memory";
    });
    EXPECT_TRUE(result.halted);
}

TEST(Enclave, SyscallRedirectionFileIo)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        // Prepare a file from the untrusted side.
        int fd = static_cast<int>(env.creat("/data.bin"));
        ASSERT_GE(fd, 0);
        Bytes content;
        for (int i = 0; i < 300; ++i)
            content.push_back(static_cast<uint8_t>(i * 7));
        Gva staged = env.stageBytes(content.data(), content.size());
        ASSERT_EQ(env.write(fd, staged, content.size()),
                  int64_t(content.size()));
        env.close(fd);

        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([&content](Env &e) -> int64_t {
            int64_t fd = e.open("/data.bin", kO_RDONLY);
            if (fd < 0)
                return -1;
            Gva buf = e.alloc(512);
            int64_t n = e.read(int(fd), buf, 512);
            if (n != int64_t(content.size()))
                return -2;
            // Verify contents arrived into enclave memory intact.
            std::vector<uint8_t> got(n);
            e.copyOut(buf, got.data(), n);
            for (size_t i = 0; i < got.size(); ++i) {
                if (got[i] != uint8_t(i * 7))
                    return -3;
            }
            e.close(int(fd));
            // Write a transformed copy back out.
            for (auto &b : got)
                b ^= 0x5a;
            e.copyIn(buf, got.data(), got.size());
            int64_t out = e.creat("/out.bin");
            if (out < 0)
                return -4;
            e.write(int(out), buf, got.size());
            e.close(int(out));
            return 42;
        }));
        EXPECT_EQ(host.call(), 42);
        EXPECT_GT(host.ocallsServed(), 4u);

        // The produced file is visible to the untrusted side.
        EXPECT_EQ(env.fileSize("/out.bin"), int64_t(content.size()));
    });
}

TEST(Enclave, SyscallsAreSlowerInsideEnclave)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        // Native timing.
        int fd = static_cast<int>(env.creat("/t.bin"));
        Gva buf = env.alloc(kPageSize);
        uint64_t t0 = env.tsc();
        constexpr int kIters = 50;
        for (int i = 0; i < kIters; ++i)
            env.pwrite(fd, buf, 1024, 0);
        uint64_t native = (env.tsc() - t0) / kIters;
        env.close(fd);

        EnclaveHost host(env, vm.programs());
        uint64_t enclave = 0;
        ASSERT_TRUE(host.create([&enclave](Env &e) -> int64_t {
            int64_t fd = e.open("/t.bin", kO_RDWR);
            Gva b = e.alloc(1024);
            uint64_t t0 = e.tsc();
            for (int i = 0; i < kIters; ++i)
                e.pwrite(int(fd), b, 1024, 0);
            enclave = (e.tsc() - t0) / kIters;
            e.close(int(fd));
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);
        double factor = double(enclave) / double(native);
        // The paper's Fig. 4 band: 3.3x - 7.1x.
        EXPECT_GT(factor, 2.5) << native << " vs " << enclave;
        EXPECT_LT(factor, 8.5) << native << " vs " << enclave;
    });
}

TEST(Enclave, DemandPagingRoundTrip)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        Gva heap_page = 0;
        ASSERT_TRUE(host.create([&heap_page](Env &e) -> int64_t {
            // Touch a heap page with a pattern.
            auto *ee = static_cast<EnclaveEnv *>(&e);
            heap_page = ee->config().heapLo + 4 * kPageSize;
            uint64_t pattern = 0x1122334455667788ULL;
            e.copyIn(heap_page, &pattern, 8);
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);

        // OS evicts the page (memory pressure).
        ASSERT_EQ(k.enclaveFreePage(p, heap_page), 0);
        // The swapped copy is encrypted: no plaintext pattern visible.
        const Bytes &swapped = p.enclave->swapStore.at(heap_page);
        uint64_t leaked;
        std::memcpy(&leaked, swapped.data(), 8);
        EXPECT_NE(leaked, 0x1122334455667788ULL);

        // Enclave touches the page again: fault -> restore -> verify.
        uint64_t before_faults = host.faultsServed();
        vm.programs(); // keep symmetry
        EnclaveHost host2(env, vm.programs());
        // Re-enter the same enclave: second call on host.
        // Program must observe the original plaintext after restore.
        // We re-use the first host: its program reads the page now.
        (void)host2;
        // New call with a fresh program isn't possible on this enclave,
        // so drive the fault through a second call of the same program:
        // the stored program only writes; instead verify via a reader
        // enclave is overkill — check the restore path directly.
        ASSERT_EQ(k.enclaveHandleFault(p, heap_page), 0);
        EXPECT_EQ(host.faultsServed(), before_faults);
        // Plaintext is back in place and protected again.
        Gpa pa = *p.as->userLeaf(heap_page) & kPteAddrMask;
        uint64_t restored;
        vm.machine().memory().read(pa, &restored, 8);
        EXPECT_EQ(restored, 0x1122334455667788ULL);
        EXPECT_FALSE(vm.machine().rmp().allowed(Vmpl::Vmpl3, pa, Access::Read,
                                                Cpl::Supervisor));
    });
}

TEST(Enclave, DemandPagingDetectsTamperedSwap)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        Gva page = 0;
        ASSERT_TRUE(host.create([&page](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            page = ee->config().heapLo;
            uint64_t v = 99;
            e.copyIn(page, &v, 8);
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);
        ASSERT_EQ(k.enclaveFreePage(p, page), 0);
        // Malicious OS flips a bit in the swapped ciphertext.
        p.enclave->swapStore.at(page)[17] ^= 0x80;
        EXPECT_EQ(k.enclaveHandleFault(p, page), -kEACCES);
    });
}

TEST(Enclave, TransparentFaultRecoveryInsideEnclave)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        Gva page = 0;
        uint64_t observed = 0;
        ASSERT_TRUE(host.create([&](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            if (page == 0) {
                // First call: write the secret.
                page = ee->config().heapLo + 8 * kPageSize;
                uint64_t v = 0xfeedface;
                e.copyIn(page, &v, 8);
                return 1;
            }
            // Second call: the page was evicted; access faults and the
            // SDK resolves it transparently.
            e.copyOut(page, &observed, 8);
            return 2;
        }));
        ASSERT_EQ(host.call(), 1);
        ASSERT_EQ(k.enclaveFreePage(p, page), 0);
        ASSERT_EQ(host.call(), 2);
        EXPECT_EQ(observed, 0xfeedfaceULL);
        EXPECT_GT(host.faultsServed(), 0u);
    });
}

TEST(Enclave, UnsupportedSyscallKillsEnclave)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            return e.sys(59 /* execve */, 0, 0, 0);
        }));
        EXPECT_EQ(host.call(), -kEPERM);
        EXPECT_TRUE(host.killed());
    });
}

TEST(Enclave, IagoPointerReturnRejected)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            int64_t va = e.mmap(kPageSize, kPROT_READ | kPROT_WRITE);
            return va > 0 ? 0 : -1;
        }));
        EXPECT_EQ(host.call(), 0); // legitimate mmap is fine
        EXPECT_FALSE(host.killed());

        // The compromised kernel now mounts the IAGO attack [37]: mmap
        // returns a pointer *inside* the enclave, hoping the enclave
        // dereferences it as fresh memory. The SDK's pointer
        // sanitization kills the enclave instead (§6.2).
        Process &p2 = k.makeProcess("victim2");
        NativeEnv env2(k, p2);
        EnclaveHost victim(env2, vm.programs());
        ASSERT_TRUE(victim.create([](Env &e) -> int64_t {
            int64_t va = e.mmap(kPageSize, kPROT_READ | kPROT_WRITE);
            return va > 0 ? 0 : -1;
        }));
        k.setSyscallTamper([&victim](uint32_t no, int64_t ret) -> int64_t {
            if (no == kSysMmap && ret > 0)
                return int64_t(victim.config().heapLo);
            return ret;
        });
        EXPECT_LT(victim.call(), 0);
        EXPECT_TRUE(victim.killed());
        k.setSyscallTamper(nullptr);
    });
}

TEST(Enclave, NonEnclaveMprotectSyncedIntoCloneTables)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        // App shares a buffer with its enclave, then makes it read-only
        // via ordinary mprotect; the clone tables must follow (§6.2),
        // so an enclave write becomes an unresolvable fault.
        Gva shared = env.alloc(kPageSize);
        uint64_t seed_val = 11;
        env.copyIn(shared, &seed_val, 8);

        EnclaveHost host(env, vm.programs());
        int phase = 0;
        ASSERT_TRUE(host.create([shared, &phase](Env &e) -> int64_t {
            uint64_t v = 0;
            e.copyOut(shared, &v, 8); // reading shared memory works
            if (phase == 0)
                return int64_t(v);
            v = 99;
            e.copyIn(shared, &v, 8); // write after RO sync: fatal
            return 0;
        }));
        EXPECT_EQ(host.call(), 11);

        ASSERT_EQ(env.mprotect(shared, kPageSize, kern::kPROT_READ), 0);
        phase = 1;
        EXPECT_LT(host.call(), 0);
        EXPECT_TRUE(host.killed());
    });
}

TEST(Enclave, LazyMmapSyncOnFirstTouch)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            int64_t va = e.mmap(2 * kPageSize, kPROT_READ | kPROT_WRITE);
            if (va <= 0)
                return -1;
            // Touch it: first access faults in the clone tables and is
            // synchronized lazily (§6.2).
            uint64_t v = 123;
            e.copyIn(static_cast<Gva>(va), &v, 8);
            uint64_t back = 0;
            e.copyOut(static_cast<Gva>(va), &back, 8);
            return back == 123 ? 0 : -2;
        }));
        EXPECT_EQ(host.call(), 0);
        EXPECT_GT(host.faultsServed(), 0u);
    });
}

TEST(Enclave, TwoEnclavesGetDisjointPhysicalPages)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost a(env, vm.programs());
        ASSERT_TRUE(a.create([](Env &) -> int64_t { return 1; }));
        Process &p2 = k.makeProcess("worker2");
        NativeEnv env2(k, p2);
        EnclaveHost b(env2, vm.programs());
        ASSERT_TRUE(b.create([](Env &) -> int64_t { return 2; }));
        EXPECT_EQ(a.call(), 1);
        EXPECT_EQ(b.call(), 2);
        EXPECT_NE(a.enclaveId(), b.enclaveId());
        EXPECT_EQ(vm.services().enc().liveEnclaves(), 2u);

        const auto *ia = vm.services().enc().info(a.enclaveId());
        const auto *ib = vm.services().enc().info(b.enclaveId());
        ASSERT_TRUE(ia && ib);
        for (Gpa pa : ia->frames)
            EXPECT_EQ(ib->frames.count(pa), 0u);
    });
}

/** Map a 4-page anonymous window at @p lo with the ordinary mmap. */
void
mapWindow(NativeEnv &env, Gva lo)
{
    ASSERT_GT(env.sys(kSysMmap, lo, 4 * kPageSize, kPROT_READ | kPROT_WRITE,
                      kMAP_ANONYMOUS | kMAP_PRIVATE | kMAP_FIXED,
                      uint64_t(-1), 0),
              0);
}

/** A raw VeilS-ENC request from the (hostile) kernel, bypassing the
 *  enclave driver. */
core::IdcbMessage
rawEnc(Kernel &k, core::VeilOp op, std::initializer_list<uint64_t> args)
{
    core::IdcbMessage m;
    m.op = static_cast<uint32_t>(op);
    size_t i = 0;
    for (uint64_t a : args)
        m.args[i++] = a;
    k.callService(m);
    return m;
}

/** EncCreate over the 4-page window at @p lo of @p p's tables. */
core::IdcbMessage
rawEncCreate(VeilVm &vm, Kernel &k, Process &p, Gva lo)
{
    return rawEnc(k, core::VeilOp::EncCreate,
                  {p.as->cr3(), lo, lo + 4 * kPageSize,
                   vm.layout().osGhcb(0), // any shared page
                   0, 1, 0, k.idtHandler()});
}

/** A second process whose window at @p lo is a live enclave; returns
 *  the enclave's first frame. */
Gpa
victimEnclaveFrame(VeilVm &vm, Kernel &k, Gva lo, uint64_t *id = nullptr)
{
    Process &p2 = k.makeProcess("victim");
    NativeEnv env2(k, p2);
    mapWindow(env2, lo);
    core::IdcbMessage m = rawEncCreate(vm, k, p2, lo);
    EXPECT_EQ(m.status, static_cast<uint64_t>(core::VeilStatus::Ok));
    if (id)
        *id = m.ret[0];
    return *p2.as->userLeaf(lo) & kPteAddrMask;
}

TEST(Enclave, CreateAdmitsNoHostileOsLeaf)
{
    // A malicious OS edits the process tables behind the driver's back,
    // then asks VeilS-ENC to finalize an enclave over a 4-page window
    // (§6.2). A user leaf that names a frame VeilS-ENC must not share
    // fails initialization and leaves nothing behind: no enclave, no
    // RMP change on the named frame. An interior entry past guest
    // memory reads as "not present" (the walk agrees), so it maps
    // nothing and never reaches the RMP.
    const Gva lo = kEnclaveBase;
    const Gva stray = 0x6000000; // outside the window and guest memory
    using Undo = std::function<void()>;
    struct Row
    {
        const char *name;
        /// Plants the hostile entries; sets the frame they name (0 if
        /// none in guest memory) and returns their undo.
        std::function<Undo(VeilVm &, Kernel &, Process &, Gpa &)> plant;
        core::VeilStatus expect;
    };
    const Row rows[] = {
        {"two window pages alias one frame",
         [&](VeilVm &, Kernel &, Process &p, Gpa &frame) -> Undo {
             frame = *p.as->userLeaf(lo) & kPteAddrMask;
             p.as->mapUser(lo + kPageSize, frame, kPROT_READ | kPROT_WRITE);
             return [] {};
         },
         core::VeilStatus::VerifyFailed},
        {"user leaf beyond guest memory",
         [&](VeilVm &vm, Kernel &, Process &p, Gpa &) -> Undo {
             Gpa beyond = vm.machine().memory().size() + 16 * kPageSize;
             p.as->mapUser(stray, beyond, kPROT_READ | kPROT_WRITE);
             return [&p, stray] { p.as->unmapUser(stray); };
         },
         core::VeilStatus::VerifyFailed},
        {"another enclave's frame",
         [&](VeilVm &vm, Kernel &k, Process &p, Gpa &frame) -> Undo {
             frame = victimEnclaveFrame(vm, k, lo);
             p.as->mapUser(stray, frame, kPROT_READ | kPROT_WRITE);
             return [&p, stray] { p.as->unmapUser(stray); };
         },
         core::VeilStatus::VerifyFailed},
        {"sealed template frame",
         [&](VeilVm &vm, Kernel &k, Process &p, Gpa &frame) -> Undo {
             uint64_t id = 0;
             frame = victimEnclaveFrame(vm, k, lo, &id);
             EXPECT_EQ(rawEnc(k, core::VeilOp::EncSnapshot, {id}).status,
                       static_cast<uint64_t>(core::VeilStatus::Ok));
             p.as->mapUser(stray, frame, kPROT_READ | kPROT_WRITE);
             return [&p, stray] { p.as->unmapUser(stray); };
         },
         core::VeilStatus::VerifyFailed},
        {"own enclave frame outside the window",
         [&](VeilVm &, Kernel &, Process &p, Gpa &frame) -> Undo {
             frame = *p.as->userLeaf(lo) & kPteAddrMask;
             p.as->mapUser(stray, frame, kPROT_READ | kPROT_WRITE);
             return [&p, stray] { p.as->unmapUser(stray); };
         },
         core::VeilStatus::VerifyFailed},
        {"Dom-SRV frame below the OS region",
         [&](VeilVm &vm, Kernel &, Process &p, Gpa &frame) -> Undo {
             frame = vm.layout().srvHeap; // where clone tables live
             p.as->mapUser(stray, frame, kPROT_READ | kPROT_WRITE);
             return [&p, stray] { p.as->unmapUser(stray); };
         },
         core::VeilStatus::VerifyFailed},
        {"interior L1 entry beyond guest memory",
         [&](VeilVm &vm, Kernel &k, Process &p, Gpa &) -> Undo {
             // The L1 table covering the stray VA's 2 MiB slot.
             Gpa table = p.as->cr3();
             for (int level = 3; level > 1; --level) {
                 uint64_t e = 0;
                 k.cpu().readPhys(table + ptIndex(stray, level) * 8, &e, 8);
                 table = e & kPteAddrMask;
             }
             Gpa slot = table + ptIndex(stray, 1) * 8;
             uint64_t bad = (vm.machine().memory().size() + 16 * kPageSize) |
                            PtePresent | PteWrite | PteUser;
             k.cpu().writePhys(slot, &bad, 8);
             return [&k, slot] {
                 uint64_t none = 0;
                 k.cpu().writePhys(slot, &none, 8);
             };
         },
         core::VeilStatus::Ok},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        inVm(testConfig(),
             [&](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
                 mapWindow(env, lo);
                 Gpa frame = 0;
                 Undo undo = row.plant(vm, k, p, frame);
                 size_t live = vm.services().enc().liveEnclaves();
                 PermMask vmpl2 =
                     frame ? vm.machine().rmp().perms(frame, Vmpl::Vmpl2) : 0;

                 core::IdcbMessage m = rawEncCreate(vm, k, p, lo);
                 EXPECT_EQ(m.status, static_cast<uint64_t>(row.expect));
                 bool ok = row.expect == core::VeilStatus::Ok;
                 EXPECT_EQ(vm.services().enc().liveEnclaves(), live + ok);
                 if (frame) {
                     EXPECT_EQ(vm.machine().rmp().perms(frame, Vmpl::Vmpl2),
                               vmpl2);
                 }
                 if (ok) {
                     const core::EnclaveInfo *info =
                         vm.services().enc().info(m.ret[0]);
                     ASSERT_NE(info, nullptr);
                     EXPECT_FALSE(tryWalk(vm.machine().memory(),
                                          info->cloneCr3, stray,
                                          Access::Read, Cpl::User)
                                      .has_value());
                 }
                 undo();
             });
    }
}

TEST(Enclave, SyncPermsRefusesLeafBeyondGuestMemory)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }));
        // Malicious OS: after the enclave exists, it writes a user PTE
        // naming a frame beyond guest memory and asks VeilS-ENC to
        // mirror it into the clone. The page is refused like an
        // enclave-frame alias: nothing is mapped, the RMP is not asked.
        const Gva stray = 0x6000000;
        ASSERT_FALSE(p.as->userLeaf(stray).has_value());
        Gpa beyond = vm.machine().memory().size() + 16 * kPageSize;
        p.as->mapUser(stray, beyond, kPROT_READ | kPROT_WRITE);

        core::IdcbMessage m;
        m.op = static_cast<uint32_t>(core::VeilOp::EncSyncPerms);
        m.args[0] = host.enclaveId();
        m.args[1] = stray;
        m.args[2] = kPageSize;
        m.args[3] = 1; // read + write
        k.callService(m);
        EXPECT_EQ(m.status, static_cast<uint64_t>(core::VeilStatus::Ok));
        const core::EnclaveInfo *info =
            vm.services().enc().info(host.enclaveId());
        ASSERT_NE(info, nullptr);
        EXPECT_FALSE(tryWalk(vm.machine().memory(), info->cloneCr3, stray,
                             Access::Read, Cpl::User)
                         .has_value());
        p.as->unmapUser(stray); // never the allocator's frame
        EXPECT_EQ(host.call(), 0);
    });
}

TEST(Enclave, MprotectInsideEnclaveMediatedByService)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            Gva page = ee->config().heapLo;
            uint64_t v = 5;
            e.copyIn(page, &v, 8);
            // Make our own heap page read-only: routed to VeilS-ENC.
            if (e.mprotect(page, kPageSize, kPROT_READ) != 0)
                return -1;
            // Writing now faults irrecoverably -> would kill; verify
            // read still works, then restore.
            uint64_t back = 0;
            e.copyOut(page, &back, 8);
            if (back != 5)
                return -2;
            if (e.mprotect(page, kPageSize, kPROT_READ | kPROT_WRITE) != 0)
                return -3;
            e.copyIn(page, &back, 8);
            return 0;
        }));
        EXPECT_EQ(host.call(), 0);
        EXPECT_FALSE(host.killed());
    });
}

TEST(Enclave, OsCannotMprotectEnclaveRegion)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        ASSERT_TRUE(host.create([](Env &) -> int64_t { return 0; }));
        // The OS (outside any enclave session) tries to flip enclave
        // permissions through the ordinary syscall: denied (§6.2).
        EXPECT_EQ(env.mprotect(host.config().heapLo, kPageSize,
                               kPROT_READ | kPROT_WRITE | kPROT_EXEC),
                  -kEACCES);
    });
}

TEST(Enclave, ExitlessModeServesSyscallsWithoutSwitches)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        env.close(int(env.creat("/xl.bin")));

        auto program = [](Env &e) -> int64_t {
            int64_t fd = e.open("/xl.bin", kO_RDWR);
            Gva buf = e.alloc(1024);
            for (int i = 0; i < 20; ++i)
                e.pwrite(int(fd), buf, 1024, 0);
            int64_t n = e.pread(int(fd), buf, 1024, 0);
            e.close(int(fd));
            return n;
        };

        // Baseline: ordinary switch-based redirection.
        EnclaveHost normal(env, vm.programs());
        ASSERT_TRUE(normal.create(program));
        uint64_t switches0 = vm.hypervisor().stats().domainSwitches;
        uint64_t t0 = env.tsc();
        ASSERT_EQ(normal.call(), 1024);
        uint64_t normal_cycles = env.tsc() - t0;
        uint64_t normal_switches =
            vm.hypervisor().stats().domainSwitches - switches0;
        normal.destroy();

        // Exitless: data-plane syscalls are served by the worker.
        Process &p2 = k.makeProcess("xl");
        NativeEnv env2(k, p2);
        EnclaveHost exitless(env2, vm.programs());
        EnclaveHost::Params params;
        params.exitless = true;
        ASSERT_TRUE(exitless.create(program, params));
        switches0 = vm.hypervisor().stats().domainSwitches;
        t0 = env.tsc();
        ASSERT_EQ(exitless.call(), 1024);
        uint64_t exitless_cycles = env.tsc() - t0;
        uint64_t exitless_switches =
            vm.hypervisor().stats().domainSwitches - switches0;

        // open/close still switch; the 21 reads/writes must not.
        EXPECT_GT(exitless.lastRunStats().exitlessCalls, 20u);
        EXPECT_LT(exitless_switches, normal_switches / 3);
        EXPECT_LT(exitless_cycles, normal_cycles);
        exitless.destroy();
    });
}

TEST(Enclave, ExitlessRefusedUnderVeilLogAudit)
{
    // Batched audit too: an in-session record takes the sync LogAppend.
    for (auto backend :
         {kern::AuditBackend::VeilLog, kern::AuditBackend::VeilLogBatched}) {
        VmConfig cfg = testConfig();
        cfg.kernel.auditBackend = backend;
        cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
        VeilVm vm(cfg);
        bool refused = false;
        auto result = vm.run([&](Kernel &k, Process &p) {
            NativeEnv env(k, p);
            EnclaveHost host(env, vm.programs());
            EnclaveHost::Params params;
            params.exitless = true;
            try {
                host.create([](Env &) -> int64_t { return 0; }, params);
            } catch (const PanicError &) {
                refused = true;
            }
        });
        EXPECT_TRUE(result.terminated);
        EXPECT_TRUE(refused);
    }
}

TEST(Enclave, DestroyScrubsAndReturnsMemory)
{
    inVm(testConfig(), [](VeilVm &vm, Kernel &k, Process &p, NativeEnv &env) {
        EnclaveHost host(env, vm.programs());
        Gva heap = 0;
        ASSERT_TRUE(host.create([&heap](Env &e) -> int64_t {
            auto *ee = static_cast<EnclaveEnv *>(&e);
            heap = ee->config().heapLo;
            uint64_t secret = 0xc0ffee;
            e.copyIn(heap, &secret, 8);
            return 0;
        }));
        ASSERT_EQ(host.call(), 0);
        Gpa pa = *p.as->userLeaf(heap) & kPteAddrMask;
        ASSERT_EQ(host.destroy(), 0);
        // Frame is OS-accessible again and scrubbed.
        EXPECT_TRUE(vm.machine().rmp().allowed(Vmpl::Vmpl3, pa, Access::Read,
                                               Cpl::Supervisor));
        uint64_t residue = 1;
        vm.machine().memory().read(pa, &residue, 8);
        EXPECT_EQ(residue, 0u);
        EXPECT_EQ(vm.services().enc().liveEnclaves(), 0u);
    });
}

} // namespace
} // namespace veil
