/**
 * @file
 * SDK unit tests: the enclave heap allocator (unit + randomized
 * property sweep), syscall spec table sanity, and Env/libc-wrapper
 * semantics against the kernel (file offsets, O_APPEND, rename
 * replacement, ftruncate, dup, socket errors, mmap/mprotect errors).
 */
#include <gtest/gtest.h>

#include <map>

#include "base/log.hh"
#include "base/rng.hh"
#include "sdk/heap.hh"
#include "sdk/specs.hh"
#include "sdk/vm.hh"

namespace veil::sdk {
namespace {

using namespace kern;
using snp::Gva;

// ---- HeapAllocator ----

TEST(Heap, AllocFreeBasics)
{
    HeapAllocator h(0x1000, 0x11000); // 64 KiB
    Gva a = h.malloc(100);
    Gva b = h.malloc(200);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_GE(h.sizeOf(a), 100u);
    EXPECT_EQ(a % 16, 0u);
    h.free(a);
    h.free(b);
    EXPECT_EQ(h.allocatedBytes(), 0u);
    EXPECT_TRUE(h.checkIntegrity());
    EXPECT_EQ(h.chunkCount(), 1u); // fully coalesced
}

TEST(Heap, ExhaustionReturnsZero)
{
    HeapAllocator h(0x1000, 0x2000);
    EXPECT_NE(h.malloc(2048), 0u);
    EXPECT_EQ(h.malloc(4096), 0u);
}

TEST(Heap, DoubleFreePanics)
{
    LogConfig::setThreshold(LogLevel::Silent);
    HeapAllocator h(0x1000, 0x2000);
    Gva a = h.malloc(64);
    h.free(a);
    EXPECT_THROW(h.free(a), PanicError);
    EXPECT_THROW(h.free(a + 8), PanicError);
}

TEST(Heap, ReallocGrowsAndMoves)
{
    HeapAllocator h(0x1000, 0x1000 + (1 << 16));
    Gva a = h.malloc(64);
    Gva filler = h.malloc(64); // blocks in-place growth
    bool moved_called = false;
    Gva b = h.realloc(a, 1024, [&](Gva from, Gva to, size_t n) {
        moved_called = true;
        EXPECT_EQ(from, a);
        EXPECT_GE(n, 64u);
    });
    ASSERT_NE(b, 0u);
    EXPECT_NE(b, a);
    EXPECT_TRUE(moved_called);
    h.free(b);
    h.free(filler);
    EXPECT_TRUE(h.checkIntegrity());
}

TEST(Heap, CoalescingReclaimsNeighbors)
{
    HeapAllocator h(0x1000, 0x1000 + (1 << 14));
    Gva a = h.malloc(256), b = h.malloc(256), c = h.malloc(256);
    h.free(a);
    h.free(c);
    h.free(b); // merges with both sides
    EXPECT_EQ(h.chunkCount(), 1u);
}

TEST(Heap, RandomizedPropertySweep)
{
    Rng rng(2024);
    HeapAllocator h(0x10000, 0x10000 + (1 << 18));
    std::map<Gva, size_t> live;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.below(5) < 3) {
            size_t len = 1 + rng.below(2000);
            Gva p = h.malloc(len);
            if (p != 0) {
                // No overlap with any live allocation.
                size_t got = h.sizeOf(p);
                for (const auto &[q, qlen] : live)
                    EXPECT_TRUE(p + got <= q || q + qlen <= p);
                live[p] = got;
            }
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            h.free(it->first);
            live.erase(it);
        }
        if (i % 500 == 0) {
            ASSERT_TRUE(h.checkIntegrity());
        }
    }
    for (const auto &[p, len] : live)
        h.free(p);
    EXPECT_TRUE(h.checkIntegrity());
    EXPECT_EQ(h.allocatedBytes(), 0u);
}

// ---- Spec table ----

TEST(Specs, TableIsConsistent)
{
    size_t count = 0;
    const SyscallSpec *table = specTable(&count);
    ASSERT_GT(count, 30u);
    for (size_t i = 0; i < count; ++i) {
        const SyscallSpec &s = table[i];
        EXPECT_LE(s.nargs, 6u) << s.name;
        for (unsigned a = 0; a < s.nargs; ++a) {
            const ArgSpec &arg = s.args[a];
            if (arg.kind == ArgKind::InBuf || arg.kind == ArgKind::OutBuf) {
                ASSERT_GE(arg.lenArg, 0) << s.name;
                ASSERT_LT(arg.lenArg, int(s.nargs)) << s.name;
                EXPECT_EQ(s.args[arg.lenArg].kind, ArgKind::Value) << s.name;
            }
            if (arg.kind == ArgKind::InStruct ||
                arg.kind == ArgKind::OutStruct) {
                EXPECT_GT(arg.fixedLen, 0u) << s.name;
            }
        }
        // No duplicate numbers.
        for (size_t j = i + 1; j < count; ++j)
            EXPECT_NE(s.no, table[j].no) << s.name;
    }
    EXPECT_GE(supportedSpecCount(), 28u);
    EXPECT_EQ(findSpec(59)->supported, false); // execve kills
    EXPECT_EQ(findSpec(999999), nullptr);
}

// ---- Env semantics against the kernel ----

class EnvTest : public ::testing::Test
{
  protected:
    template <typename Fn>
    void
    inVm(Fn &&body)
    {
        LogConfig::setThreshold(LogLevel::Silent);
        VmConfig cfg;
        cfg.veilEnabled = false;
        cfg.machine.memBytes = 32 * 1024 * 1024;
        cfg.machine.numVcpus = 1;
        VeilVm vm(cfg);
        auto r = vm.run([&](kern::Kernel &k, kern::Process &p) {
            NativeEnv env(k, p);
            body(env);
        });
        ASSERT_TRUE(r.terminated);
    }
};

TEST_F(EnvTest, FileOffsetsAndLseek)
{
    inVm([](NativeEnv &env) {
        int fd = int(env.creat("/f"));
        Gva buf = env.stageBytes("abcdef", 6);
        EXPECT_EQ(env.write(fd, buf, 6), 6);
        EXPECT_EQ(env.lseek(fd, 2, kSeekSet), 2);
        char out[4] = {};
        Gva rbuf = env.alloc(16);
        EXPECT_EQ(env.read(fd, rbuf, 2), 2);
        env.copyOut(rbuf, out, 2);
        EXPECT_EQ(std::string(out, 2), "cd");
        EXPECT_EQ(env.lseek(fd, -1, kSeekEnd), 5);
        EXPECT_EQ(env.lseek(fd, 0, kSeekCur), 5);
        EXPECT_EQ(env.lseek(fd, -99, kSeekSet), -kEINVAL);
    });
}

TEST_F(EnvTest, AppendModeAndTrunc)
{
    inVm([](NativeEnv &env) {
        int fd = int(env.creat("/f"));
        Gva buf = env.stageBytes("12345", 5);
        env.write(fd, buf, 5);
        env.close(fd);
        // O_APPEND starts at EOF.
        fd = int(env.open("/f", kO_WRONLY | kO_APPEND));
        buf = env.stageBytes("67", 2);
        env.write(fd, buf, 2);
        env.close(fd);
        EXPECT_EQ(env.fileSize("/f"), 7);
        // O_TRUNC clears.
        fd = int(env.open("/f", kO_RDWR | kO_TRUNC));
        env.close(fd);
        EXPECT_EQ(env.fileSize("/f"), 0);
    });
}

TEST_F(EnvTest, RenameReplacesAndUnlinkRemoves)
{
    inVm([](NativeEnv &env) {
        env.close(int(env.creat("/a")));
        int fd = int(env.creat("/b"));
        Gva buf = env.stageBytes("zz", 2);
        env.write(fd, buf, 2);
        env.close(fd);
        EXPECT_EQ(env.rename("/b", "/a"), 0); // replaces /a
        EXPECT_EQ(env.fileSize("/a"), 2);
        EXPECT_EQ(env.fileSize("/b"), -kENOENT);
        EXPECT_EQ(env.unlink("/a"), 0);
        EXPECT_EQ(env.fileSize("/a"), -kENOENT);
        EXPECT_EQ(env.unlink("/a"), -kENOENT);
    });
}

TEST_F(EnvTest, MkdirAndNestedPaths)
{
    inVm([](NativeEnv &env) {
        EXPECT_EQ(env.mkdir("/dir"), 0);
        EXPECT_EQ(env.mkdir("/dir"), -kEEXIST);
        EXPECT_EQ(env.mkdir("/nope/sub"), -kENOENT);
        int fd = int(env.creat("/dir/file"));
        EXPECT_GE(fd, 0);
        env.close(fd);
        EXPECT_EQ(env.fileSize("/dir/file"), 0);
        // Directories can't be opened for writing.
        EXPECT_EQ(env.open("/dir", kO_RDWR), -kEISDIR);
    });
}

TEST_F(EnvTest, FtruncateAndDup)
{
    inVm([](NativeEnv &env) {
        int fd = int(env.creat("/f"));
        Gva buf = env.stageBytes("123456789", 9);
        env.write(fd, buf, 9);
        EXPECT_EQ(env.ftruncate(fd, 4), 0);
        EXPECT_EQ(env.fileSize("/f"), 4);
        int64_t dup_fd = env.sys(kSysDup, uint64_t(fd));
        ASSERT_GE(dup_fd, 0);
        EXPECT_NE(dup_fd, fd);
        EXPECT_EQ(env.close(int(dup_fd)), 0);
        EXPECT_EQ(env.close(fd), 0);
        EXPECT_EQ(env.close(fd), -kEBADF);
    });
}

TEST_F(EnvTest, SocketErrors)
{
    inVm([](NativeEnv &env) {
        EXPECT_EQ(env.connect(int(env.socket()), 9999), -kECONNREFUSED);
        int a = int(env.socket());
        EXPECT_EQ(env.bind(a, 7000), 0);
        EXPECT_EQ(env.listen(a, 8), 0);
        int b = int(env.socket());
        EXPECT_EQ(env.bind(b, 7000), -kEADDRINUSE);
        EXPECT_EQ(env.accept(a), -kEAGAIN);
        EXPECT_EQ(env.listen(b, 8), -kEINVAL); // unbound
        // Non-socket fds reject socket ops.
        int f = int(env.creat("/x"));
        EXPECT_EQ(env.accept(f), -kENOTSOCK);
    });
}

TEST_F(EnvTest, SocketDataFlowAndClose)
{
    inVm([](NativeEnv &env) {
        int srv = int(env.socket());
        env.bind(srv, 7001);
        env.listen(srv, 8);
        int cli = int(env.socket());
        ASSERT_EQ(env.connect(cli, 7001), 0);
        EXPECT_EQ(env.pollIn(srv), 1);
        int conn = int(env.accept(srv));
        ASSERT_GE(conn, 0);
        Gva buf = env.stageBytes("ping", 4);
        EXPECT_EQ(env.send(cli, buf, 4), 4);
        EXPECT_EQ(env.pollIn(conn), 1);
        Gva rbuf = env.alloc(16);
        EXPECT_EQ(env.recv(conn, rbuf, 16), 4);
        EXPECT_EQ(env.recv(conn, rbuf, 16), -kEAGAIN);
        // Orderly close: peer sees EOF.
        env.close(cli);
        EXPECT_EQ(env.recv(conn, rbuf, 16), 0);
        EXPECT_EQ(env.send(conn, buf, 4), -kEPIPE);
    });
}

TEST_F(EnvTest, MmapErrorsAndProtection)
{
    inVm([](NativeEnv &env) {
        // Unsupported file-backed mapping.
        EXPECT_EQ(env.sys(kSysMmap, 0, 4096, kPROT_READ, kMAP_PRIVATE, 3, 0),
                  -kEINVAL);
        int64_t va = env.mmap(8192, kPROT_READ | kPROT_WRITE);
        ASSERT_GT(va, 0);
        uint32_t v = 7;
        env.copyIn(Gva(va), &v, 4);
        EXPECT_EQ(env.mprotect(Gva(va), 8192, kPROT_READ), 0);
        EXPECT_EQ(env.munmap(Gva(va), 8192), 0);
        EXPECT_EQ(env.munmap(Gva(va), 8192), -kEINVAL); // already gone
    });
}

TEST_F(EnvTest, ClockAdvancesWithWork)
{
    inVm([](NativeEnv &env) {
        Gva out = env.alloc(16);
        env.sys(kSysClockGettime, 0, out);
        TimeSpec t1;
        env.copyOut(out, &t1, sizeof(t1));
        env.burn(2'400'000'000ULL); // one simulated second
        env.sys(kSysClockGettime, 0, out);
        TimeSpec t2;
        env.copyOut(out, &t2, sizeof(t2));
        double d1 = double(t1.sec) + double(t1.nsec) / 1e9;
        double d2 = double(t2.sec) + double(t2.nsec) / 1e9;
        EXPECT_NEAR(d2 - d1, 1.0, 0.01);
    });
}

} // namespace
} // namespace veil::sdk
