/**
 * @file
 * Kernel-layer unit tests: ramfs structure, loopback socket stack,
 * frame allocator, audit formatting/rules, process fd tables, and
 * kernel misc paths not covered by the Env-level suites.
 */
#include <gtest/gtest.h>

#include "base/log.hh"
#include "kernel/audit.hh"
#include "kernel/fs.hh"
#include "kernel/mm.hh"
#include "kernel/net.hh"
#include "kernel/process.hh"
#include "sdk/vm.hh"
#include "snp/fault.hh"

namespace veil::kern {
namespace {

using snp::Gpa;
using snp::kPageSize;

// ---- RamFs ----

TEST(RamFs, PathResolution)
{
    RamFs fs;
    auto dir = fs.createDir(RamFs::kRoot, "etc");
    ASSERT_TRUE(dir);
    auto file = fs.createFile(*dir, "conf");
    ASSERT_TRUE(file);
    EXPECT_EQ(fs.resolve("/etc/conf"), file);
    EXPECT_EQ(fs.resolve("//etc///conf"), file); // normalization
    EXPECT_EQ(fs.resolve("/"), RamFs::kRoot);
    EXPECT_FALSE(fs.resolve("/etc/missing").has_value());
    EXPECT_FALSE(fs.resolve("/etc/conf/sub").has_value()); // file as dir
}

TEST(RamFs, ResolveParentSemantics)
{
    RamFs fs;
    fs.createDir(RamFs::kRoot, "d");
    auto pr = fs.resolveParent("/d/newfile");
    ASSERT_TRUE(pr);
    EXPECT_EQ(pr->second, "newfile");
    EXPECT_FALSE(fs.resolveParent("/missing/x").has_value());
    EXPECT_FALSE(fs.resolveParent("/").has_value()); // no leaf
}

TEST(RamFs, DuplicateNamesRejected)
{
    RamFs fs;
    ASSERT_TRUE(fs.createFile(RamFs::kRoot, "x"));
    EXPECT_FALSE(fs.createFile(RamFs::kRoot, "x").has_value());
    EXPECT_FALSE(fs.createDir(RamFs::kRoot, "x").has_value());
}

TEST(RamFs, RemoveRules)
{
    RamFs fs;
    auto d = fs.createDir(RamFs::kRoot, "d");
    fs.createFile(*d, "inner");
    EXPECT_FALSE(fs.remove(RamFs::kRoot, "d")); // non-empty dir
    EXPECT_TRUE(fs.remove(*d, "inner"));
    EXPECT_TRUE(fs.remove(RamFs::kRoot, "d")); // now empty
    EXPECT_FALSE(fs.remove(RamFs::kRoot, "d"));
}

TEST(RamFs, RenameMovesAcrossDirectories)
{
    RamFs fs;
    auto a = fs.createDir(RamFs::kRoot, "a");
    auto b = fs.createDir(RamFs::kRoot, "b");
    auto f = fs.createFile(*a, "f");
    fs.inode(*f).data = {1, 2, 3};
    ASSERT_TRUE(fs.rename(*a, "f", *b, "g"));
    EXPECT_FALSE(fs.resolve("/a/f").has_value());
    auto moved = fs.resolve("/b/g");
    ASSERT_TRUE(moved);
    EXPECT_EQ(fs.inode(*moved).data.size(), 3u);
    // Renaming onto a directory is refused.
    fs.createFile(*a, "f2");
    EXPECT_FALSE(fs.rename(*a, "f2", RamFs::kRoot, "b"));
}

// ---- NetStack ----

TEST(NetStack, ListenBacklogOrder)
{
    NetStack net;
    SockId srv = net.create();
    ASSERT_EQ(net.bind(srv, 80), 0);
    ASSERT_EQ(net.listen(srv, 8), 0);
    SockId c1 = net.create(), c2 = net.create();
    ASSERT_EQ(net.connect(c1, 80), 0);
    ASSERT_EQ(net.connect(c2, 80), 0);
    int64_t a1 = net.accept(srv);
    int64_t a2 = net.accept(srv);
    ASSERT_GT(a1, 0);
    ASSERT_GT(a2, 0);
    EXPECT_EQ(net.accept(srv), -kEAGAIN);
    // FIFO pairing: first accepted peer is c1.
    EXPECT_EQ(net.sock(SockId(a1)).peer, c1);
    EXPECT_EQ(net.sock(SockId(a2)).peer, c2);
}

TEST(NetStack, StreamSemantics)
{
    NetStack net;
    SockId srv = net.create();
    net.bind(srv, 81);
    net.listen(srv, 8);
    SockId cli = net.create();
    net.connect(cli, 81);
    SockId conn = SockId(net.accept(srv));

    uint8_t data[6] = {1, 2, 3, 4, 5, 6};
    EXPECT_EQ(net.send(cli, data, 3), 3);
    EXPECT_EQ(net.send(cli, data + 3, 3), 3);
    // Stream coalesces; partial reads allowed.
    uint8_t out[8] = {};
    EXPECT_EQ(net.recv(conn, out, 4), 4);
    EXPECT_EQ(net.recv(conn, out + 4, 4), 2);
    EXPECT_EQ(out[5], 6);
    EXPECT_EQ(net.recv(conn, out, 4), -kEAGAIN);
}

TEST(NetStack, PortReleasedOnClose)
{
    NetStack net;
    SockId srv = net.create();
    net.bind(srv, 82);
    net.listen(srv, 1);
    net.close(srv);
    SockId again = net.create();
    EXPECT_EQ(net.bind(again, 82), 0);
}

// ---- FrameAllocator ----

TEST(FrameAllocator, ReusesFreedFrames)
{
    FrameAllocator fa(0x10000, 0x20000);
    Gpa a = fa.alloc();
    Gpa b = fa.alloc();
    EXPECT_NE(a, b);
    size_t before = fa.freeFrames();
    fa.free(a);
    EXPECT_EQ(fa.freeFrames(), before + 1);
    EXPECT_EQ(fa.alloc(), a); // LIFO reuse
}

TEST(FrameAllocator, ContiguousRanges)
{
    FrameAllocator fa(0x10000, 0x40000);
    Gpa r = fa.allocRange(4);
    Gpa next = fa.alloc();
    EXPECT_EQ(next, r + 4 * snp::kPageSize);
    LogConfig::setThreshold(LogLevel::Silent);
    EXPECT_THROW(fa.free(0x1000), PanicError); // foreign frame
}

TEST(FrameAllocator, ExhaustionHaltsAttributed)
{
    LogConfig::setThreshold(LogLevel::Silent);
    FrameAllocator fa(0x10000, 0x12000); // two frames
    fa.alloc();
    fa.alloc();
    // Out-of-frames is a recoverable, attributed condition (§13): a
    // CvmHaltFault the harness reports, not a process abort.
    EXPECT_THROW(fa.alloc(), snp::CvmHaltFault);
}

TEST(FrameAllocator, TryAllocAndCounters)
{
    FrameAllocator fa(0x10000, 0x13000); // three frames
    EXPECT_EQ(fa.totalFrames(), 3u);
    Gpa a = fa.alloc();
    Gpa b = fa.alloc();
    EXPECT_EQ(fa.inUse(), 2u);
    EXPECT_EQ(fa.highWater(), 2u);
    auto c = fa.tryAlloc();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(fa.inUse(), 3u);
    EXPECT_FALSE(fa.tryAlloc().has_value()); // exhausted: recoverable probe
    fa.free(a);
    fa.free(b);
    EXPECT_EQ(fa.inUse(), 1u);
    EXPECT_EQ(fa.highWater(), 3u); // peak sticks
}

TEST(FrameAllocator, ReclaimHookRetriesAlloc)
{
    FrameAllocator fa(0x10000, 0x11000); // one frame
    Gpa a = fa.alloc();
    int calls = 0;
    fa.setReclaimHook([&] {
        ++calls;
        if (calls > 1)
            return false;
        fa.free(a);
        return true;
    });
    EXPECT_EQ(fa.alloc(), a); // hook freed the frame; retry succeeds
    EXPECT_EQ(calls, 1);
    EXPECT_THROW(fa.alloc(), snp::CvmHaltFault); // hook gives up -> halt
}

// ---- Audit ----

TEST(Audit, RulesSelectSyscalls)
{
    AuditSubsystem audit;
    audit.setRules({kSysOpen, kSysWrite});
    EXPECT_TRUE(audit.audited(kSysOpen));
    EXPECT_FALSE(audit.audited(kSysRead));
    EXPECT_FALSE(audit.audited(kSysMmap));
}

TEST(Audit, PriorWorkRulesetContainsCorePaths)
{
    auto rules = priorWorkAuditRuleset();
    for (uint32_t no : {kSysRead, kSysWrite, kSysOpen, kSysConnect,
                        kSysAccept, kSysUnlink, kSysRename}) {
        EXPECT_TRUE(rules.count(no)) << no;
    }
    EXPECT_FALSE(rules.count(kSysPoll)); // readiness probes not audited
    EXPECT_FALSE(rules.count(kSysGetpid));
}

TEST(Audit, RecordFormatContainsForensicFields)
{
    AuditSubsystem audit;
    uint64_t args[6] = {3, 0x7f00, 512, 0, 0, 0};
    std::string rec = audit.format(42, "nginx", kSysWrite, args,
                                   2'400'000'000ULL, 7);
    EXPECT_NE(rec.find("type=SYSCALL"), std::string::npos);
    EXPECT_NE(rec.find("syscall=1"), std::string::npos);
    EXPECT_NE(rec.find("pid=42"), std::string::npos);
    EXPECT_NE(rec.find("comm=\"nginx\""), std::string::npos);
    EXPECT_NE(rec.find("audit(1."), std::string::npos); // 1 second in
    EXPECT_NE(rec.find(":7)"), std::string::npos);      // sequence
}

// ---- Process ----

TEST(Process, FdTableAllocatesLowestFree)
{
    Process p;
    for (int i = 0; i < 3; ++i) {
        FdEntry e;
        e.type = FdEntry::Type::Console;
        p.fds.push_back(e);
    }
    int a = p.allocFd();
    EXPECT_EQ(a, 3);
    p.fds[a].type = FdEntry::Type::File;
    int b = p.allocFd();
    EXPECT_EQ(b, 4);
    p.fds[b].type = FdEntry::Type::File;
    p.fds[a].type = FdEntry::Type::Free;
    EXPECT_EQ(p.allocFd(), a); // lowest free slot reused
    EXPECT_EQ(p.fd(99), nullptr);
    EXPECT_EQ(p.fd(-1), nullptr);
}

// ---- Kernel odds and ends inside a VM ----

TEST(KernelMisc, ConsoleCapturesBootAndWrites)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    sdk::VeilVm vm(cfg);
    vm.run([](Kernel &k, Process &p) {
        sdk::NativeEnv env(k, p);
        env.printf("console says hi\n");
    });
    EXPECT_NE(vm.kernel().console().find("boot complete"),
              std::string::npos);
    EXPECT_NE(vm.kernel().console().find("console says hi"),
              std::string::npos);
}

TEST(KernelMisc, HotplugRejectsBadAndDuplicateVcpus)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 2;
    sdk::VeilVm vm(cfg);
    vm.run([](Kernel &k, Process &) {
        EXPECT_FALSE(k.bootVcpu(0));  // BSP
        EXPECT_FALSE(k.bootVcpu(99)); // out of range
        EXPECT_TRUE(k.bootVcpu(1));
        EXPECT_FALSE(k.bootVcpu(1)); // already booted
    });
}

TEST(KernelMisc, SyscallStatsCount)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    sdk::VeilVm vm(cfg);
    vm.run([](Kernel &k, Process &p) {
        sdk::NativeEnv env(k, p);
        uint64_t before = k.stats().syscalls;
        env.getpid();
        env.getpid();
        EXPECT_EQ(k.stats().syscalls, before + 2);
        EXPECT_EQ(p.syscalls, before + 2);
    });
}

TEST(KernelMisc, UnknownSyscallReturnsEnosys)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    sdk::VeilVm vm(cfg);
    vm.run([](Kernel &k, Process &p) {
        sdk::NativeEnv env(k, p);
        EXPECT_EQ(env.sys(299), -kENOSYS);
    });
}

TEST(KernelMisc, MunmappedUserVaIsReused)
{
    // 20,000 rounds of a 3-page mmap + munmap need ~234 MiB of user VA,
    // more than the 192 MiB mmap window: the allocator must reuse what
    // munmap gave back instead of panicking with VA space exhausted.
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    sdk::VeilVm vm(cfg);
    auto result = vm.run([](Kernel &k, Process &p) {
        sdk::NativeEnv env(k, p);
        constexpr uint64_t kLen = 3 * kPageSize;
        const int prot = kPROT_READ | kPROT_WRITE;
        // A fixed mapping the cursor passes before it wraps, and a
        // long-lived one that leaves a hole below it after the wrap.
        const snp::Gva fixed = 0x8000000;
        ASSERT_EQ(env.sys(kSysMmap, fixed, 2 * kPageSize, prot,
                          kMAP_ANONYMOUS | kMAP_PRIVATE | kMAP_FIXED,
                          uint64_t(-1), 0),
                  int64_t(fixed));
        const uint64_t marker = 0x5eed5eed5eed5eedULL;
        env.copyIn(fixed, &marker, sizeof(marker));
        int64_t keep = env.mmap(kPageSize, prot);
        ASSERT_GT(keep, 0);

        auto disjoint = [&] {
            snp::Gva prev_hi = 0;
            for (const auto &[lo, vma] : p.as->vmas()) {
                if (vma.lo < prev_hi)
                    return false;
                prev_hi = vma.hi;
            }
            return true;
        };
        bool wrapped = false;
        int64_t last = 0;
        for (int i = 0; i < 20000; ++i) {
            int64_t va = env.mmap(kLen, prot);
            ASSERT_GT(va, 0) << "round " << i;
            wrapped |= va < last;
            last = va;
            ASSERT_TRUE(uint64_t(va) + kLen <= fixed ||
                        uint64_t(va) >= fixed + 2 * kPageSize)
                << "round " << i << " overlaps the MAP_FIXED mapping";
            ASSERT_TRUE(uint64_t(va) + kLen <= uint64_t(keep) ||
                        uint64_t(va) >= uint64_t(keep) + kPageSize)
                << "round " << i << " overlaps a live mapping";
            if (i % 1000 == 0) {
                ASSERT_TRUE(disjoint()) << "round " << i;
            }
            ASSERT_EQ(env.munmap(snp::Gva(va), kLen), 0);
        }
        EXPECT_TRUE(wrapped);
        EXPECT_TRUE(disjoint());
        uint64_t back = 0;
        env.copyOut(fixed, &back, sizeof(back));
        EXPECT_EQ(back, marker);
    });
    EXPECT_TRUE(result.terminated) << vm.machine().haltInfo().reason;
}

TEST(KernelMisc, MunmapOfAMiddleRangeKeepsTheTailMapped)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    sdk::VeilVm vm(cfg);
    vm.run([](Kernel &k, Process &p) {
        sdk::NativeEnv env(k, p);
        int64_t va = env.mmap(4 * kPageSize, kPROT_READ | kPROT_WRITE);
        ASSERT_GT(va, 0);
        ASSERT_EQ(env.munmap(snp::Gva(va) + kPageSize, kPageSize), 0);
        EXPECT_NE(p.as->findVma(snp::Gva(va)), nullptr);
        EXPECT_EQ(p.as->findVma(snp::Gva(va) + kPageSize), nullptr);
        ASSERT_NE(p.as->findVma(snp::Gva(va) + 2 * kPageSize), nullptr);
        EXPECT_EQ(p.as->findVma(snp::Gva(va) + 3 * kPageSize)->hi,
                  snp::Gva(va) + 4 * kPageSize);
    });
}

} // namespace
} // namespace veil::kern
