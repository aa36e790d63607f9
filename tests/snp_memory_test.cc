/**
 * @file
 * GuestMemory backing store: a fresh store reads zero everywhere, its
 * bounds checks stop exactly at size(), a raw overrun past the end
 * faults, and a booted CVM is resident only for the pages it touched.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "base/log.hh"
#include "sdk/vm.hh"
#include "snp/memory.hh"

namespace veil {
namespace {

using namespace snp;

static_assert(!std::is_copy_constructible_v<GuestMemory>);
static_assert(!std::is_copy_assignable_v<GuestMemory>);

/** This process's resident set in bytes, from /proc/self/statm. */
size_t
residentBytes()
{
    FILE *f = std::fopen("/proc/self/statm", "r");
    EXPECT_NE(f, nullptr);
    if (f == nullptr)
        return 0;
    unsigned long total = 0, resident = 0;
    EXPECT_EQ(std::fscanf(f, "%lu %lu", &total, &resident), 2);
    std::fclose(f);
    return resident * size_t(sysconf(_SC_PAGESIZE));
}

TEST(GuestMemory, FreshStoreReadsZero)
{
    GuestMemory mem(16 * 1024 * 1024);
    const std::vector<uint8_t> zero(kPageSize, 0);
    std::vector<uint8_t> page(kPageSize, 0xAA);
    for (uint64_t pfn : {uint64_t(0), mem.pageCount() / 2,
                         mem.pageCount() - 1}) {
        mem.read(pfn * kPageSize, page.data(), kPageSize);
        EXPECT_EQ(page, zero) << "page " << pfn;
    }
}

TEST(GuestMemory, BoundsStopAtLastByte)
{
    LogConfig::setThreshold(LogLevel::Silent);
    GuestMemory mem(4 * kPageSize);
    const Gpa last = mem.size() - 1;
    mem.writeObj<uint8_t>(last, 0x5a);
    EXPECT_EQ(mem.readObj<uint8_t>(last), 0x5a);
    EXPECT_TRUE(mem.contains(last, 1));
    EXPECT_FALSE(mem.contains(mem.size(), 1));

    uint8_t b = 0;
    EXPECT_THROW(mem.read(mem.size(), &b, 1), PanicError);
    EXPECT_THROW(mem.write(mem.size(), &b, 1), PanicError);
    EXPECT_THROW(mem.read(last, &b, 2), PanicError);
    EXPECT_THROW(mem.zeroPage(mem.size()), PanicError);
}

TEST(GuestMemoryDeathTest, RawOverrunPastEndFaults)
{
    GuestMemory mem(4 * kPageSize);
    EXPECT_DEATH(
        {
            volatile uint8_t *p = mem.raw(mem.size());
            *p = 1;
        },
        "");
}

TEST(GuestMemory, BootedCvmIsResidentOnlyForTouchedPages)
{
    LogConfig::setThreshold(LogLevel::Silent);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 256 * 1024 * 1024;
    cfg.machine.numVcpus = 2;

    const size_t before = residentBytes();
    sdk::VeilVm vm(cfg);
    auto result = vm.run([](kern::Kernel &, kern::Process &) {});
    ASSERT_TRUE(result.terminated);
    const size_t grown = residentBytes() - before;
    EXPECT_LT(grown, size_t(64) * 1024 * 1024)
        << "resident set grew by " << (grown >> 20) << " MiB";
}

} // namespace
} // namespace veil
