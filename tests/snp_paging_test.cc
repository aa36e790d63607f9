/**
 * @file
 * Page-table walker and editor tests: mapping lifecycle, permission
 * bits (W/U/NX), identity mapping for cr3 == 0, multi-level allocation
 * and teardown, plus a randomized map/translate property sweep.
 */
#include <gtest/gtest.h>

#include <map>

#include "base/log.hh"
#include "base/rng.hh"
#include "crypto/sha256.hh"
#include "snp/fault.hh"
#include "snp/memory.hh"
#include "snp/paging.hh"

namespace veil::snp {
namespace {

class PagingTest : public ::testing::Test
{
  protected:
    // Frame 0 is never handed out: cr3 == 0 is the identity-map sentinel.
    PagingTest() : mem(4 * 1024 * 1024), nextFrame(kPageSize)
    {
        LogConfig::setThreshold(LogLevel::Silent);
        editor = std::make_unique<PageTableEditor>(
            mem,
            [this] {
                Gpa f = nextFrame;
                nextFrame += kPageSize;
                ++liveFrames;
                return f;
            },
            [this](Gpa) { --liveFrames; });
        cr3 = editor->createRoot();
    }

    GuestMemory mem;
    Gpa nextFrame;
    int liveFrames = 0;
    std::unique_ptr<PageTableEditor> editor;
    Gpa cr3 = 0;
};

TEST_F(PagingTest, MapAndTranslate)
{
    Gpa data = 0x300000;
    editor->map(cr3, 0x400000, data, PageFlags{true, false, false});
    auto t = walk(mem, cr3, 0x400123, Access::Read, Cpl::Supervisor);
    EXPECT_EQ(t.gpa, data + 0x123);
}

TEST_F(PagingTest, UnmappedAddressFaultsNotPresent)
{
    try {
        walk(mem, cr3, 0x400000, Access::Read, Cpl::Supervisor);
        FAIL() << "expected GuestPageFault";
    } catch (const GuestPageFault &f) {
        EXPECT_FALSE(f.present);
        EXPECT_EQ(f.gva, 0x400000u);
    }
}

TEST_F(PagingTest, WriteToReadOnlyFaultsAsProtection)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{false, false, false});
    EXPECT_NO_THROW(walk(mem, cr3, 0x400000, Access::Read, Cpl::Supervisor));
    try {
        walk(mem, cr3, 0x400000, Access::Write, Cpl::Supervisor);
        FAIL() << "expected GuestPageFault";
    } catch (const GuestPageFault &f) {
        EXPECT_TRUE(f.present);
    }
}

TEST_F(PagingTest, UserBitEnforcedForCpl3)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{true, false, false});
    EXPECT_THROW(walk(mem, cr3, 0x400000, Access::Read, Cpl::User),
                 GuestPageFault);
    editor->protect(cr3, 0x400000, PageFlags{true, true, false});
    EXPECT_NO_THROW(walk(mem, cr3, 0x400000, Access::Read, Cpl::User));
}

TEST_F(PagingTest, NxBlocksExecute)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{true, false, false});
    EXPECT_THROW(walk(mem, cr3, 0x400000, Access::Execute, Cpl::Supervisor),
                 GuestPageFault);
    editor->protect(cr3, 0x400000, PageFlags{true, false, true});
    EXPECT_NO_THROW(
        walk(mem, cr3, 0x400000, Access::Execute, Cpl::Supervisor));
}

TEST_F(PagingTest, UnmapRemovesMapping)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{});
    auto old = editor->unmap(cr3, 0x400000);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(*old, 0x300000u);
    EXPECT_THROW(walk(mem, cr3, 0x400000, Access::Read, Cpl::Supervisor),
                 GuestPageFault);
    EXPECT_FALSE(editor->unmap(cr3, 0x400000).has_value());
}

TEST_F(PagingTest, IdentityMappingForMonitor)
{
    auto t = walk(mem, 0, 0x1234, Access::Write, Cpl::Supervisor);
    EXPECT_EQ(t.gpa, 0x1234u);
    // User code cannot use the identity map.
    EXPECT_THROW(walk(mem, 0, 0x1234, Access::Read, Cpl::User),
                 GuestPageFault);
}

TEST_F(PagingTest, DistantAddressesAllocateSeparateTables)
{
    int before = liveFrames;
    editor->map(cr3, 0x0000000000400000ULL, 0x300000, PageFlags{});
    // Same PML4/PDPT region but different PT.
    editor->map(cr3, 0x0000000000600000ULL, 0x301000, PageFlags{});
    // A far-away address needs a fresh PDPT chain.
    editor->map(cr3, 0x00007f0000000000ULL, 0x302000, PageFlags{});
    EXPECT_GE(liveFrames - before, 5);
    EXPECT_EQ(walk(mem, cr3, 0x00007f0000000123ULL, Access::Read,
                   Cpl::Supervisor).gpa,
              0x302123u);
}

TEST_F(PagingTest, ForEachLeafVisitsExactlyMappedPages)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{});
    editor->map(cr3, 0x402000, 0x301000, PageFlags{});
    std::map<Gva, Gpa> seen;
    editor->forEachLeaf(cr3, 0x400000, 0x404000,
                        [&](Gva va, uint64_t pte) {
                            seen[va] = pte & kPteAddrMask;
                        });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0x400000], 0x300000u);
    EXPECT_EQ(seen[0x402000], 0x301000u);
}

TEST_F(PagingTest, DestroyRootFreesAllTableFrames)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{});
    editor->map(cr3, 0x00007f0000000000ULL, 0x302000, PageFlags{});
    editor->destroyRoot(cr3);
    EXPECT_EQ(liveFrames, 0);
}

// A fixed edit sequence covering every editor write path: 4 KiB maps
// (fresh chains, shared chains, replacement), 2 MiB leaves, and a huge
// leaf split by each of map, unmap and protect. The pinned digest of
// all of guest memory afterwards (table pages included) fixes the
// frames allocated, their order and their contents.
TEST_F(PagingTest, EditSequenceMatchesPinnedDigest)
{
    const PageFlags rw{true, false, false};
    const PageFlags user_rw{true, true, false};
    const PageFlags user_rx{false, true, true};
    editor->map(cr3, 0x400000, 0x300000, rw);
    editor->map(cr3, 0x401000, 0x301000, user_rw);
    editor->map(cr3, 0x600000, 0x302000, user_rx);
    editor->map(cr3, 0x00007f0000000000ULL, 0x303000, rw);
    editor->map2m(cr3, 0x40000000, 0x200000, user_rw);
    editor->map2m(cr3, 0x40200000, 0x400000, user_rx);
    editor->map2m(cr3, 0x40400000, 0x600000, rw);
    editor->map2m(cr3, 0x40600000, 0x800000, rw);
    editor->map2m(cr3, 0x40600000, 0xa00000, user_rw); // huge over huge
    editor->map(cr3, 0x40003000, 0x350000, rw);         // split by map
    editor->unmap(cr3, 0x40205000);                     // split by unmap
    editor->protect(cr3, 0x40407000, user_rx);          // split by protect
    editor->protect(cr3, 0x401000, rw);
    editor->map(cr3, 0x400000, 0x304000, user_rx); // replace a 4 KiB leaf
    editor->unmap(cr3, 0x600000);
    editor->map(cr3, 0x0000008000000000ULL, 0x305000, user_rw);

    EXPECT_EQ(nextFrame, Gpa(16) * kPageSize); // 15 table frames
    EXPECT_EQ(crypto::digestHex(crypto::Sha256::hash(mem.raw(0), mem.size())),
              "e69675ff626b17cb546f1d4e1b95dd9946e79a9826d1acf63edaecb9322b9cb3");
}

TEST_F(PagingTest, ProtectUnmappedVaReturnsNulloptAndWritesNothing)
{
    editor->map(cr3, 0x400000, 0x300000, PageFlags{true, false, false});
    editor->map2m(cr3, 0x40000000, 0x200000, PageFlags{true, true, false});
    const crypto::Digest before = crypto::Sha256::hash(mem.raw(0), mem.size());
    const Gpa frames_before = nextFrame;
    // Missing L0 entry under a live table, missing L1 table, and a VA
    // whose whole chain from the root is missing.
    for (Gva va : {Gva(0x401000), Gva(0x800000), Gva(0x00007f0000000000ULL)})
        EXPECT_FALSE(editor->protect(cr3, va, PageFlags{false, true, true}));
    EXPECT_EQ(crypto::Sha256::hash(mem.raw(0), mem.size()), before);
    EXPECT_EQ(nextFrame, frames_before);

    // A mapped page returns its old PTE, also inside a 2 MiB leaf
    // (the 4 KiB view leaf() reported before the split).
    auto old = editor->protect(cr3, 0x400000, PageFlags{false, false, false});
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(*old, (PageFlags{true, false, false}).toPte(0x300000));
    auto view = editor->leaf(cr3, 0x40005000);
    auto old_huge =
        editor->protect(cr3, 0x40005000, PageFlags{false, true, false});
    ASSERT_TRUE(old_huge.has_value());
    EXPECT_EQ(old_huge, view);
    EXPECT_EQ(*old_huge & kPteAddrMask, 0x205000u);
}

TEST_F(PagingTest, FaultMessagesPrintHexAddresses)
{
    try {
        walk(mem, cr3, 0x4000000, Access::Read, Cpl::Supervisor);
        FAIL() << "expected GuestPageFault";
    } catch (const GuestPageFault &f) {
        EXPECT_STREQ(f.what(), "PF at GVA 0x4000000 (read, not-present)");
    }
    NpfFault npf(0x2f0000, Vmpl::Vmpl1, Access::Write,
                 "page-table page RMP violation");
    EXPECT_STREQ(npf.what(), "NPF at GPA 0x2f0000 (VMPL-1, write): "
                             "page-table page RMP violation");
}

TEST_F(PagingTest, RandomizedMapTranslateProperty)
{
    Rng rng(77);
    std::map<Gva, Gpa> model;
    for (int i = 0; i < 300; ++i) {
        Gva va = pageAlignDown(rng.below(1ULL << 30));
        Gpa pa = pageAlignDown(rng.below(2 * 1024 * 1024));
        if (rng.below(4) == 0 && !model.empty()) {
            auto it = model.begin();
            std::advance(it, rng.below(model.size()));
            editor->unmap(cr3, it->first);
            model.erase(it);
        } else {
            editor->map(cr3, va, pa, PageFlags{true, true, false});
            model[va] = pa;
        }
    }
    for (const auto &[va, pa] : model) {
        auto t = tryWalk(mem, cr3, va, Access::Write, Cpl::User);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->gpa, pa);
    }
}

} // namespace
} // namespace veil::snp
