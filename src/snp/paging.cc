#include "snp/paging.hh"

#include <algorithm>

#include "base/log.hh"
#include "snp/fault.hh"
#include "snp/rmp.hh"

namespace veil::snp {

unsigned
ptIndex(Gva va, int level)
{
    return static_cast<unsigned>((va >> (kPageShift + 9 * level)) & 0x1ff);
}

std::optional<Translation>
tryWalk(const GuestMemory &mem, Gpa cr3, Gva va, Access access, Cpl cpl,
        const RmpTable *rmp, Vmpl vmpl)
{
    if (cr3 == 0) {
        // Identity mapping: full supervisor rights, no user access.
        if (cpl == Cpl::User)
            return std::nullopt;
        Gpa pa = va;
        if (!mem.contains(pa, 1))
            return std::nullopt;
        return Translation{pa, PtePresent | PteWrite};
    }

    Gpa table = cr3;
    uint64_t entry = 0;
    bool huge = false;
    for (int level = 3; level >= 0; --level) {
        Gpa entry_addr = table + ptIndex(va, level) * 8;
        if (!mem.contains(entry_addr, 8))
            return std::nullopt;
        // VMPL-0 always holds full rights on a validated private page,
        // so this asks only "is the table the guest's own memory?".
        if (rmp && !rmp->allowed(Vmpl::Vmpl0, table, Access::Read,
                                 Cpl::Supervisor)) {
            throw NpfFault(table, vmpl, Access::Read,
                           "page-table page RMP violation");
        }
        entry = mem.readObj<uint64_t>(entry_addr);
        if (!(entry & PtePresent))
            return std::nullopt;
        if (level == 1 && (entry & PtePs)) {
            // PS-bit 2 MiB leaf: the walk stops one level early.
            huge = true;
            break;
        }
        table = entry & kPteAddrMask;
    }

    // Leaf permission checks.
    if (cpl == Cpl::User && !(entry & PteUser))
        return std::nullopt;
    if (access == Access::Write && !(entry & PteWrite))
        return std::nullopt;
    if (access == Access::Execute && (entry & PteNx))
        return std::nullopt;

    Gpa pa = huge ? ((entry & kPteAddrMask2m) | (va & (kPageSize2m - 1)))
                  : ((entry & kPteAddrMask) | (va & (kPageSize - 1)));
    return Translation{pa, entry, huge};
}

Translation
walk(const GuestMemory &mem, Gpa cr3, Gva va, Access access, Cpl cpl,
     const RmpTable *rmp, Vmpl vmpl)
{
    // Distinguish not-present from protection faults for fault handlers.
    auto t = tryWalk(mem, cr3, va, access, cpl, rmp, vmpl);
    if (t)
        return *t;
    bool present = false;
    if (cr3 != 0) {
        auto probe = tryWalk(mem, cr3, va, Access::Read, Cpl::Supervisor,
                             rmp, vmpl);
        present = probe.has_value();
    }
    throw GuestPageFault(va, access, present);
}

PageTableEditor::PageTableEditor(GuestMemory &mem, FrameAllocFn alloc,
                                 FrameFreeFn free_fn)
    : mem_(mem), alloc_(std::move(alloc)), free_(std::move(free_fn))
{
}

void
PageTableEditor::checkTable(Gpa table, Access access) const
{
    if (rmp_ && !rmp_->allowed(vmpl_, table, access, Cpl::Supervisor)) {
        throw NpfFault(pageAlignDown(table), vmpl_, access,
                       "page-table page RMP violation");
    }
}

Gpa
PageTableEditor::createRoot()
{
    Gpa root = alloc_();
    ensure(isPageAligned(root), "PageTableEditor: unaligned table frame");
    checkTable(root, Access::Write);
    mem_.zeroPage(root);
    return root;
}

Gpa
PageTableEditor::ensureTable(Gpa table, unsigned idx)
{
    checkTable(table, Access::Write);
    Gpa entry_addr = table + idx * 8;
    uint64_t entry = mem_.readObj<uint64_t>(entry_addr);
    if (entry & PtePresent)
        return entry & kPteAddrMask;
    Gpa frame = alloc_();
    checkTable(frame, Access::Write);
    mem_.zeroPage(frame);
    // Interior entries carry the most permissive flags; leaves restrict.
    uint64_t e = (frame & kPteAddrMask) | PtePresent | PteWrite | PteUser;
    mem_.writeObj<uint64_t>(entry_addr, e);
    return frame;
}

Gpa
PageTableEditor::ensureLeafTable(Gpa table, Gva va)
{
    checkTable(table, Access::Write);
    Gpa entry_addr = table + ptIndex(va, 1) * 8;
    uint64_t entry = mem_.readObj<uint64_t>(entry_addr);
    if ((entry & PtePresent) && (entry & PtePs)) {
        // Split the 2 MiB leaf: a fresh L0 table whose 512 entries
        // replicate the region translation at 4 KiB granularity with
        // identical attribute bits, so no access outcome changes — the
        // caller's 4 KiB edit then lands in the new table.
        Gpa l0 = alloc_();
        checkTable(l0, Access::Write);
        mem_.zeroPage(l0);
        uint64_t attrs = entry & ~(kPteAddrMask2m | uint64_t(PtePs));
        Gpa frame = entry & kPteAddrMask2m;
        for (unsigned i = 0; i < 512; ++i) {
            mem_.writeObj<uint64_t>(l0 + i * 8,
                                    attrs | (frame + Gpa(i) * kPageSize));
        }
        mem_.writeObj<uint64_t>(entry_addr, (l0 & kPteAddrMask) |
                                                PtePresent | PteWrite |
                                                PteUser);
        return l0;
    }
    return ensureTable(table, ptIndex(va, 1));
}

void
PageTableEditor::map(Gpa cr3, Gva va, Gpa pa, PageFlags flags)
{
    ensure(isPageAligned(va) && isPageAligned(pa),
           "PageTableEditor::map: unaligned");
    Gpa table = cr3;
    for (int level = 3; level >= 2; --level)
        table = ensureTable(table, ptIndex(va, level));
    table = ensureLeafTable(table, va);
    checkTable(table, Access::Write);
    mem_.writeObj<uint64_t>(table + ptIndex(va, 0) * 8, flags.toPte(pa));
}

void
PageTableEditor::map2m(Gpa cr3, Gva va, Gpa pa, PageFlags flags)
{
    ensure(isPageAligned2m(va) && isPageAligned2m(pa),
           "PageTableEditor::map2m: unaligned");
    Gpa table = cr3;
    for (int level = 3; level >= 2; --level)
        table = ensureTable(table, ptIndex(va, level));
    checkTable(table, Access::Write);
    Gpa entry_addr = table + ptIndex(va, 1) * 8;
    uint64_t old = mem_.readObj<uint64_t>(entry_addr);
    // Replacing a live L0 subtree would leak its table frame; callers
    // map huge leaves only into empty (or huge) slots.
    ensure(!(old & PtePresent) || (old & PtePs),
           "PageTableEditor::map2m: slot holds a 4 KiB subtree");
    mem_.writeObj<uint64_t>(entry_addr, flags.toPte2m(pa));
}

std::optional<Gpa>
PageTableEditor::unmap(Gpa cr3, Gva va)
{
    Gpa table = cr3;
    for (int level = 3; level >= 1; --level) {
        checkTable(table, Access::Write);
        uint64_t entry =
            mem_.readObj<uint64_t>(table + ptIndex(va, level) * 8);
        if (!(entry & PtePresent))
            return std::nullopt;
        if (level == 1 && (entry & PtePs)) {
            // Unmapping one page of a huge leaf: split, then drop the
            // 4 KiB entry from the new L0 table.
            table = ensureLeafTable(table, va);
            break;
        }
        table = entry & kPteAddrMask;
    }
    checkTable(table, Access::Write);
    Gpa leaf_addr = table + ptIndex(va, 0) * 8;
    uint64_t entry = mem_.readObj<uint64_t>(leaf_addr);
    if (!(entry & PtePresent))
        return std::nullopt;
    mem_.writeObj<uint64_t>(leaf_addr, 0);
    return entry & kPteAddrMask;
}

void
PageTableEditor::protect(Gpa cr3, Gva va, PageFlags flags)
{
    auto old = leaf(cr3, va);
    if (!old)
        fatal("PageTableEditor::protect: page not mapped");
    map(cr3, va, *old & kPteAddrMask, flags);
}

std::optional<uint64_t>
PageTableEditor::leaf(Gpa cr3, Gva va) const
{
    Gpa table = cr3;
    for (int level = 3; level >= 1; --level) {
        checkTable(table, Access::Read);
        uint64_t entry =
            mem_.readObj<uint64_t>(table + ptIndex(va, level) * 8);
        if (!(entry & PtePresent))
            return std::nullopt;
        if (level == 1 && (entry & PtePs)) {
            // Synthesize the 4 KiB view of the huge leaf: region frame
            // plus the VA's page offset, PS clear — byte-identical to
            // what the corresponding L0 entry would hold after a split.
            uint64_t attrs = entry & ~(kPteAddrMask2m | uint64_t(PtePs));
            Gpa frame = (entry & kPteAddrMask2m) +
                        (pageAlignDown(va) & (kPageSize2m - 1));
            return attrs | frame;
        }
        table = entry & kPteAddrMask;
    }
    checkTable(table, Access::Read);
    uint64_t entry = mem_.readObj<uint64_t>(table + ptIndex(va, 0) * 8);
    if (!(entry & PtePresent))
        return std::nullopt;
    return entry;
}

std::optional<uint64_t>
PageTableEditor::leaf2m(Gpa cr3, Gva va) const
{
    Gpa table = cr3;
    for (int level = 3; level >= 2; --level) {
        checkTable(table, Access::Read);
        uint64_t entry =
            mem_.readObj<uint64_t>(table + ptIndex(va, level) * 8);
        if (!(entry & PtePresent))
            return std::nullopt;
        table = entry & kPteAddrMask;
    }
    checkTable(table, Access::Read);
    uint64_t entry = mem_.readObj<uint64_t>(table + ptIndex(va, 1) * 8);
    if (!(entry & PtePresent) || !(entry & PtePs))
        return std::nullopt;
    return entry;
}

void
PageTableEditor::forEachLeaf(Gpa cr3, Gva lo, Gva hi,
                             const std::function<void(Gva, uint64_t)> &cb) const
{
    forEachLeafIn(cr3, 3, 0, pageAlignDown(lo), hi, cb);
}

void
PageTableEditor::forEachLeafIn(
    Gpa table, int level, Gva base, Gva lo, Gva hi,
    const std::function<void(Gva, uint64_t)> &cb) const
{
    // Sparse traversal: each table is checked and read once, and
    // non-present subtrees are skipped whole. Visits exactly the pages
    // a page-stride leaf() probe of [lo, hi) would, in the same order.
    checkTable(table, Access::Read);
    const Gva span = Gva(1) << (kPageShift + 9 * level);
    for (unsigned i = lo > base ? unsigned((lo - base) / span) : 0; i < 512;
         ++i) {
        Gva va = base + i * span;
        if (va >= hi)
            break;
        uint64_t entry = mem_.readObj<uint64_t>(table + i * 8);
        if (!(entry & PtePresent))
            continue;
        if (level == 0) {
            cb(va, entry);
        } else if (level == 1 && (entry & PtePs)) {
            // The 4 KiB view of a huge leaf, as leaf() synthesizes it.
            uint64_t attrs = entry & ~(kPteAddrMask2m | uint64_t(PtePs));
            Gpa frame = entry & kPteAddrMask2m;
            for (Gva p = std::max(va, lo); p < std::min(va + span, hi);
                 p += kPageSize)
                cb(p, attrs | (frame + (p - va)));
        } else {
            forEachLeafIn(entry & kPteAddrMask, level - 1, va, lo, hi, cb);
        }
    }
}

void
PageTableEditor::destroyLevel(Gpa table, int level)
{
    // Teardown never throws (it runs from destructors): a table page
    // the host took is neither read nor returned to the allocator, and
    // the subtree below it is abandoned with it.
    if (rmp_ && !rmp_->allowed(vmpl_, table, Access::Read, Cpl::Supervisor))
        return;
    // Levels 3..1 point at child tables; level 0 entries point at data
    // pages, which belong to the address-space owner and are freed
    // separately.
    if (level > 0) {
        for (unsigned i = 0; i < 512; ++i) {
            uint64_t entry = mem_.readObj<uint64_t>(table + i * 8);
            // A PS leaf points at a data region, not a child table.
            if ((entry & PtePresent) &&
                !(level == 1 && (entry & PtePs)))
                destroyLevel(entry & kPteAddrMask, level - 1);
        }
    }
    free_(table);
}

void
PageTableEditor::destroyRoot(Gpa cr3)
{
    destroyLevel(cr3, 3);
}

} // namespace veil::snp
