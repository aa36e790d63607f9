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

namespace {

/** The 4 KiB PTE a split of the 2 MiB leaf @p huge holds for @p va:
 *  the region frame plus the page's offset in it, PS clear. */
uint64_t
pteIn2m(uint64_t huge, Gva va)
{
    uint64_t attrs = huge & ~(kPteAddrMask2m | uint64_t(PtePs));
    return attrs |
           ((huge & kPteAddrMask2m) + (pageAlignDown(va) & (kPageSize2m - 1)));
}

/** Outcome of the hardware walk. */
struct WalkOutcome
{
    std::optional<Translation> t; ///< set iff the access is permitted
    bool present = false;         ///< a present leaf denied the access
};

/** The one hardware walk, shared by tryWalk and walk. */
WalkOutcome
hwWalk(const GuestMemory &mem, Gpa cr3, Gva va, Access access, Cpl cpl,
       const RmpTable *rmp, Vmpl vmpl)
{
    if (cr3 == 0) {
        // Identity mapping: full supervisor rights, no user access.
        if (cpl == Cpl::User)
            return {};
        Gpa pa = va;
        if (!mem.contains(pa, 1))
            return {};
        return {Translation{pa, PtePresent | PteWrite}};
    }

    Gpa table = cr3;
    uint64_t entry = 0;
    bool huge = false;
    for (int level = 3; level >= 0; --level) {
        Gpa entry_addr = table + ptIndex(va, level) * 8;
        if (!mem.contains(entry_addr, 8))
            return {};
        // VMPL-0 always holds full rights on a validated private page,
        // so this asks only "is the table the guest's own memory?".
        if (rmp && !rmp->allowed(Vmpl::Vmpl0, table, Access::Read,
                                 Cpl::Supervisor)) {
            throw NpfFault(table, vmpl, Access::Read,
                           "page-table page RMP violation");
        }
        entry = mem.readObj<uint64_t>(entry_addr);
        if (!(entry & PtePresent))
            return {};
        if (level == 1 && (entry & PtePs)) {
            // PS-bit 2 MiB leaf: the walk stops one level early.
            huge = true;
            break;
        }
        table = entry & kPteAddrMask;
    }

    // Leaf permission checks.
    if ((cpl == Cpl::User && !(entry & PteUser)) ||
        (access == Access::Write && !(entry & PteWrite)) ||
        (access == Access::Execute && (entry & PteNx)))
        return {std::nullopt, true};

    Gpa pa = huge ? ((entry & kPteAddrMask2m) | (va & (kPageSize2m - 1)))
                  : ((entry & kPteAddrMask) | (va & (kPageSize - 1)));
    return {Translation{pa, entry, huge}};
}

} // namespace

std::optional<Translation>
tryWalk(const GuestMemory &mem, Gpa cr3, Gva va, Access access, Cpl cpl,
        const RmpTable *rmp, Vmpl vmpl)
{
    return hwWalk(mem, cr3, va, access, cpl, rmp, vmpl).t;
}

Translation
walk(const GuestMemory &mem, Gpa cr3, Gva va, Access access, Cpl cpl,
     const RmpTable *rmp, Vmpl vmpl)
{
    WalkOutcome w = hwWalk(mem, cr3, va, access, cpl, rmp, vmpl);
    if (!w.t)
        throw GuestPageFault(va, access, w.present);
    return *w.t;
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

bool
PageTableEditor::readable(Gpa table) const
{
    if (!mem_.contains(table, kPageSize))
        return false;
    checkTable(table, Access::Read);
    return true;
}

Gpa
PageTableEditor::newTable()
{
    Gpa frame = alloc_();
    ensure(isPageAligned(frame), "PageTableEditor: unaligned table frame");
    checkTable(frame, Access::Write);
    mem_.zeroPage(frame);
    return frame;
}

Gpa
PageTableEditor::createRoot()
{
    return newTable();
}

std::optional<Gpa>
PageTableEditor::entryAt(Gpa cr3, Gva va, int stop_level, bool create)
{
    // Interior entries carry the most permissive flags; leaves restrict.
    auto link = [](Gpa child) {
        return (child & kPteAddrMask) | PtePresent | PteWrite | PteUser;
    };
    Gpa table = cr3;
    checkTable(table, Access::Write);
    for (int level = 3;; --level) {
        Gpa entry_addr = table + ptIndex(va, level) * 8;
        if (level == stop_level)
            return entry_addr;
        uint64_t entry = mem_.readObj<uint64_t>(entry_addr);
        if (!(entry & PtePresent)) {
            if (!create)
                return std::nullopt;
            table = newTable();
            mem_.writeObj<uint64_t>(entry_addr, link(table));
        } else if (level == 1 && (entry & PtePs)) {
            // Split the 2 MiB leaf: a fresh L0 table whose 512 entries
            // replicate the region translation at 4 KiB granularity with
            // identical attribute bits, so no access outcome changes —
            // the caller's 4 KiB edit then lands in the new table.
            table = newTable();
            for (unsigned i = 0; i < 512; ++i) {
                mem_.writeObj<uint64_t>(table + i * 8,
                                        pteIn2m(entry, Gva(i) * kPageSize));
            }
            mem_.writeObj<uint64_t>(entry_addr, link(table));
        } else {
            table = entry & kPteAddrMask;
            checkTable(table, Access::Write);
        }
    }
}

std::optional<PageTableEditor::Entry>
PageTableEditor::findEntry(Gpa cr3, Gva va) const
{
    Gpa table = cr3;
    for (int level = 3;; --level) {
        if (!readable(table))
            return std::nullopt;
        uint64_t entry =
            mem_.readObj<uint64_t>(table + ptIndex(va, level) * 8);
        if (!(entry & PtePresent))
            return std::nullopt;
        if (level == 0)
            return Entry{entry, false};
        if (level == 1 && (entry & PtePs))
            return Entry{entry, true};
        table = entry & kPteAddrMask;
    }
}

void
PageTableEditor::map(Gpa cr3, Gva va, Gpa pa, PageFlags flags)
{
    ensure(isPageAligned(va) && isPageAligned(pa),
           "PageTableEditor::map: unaligned");
    mem_.writeObj<uint64_t>(*entryAt(cr3, va, 0, true), flags.toPte(pa));
}

void
PageTableEditor::map2m(Gpa cr3, Gva va, Gpa pa, PageFlags flags)
{
    ensure(isPageAligned2m(va) && isPageAligned2m(pa),
           "PageTableEditor::map2m: unaligned");
    Gpa entry_addr = *entryAt(cr3, va, 1, true);
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
    // Unmapping one page of a huge leaf splits it, then drops the 4 KiB
    // entry from the new L0 table.
    auto entry_addr = entryAt(cr3, va, 0, false);
    if (!entry_addr)
        return std::nullopt;
    uint64_t entry = mem_.readObj<uint64_t>(*entry_addr);
    if (!(entry & PtePresent))
        return std::nullopt;
    mem_.writeObj<uint64_t>(*entry_addr, 0);
    return entry & kPteAddrMask;
}

std::optional<uint64_t>
PageTableEditor::protect(Gpa cr3, Gva va, PageFlags flags)
{
    auto entry_addr = entryAt(cr3, va, 0, false);
    if (!entry_addr)
        return std::nullopt;
    uint64_t old = mem_.readObj<uint64_t>(*entry_addr);
    if (!(old & PtePresent))
        return std::nullopt;
    mem_.writeObj<uint64_t>(*entry_addr, flags.toPte(old & kPteAddrMask));
    return old;
}

std::optional<uint64_t>
PageTableEditor::leaf(Gpa cr3, Gva va) const
{
    auto e = findEntry(cr3, va);
    if (!e)
        return std::nullopt;
    return e->huge ? pteIn2m(e->pte, va) : e->pte;
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
    if (!readable(table))
        return;
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
            for (Gva p = std::max(va, lo); p < std::min(va + span, hi);
                 p += kPageSize)
                cb(p, pteIn2m(entry, p));
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
