/**
 * @file
 * Four-level x86-64-style guest page tables (4 KiB leaves, plus 2 MiB
 * PS-bit leaves at level 1).
 *
 * The walker is "hardware": it reads table pages (RMP-checked when
 * given the RMP) and raises GuestPageFault on missing/insufficient
 * PTEs. PageTableEditor is the software-side helper that kernel /
 * VeilS-ENC use to build and edit address spaces; table frames come
 * from a caller-supplied allocator so the kernel allocates from its
 * pool and VeilS-ENC from protected service memory (the cloned-table
 * design of §6.2). Each direction is one descent: the walk, the
 * editor's writing descent (entryAt) and its reading one (findEntry).
 */
#ifndef VEIL_SNP_PAGING_HH_
#define VEIL_SNP_PAGING_HH_

#include <functional>
#include <optional>

#include "snp/memory.hh"
#include "snp/types.hh"

namespace veil::snp {

/** PTE flag bits (subset of x86-64). */
enum PteBits : uint64_t {
    PtePresent = 1ULL << 0,
    PteWrite = 1ULL << 1,
    PteUser = 1ULL << 2,
    /// Page-size bit: set on a level-1 entry, the entry is a 2 MiB
    /// leaf instead of a pointer to an L0 table (DESIGN.md §14).
    PtePs = 1ULL << 7,
    PteNx = 1ULL << 63,
};

constexpr uint64_t kPteAddrMask = 0x000ffffffffff000ULL;
/** Frame mask for a 2 MiB (PS-bit) leaf. */
constexpr uint64_t kPteAddrMask2m = 0x000fffffffe00000ULL;

/** Leaf mapping attributes. */
struct PageFlags
{
    bool write = true;
    bool user = false;
    bool exec = false; ///< false => NX set

    uint64_t
    toPte(Gpa pa) const
    {
        uint64_t e = (pa & kPteAddrMask) | PtePresent;
        if (write)
            e |= PteWrite;
        if (user)
            e |= PteUser;
        if (!exec)
            e |= PteNx;
        return e;
    }

    /** Level-1 2 MiB leaf encoding of the same attributes. */
    uint64_t
    toPte2m(Gpa pa) const
    {
        return (toPte(0) & ~kPteAddrMask) | (pa & kPteAddrMask2m) | PtePs;
    }
};

/** Result of a successful walk. */
struct Translation
{
    Gpa gpa = 0;
    uint64_t pte = 0;
    bool huge = false; ///< mapped by a 2 MiB (PS-bit) leaf
};

class RmpTable;

/**
 * Hardware page walk. Throws GuestPageFault if the mapping is absent or
 * the PTE denies the access for the given CPL. cr3 == 0 selects the
 * identity mapping used by VeilMon and the protected services (their
 * isolation comes from VMPL, not from paging).
 *
 * With @p rmp, every table page the walk reads is RMP-checked first:
 * page-table reads are private accesses, so a table page that is not
 * the guest's validated private memory (e.g. one the host flipped to
 * shared) throws NpfFault naming that page, attributed to @p vmpl. The
 * check is ownership only, not the walker's VMPL permissions, and
 * charges no simulated cycles.
 */
Translation walk(const GuestMemory &mem, Gpa cr3, Gva va, Access access,
                 Cpl cpl, const RmpTable *rmp = nullptr,
                 Vmpl vmpl = Vmpl::Vmpl0);

/** Variant returning nullopt instead of throwing GuestPageFault (a
 *  denied table read still throws NpfFault). */
std::optional<Translation> tryWalk(const GuestMemory &mem, Gpa cr3, Gva va,
                                   Access access, Cpl cpl,
                                   const RmpTable *rmp = nullptr,
                                   Vmpl vmpl = Vmpl::Vmpl0);

/** Allocates a zeroed, page-aligned table frame; returns its GPA. */
using FrameAllocFn = std::function<Gpa()>;
/** Releases a table frame. */
using FrameFreeFn = std::function<void(Gpa)>;

/**
 * Software editor for a page-table tree rooted at cr3.
 *
 * All table reads/writes are raw guest-memory operations, modelling the
 * owning software's private (C-bit) accesses. Once guarded, every table
 * page is RMP-checked for the owner's VMPL before it is touched: a page
 * the host flipped to shared faults (#NPF) like the real access would,
 * instead of handing back re-keyed junk as page-table entries.
 */
class PageTableEditor
{
  public:
    PageTableEditor(GuestMemory &mem, FrameAllocFn alloc, FrameFreeFn free_fn);

    /** RMP-check every table page touched from now on as @p vmpl. */
    void
    guard(const RmpTable &rmp, Vmpl vmpl)
    {
        rmp_ = &rmp;
        vmpl_ = vmpl;
    }

    /** Allocate a fresh empty root; returns the new cr3. */
    Gpa createRoot();

    /** Map one page; replaces any existing mapping at @p va. A 4 KiB
     *  map into a region covered by a 2 MiB leaf splits the leaf into a
     *  512-entry L0 table first (same translations, finer edit). */
    void map(Gpa cr3, Gva va, Gpa pa, PageFlags flags);

    /** Map one 2 MiB region with a PS-bit leaf (@p va / @p pa 2 MiB
     *  aligned; the level-1 slot must be empty or a huge leaf). */
    void map2m(Gpa cr3, Gva va, Gpa pa, PageFlags flags);

    /** Unmap one page; returns the old PA if it was mapped. */
    std::optional<Gpa> unmap(Gpa cr3, Gva va);

    /** Change the leaf flags of a mapped page (splitting a 2 MiB leaf
     *  first); returns the old (4 KiB) PTE. An unmapped @p va returns
     *  nullopt and changes nothing. */
    std::optional<uint64_t> protect(Gpa cr3, Gva va, PageFlags flags);

    /** Leaf PTE at @p va, if present. Inside a 2 MiB leaf this
     *  synthesizes the 4 KiB-equivalent PTE (region frame + offset, PS
     *  clear) so per-page callers (CoW, eviction) see exactly what a
     *  split would yield. */
    std::optional<uint64_t> leaf(Gpa cr3, Gva va) const;

    /**
     * Visit every present leaf in [lo, hi): cb(va, pte). Used by
     * VeilS-ENC's initialization invariant scans.
     */
    void forEachLeaf(Gpa cr3, Gva lo, Gva hi,
                     const std::function<void(Gva, uint64_t)> &cb) const;

    /** Free the whole tree (table frames only, not mapped data pages). */
    void destroyRoot(Gpa cr3);

  private:
    /** A present leaf found by findEntry. */
    struct Entry
    {
        uint64_t pte;
        bool huge; ///< a level-1 2 MiB leaf, not a level-0 entry
    };

    /** Allocate, write-check and zero one table frame. */
    Gpa newTable();
    /**
     * The writing descent: the GPA of @p va's entry in its level
     * @p stop_level table. Write-checks each table once. A missing
     * table is allocated (@p create) or ends the descent (nullopt);
     * with @p stop_level 0, a 2 MiB leaf on the way is split into a
     * 512-entry L0 table with the same translations.
     */
    std::optional<Gpa> entryAt(Gpa cr3, Gva va, int stop_level, bool create);
    /** The reading descent: read-checks each table and stops at a
     *  present L0 entry or 2 MiB leaf (see readable()). */
    std::optional<Entry> findEntry(Gpa cr3, Gva va) const;
    void destroyLevel(Gpa table, int level);
    void forEachLeafIn(Gpa table, int level, Gva base, Gva lo, Gva hi,
                       const std::function<void(Gva, uint64_t)> &cb) const;
    /** Throws NpfFault when guarded and @p vmpl may not @p access it. */
    void checkTable(Gpa table, Access access) const;
    /**
     * The reading descents' table check: a table outside guest memory
     * (an interior entry the OS pointed past it) reads as not present,
     * as in the hardware walk; any other is read-checked.
     */
    bool readable(Gpa table) const;

    GuestMemory &mem_;
    FrameAllocFn alloc_;
    FrameFreeFn free_;
    const RmpTable *rmp_ = nullptr; ///< set by guard()
    Vmpl vmpl_ = Vmpl::Vmpl0;
};

/** Index of @p va at page-table @p level (3 = root). */
unsigned ptIndex(Gva va, int level);

} // namespace veil::snp

#endif // VEIL_SNP_PAGING_HH_
