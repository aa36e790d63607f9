/**
 * @file
 * Reverse-map (RMP) table: the SEV-SNP structure that tracks, for each
 * guest-physical page, its assignment/validation state and the per-VMPL
 * access permissions (§3 of the paper).
 *
 * Semantics implemented:
 *  - The hypervisor assigns pages (RMPUPDATE); the guest must PVALIDATE
 *    them before use. PVALIDATE is architecturally restricted to VMPL-0
 *    (this is what forces Veil's page-state-change delegation, §5.3).
 *  - On validation a page grants full access to VMPL-0 and none to
 *    lower privilege levels; VMPL-0 (and transitively any VMPL for
 *    numerically greater VMPLs) grants/revokes with RMPADJUST.
 *  - RMPADJUST touches its target page, so executing it on a page the
 *    caller cannot access raises #NPF — the paper's "OS tries to lift
 *    restrictions and the CVM halts" behaviour (§5.1, §8.3).
 *  - VMSA pages are created via RMPADJUST with the VMSA attribute
 *    (VMPL-0 only) and become inaccessible to VMPL-1..3.
 *  - 2 MiB RMP entries (DESIGN.md §14): a 512-page-aligned region may
 *    be assigned/validated/adjusted as one huge entry. Representation:
 *    the 512 per-page entries are kept byte-for-byte coherent with the
 *    huge entry's state, plus a per-region "huge" flag — so the access
 *    check (allowed()) is granularity-oblivious, and PSMASH-style
 *    demotion is a flag flip, never a state rewrite. Any 4 KiB mutation (PVALIDATE, RMPADJUST, RMPUPDATE,
 *    page-state change) landing inside a huge region smashes it first,
 *    exactly like hardware faults a mismatched-size access into a
 *    split.
 */
#ifndef VEIL_SNP_RMP_HH_
#define VEIL_SNP_RMP_HH_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "snp/types.hh"

namespace veil::snp {

/** Per-page RMP state. */
struct RmpEntry
{
    bool assigned = false;  ///< RMPUPDATE'd to this guest by the hypervisor
    bool validated = false; ///< guest executed PVALIDATE
    bool vmsaPage = false;  ///< holds a VMSA (created via RMPADJUST.VMSA)
    bool shared = false;    ///< hypervisor-shared (unencrypted) page
    /// The guest's view of the page as private (the C-bit in its page
    /// tables): set/cleared only by guest PVALIDATE, never by
    /// hypervisor-side RMPUPDATE. A page the hypervisor flips to shared
    /// while the guest still expects it private faults on the next
    /// guest access — the architectural C-bit/RMP mismatch #NPF that
    /// stops a hostile flip from going unnoticed.
    bool guestPrivate = false;
    PermMask perms[kNumVmpls] = {kPermNone, kPermNone, kPermNone, kPermNone};
};

/** The RMP for one guest. Indexed by page number. */
class RmpTable
{
  public:
    explicit RmpTable(uint64_t page_count);

    uint64_t pageCount() const { return entries_.size(); }

    /**
     * Multicore mode (DESIGN.md §12): guard the table with sharded
     * per-range reader/writer locks — readers (allowed(), isShared(),
     * introspection) take the page's shard shared, mutators exclusive.
     * Off (default), every acquisition is a no-op and the table is
     * byte-for-byte the single-threaded one. Shard = contiguous
     * page-index range; kShards ranges cover the guest.
     */
    void setMulticore(bool on) { mt_ = on; }
    bool multicore() const { return mt_; }

    /** Hypervisor-side RMPUPDATE: assign a page to the guest. */
    void hvAssign(Gpa page);

    /** Hypervisor-side RMPUPDATE: reclaim a page (guest loses it). */
    void hvReclaim(Gpa page);

    /**
     * Hypervisor-side page-state change to shared/private. The guest
     * must have PVALIDATE'd the transition first (delegated to VeilMon,
     * §5.3); this call just flips the hypervisor-visible state. Shared
     * pages are readable and writable by every VMPL and by the
     * hypervisor, and are never executable.
     */
    void hvSetShared(Gpa page, bool shared);

    bool isShared(Gpa page) const;

    /**
     * Guest PVALIDATE. Only legal from VMPL-0; other VMPLs raise
     * NpfFault ("architecturally restricted", §5.3). Grants VMPL-0 full
     * permissions and clears lower-VMPL permissions.
     */
    void pvalidate(Vmpl caller, Gpa page, bool validate);

    /**
     * Guest RMPADJUST: @p caller sets @p perms for @p target on @p page.
     * Requires target numerically greater than caller, a validated page,
     * and read access for the caller (the instruction touches the page).
     * With @p make_vmsa the page becomes a VMSA page (VMPL-0 only).
     */
    void rmpadjust(Vmpl caller, Gpa page, Vmpl target, PermMask perms,
                   bool make_vmsa = false);

    /** Permission check used on every guest access. */
    bool allowed(Vmpl vmpl, Gpa page, Access access, Cpl cpl) const;

    /** Raw permissions for tests and introspection. */
    PermMask perms(Gpa page, Vmpl vmpl) const;
    bool isValidated(Gpa page) const;
    bool isAssigned(Gpa page) const;
    bool isVmsaPage(Gpa page) const;

    /** Clear the VMSA attribute (when a VMSA is destroyed). */
    void clearVmsa(Vmpl caller, Gpa page);

    // ---- 2 MiB entries (DESIGN.md §14) ----

    /** Hypervisor RMPUPDATE of one 2 MiB-aligned region as a huge
     *  entry (lazy-acceptance batches). */
    void hvAssign2m(Gpa base);

    /**
     * Guest PVALIDATE with the 2 MiB size bit. Requires a 2 MiB-aligned
     * region whose 512 pages are uniformly assigned, unshared, and not
     * VMSA pages; promotes the region to a huge entry if it is not one
     * already. VMPL-0 only, like the 4 KiB form.
     */
    void pvalidate2m(Vmpl caller, Gpa base, bool validate);

    /** Guest RMPADJUST against a huge entry (whole region). */
    void rmpadjust2m(Vmpl caller, Gpa base, Vmpl target, PermMask perms);

    /** Whether @p gpa lies inside a live 2 MiB RMP entry. */
    bool isHuge(Gpa gpa) const;

    /** PSMASH: explicitly demote the huge entry covering @p gpa (no-op
     *  when the region is not huge). The per-page entries already carry
     *  the region's state, so only the flag changes. */
    void smash(Gpa gpa);

    /** Huge entries demoted to 512 4 KiB entries (PSMASH + implicit
     *  4 KiB-mutation splits) over the table's lifetime. */
    uint64_t splits() const
    {
        return splits_.load(std::memory_order_relaxed);
    }
    /** Regions promoted to huge entries over the table's lifetime. */
    uint64_t promotes() const
    {
        return promotes_.load(std::memory_order_relaxed);
    }

    /** Number of lock shards (contiguous page-index ranges). */
    static constexpr size_t kShards = 64;

  private:
    RmpEntry &entryFor(Gpa page);
    const RmpEntry &entryFor(Gpa page) const;
    /** Demote the huge entry covering @p page under its (held) shard
     *  lock, if there is one. */
    void smashLocked(Gpa page);
    /** Validate a 2 MiB operand: alignment + in-bounds. */
    void check2mOperand(Gpa base, const char *what) const;

    /** The shard lock covering @p page's index range. */
    std::shared_mutex &shardFor(Gpa page) const
    {
        return shards_[(pageIndex(pageAlignDown(page))) >> shardShift_];
    }
    /** Shared (reader) hold when multicore; empty otherwise. */
    std::shared_lock<std::shared_mutex> readLock(Gpa page) const
    {
        if (!mt_) [[likely]]
            return {};
        return std::shared_lock<std::shared_mutex>(shardFor(page));
    }
    /** Exclusive (writer) hold when multicore; empty otherwise. */
    std::unique_lock<std::shared_mutex> writeLock(Gpa page)
    {
        if (!mt_) [[likely]]
            return {};
        return std::unique_lock<std::shared_mutex>(shardFor(page));
    }

    std::vector<RmpEntry> entries_;
    /// One flag per 2 MiB region: non-zero while the region is a live
    /// huge entry. Mutated under the region's shard lock; read via
    /// atomic_ref so the lock-free isHuge() probe never tears.
    std::vector<uint8_t> huge_;
    bool mt_ = false;
    uint32_t shardShift_ = 0;
    std::atomic<uint64_t> splits_{0};
    std::atomic<uint64_t> promotes_{0};
    mutable std::array<std::shared_mutex, kShards> shards_;
};

} // namespace veil::snp

#endif // VEIL_SNP_RMP_HH_
