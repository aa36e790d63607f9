/**
 * @file
 * Kernel memory management: a physical frame allocator over the
 * Dom-UNT region and per-process address spaces (4-level page tables
 * with a supervisor identity mapping of all physical memory plus
 * user mappings, Linux-style).
 */
#ifndef VEIL_KERNEL_MM_HH_
#define VEIL_KERNEL_MM_HH_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "base/spinlock.hh"
#include "snp/paging.hh"
#include "snp/vcpu.hh"

namespace veil::kern {

/**
 * Free-list physical frame allocator.
 *
 * Single-threaded by default: one LIFO free list plus a bump pointer,
 * bit-identical to the pre-multicore allocator. setMulticore(true)
 * shards the free list into per-thread stripes (selected by a hash of
 * the calling thread's id) with per-stripe spinlocks; the bump pointer
 * moves behind its own lock and exhausted stripes steal from others in
 * index order. Allocation *order* is then scheduling-dependent, but
 * every frame is still handed out exactly once (veil_mt_test asserts
 * disjointness under TSan).
 */
class FrameAllocator
{
  public:
    FrameAllocator(snp::Gpa lo, snp::Gpa hi);

    /** Toggle sharded locking. Call only while no other thread is
     *  using the allocator. */
    void setMulticore(bool on);

    /**
     * Recoverable allocation: std::nullopt when every free list, the
     * bump region, and (MT) every steal target are empty. Does NOT run
     * the reclaim hook — callers that can shed memory themselves (the
     * fleet evictor) use this to probe for pressure without recursing.
     */
    std::optional<snp::Gpa> tryAlloc();

    /**
     * Allocate one frame. On exhaustion, runs the reclaim hook (if
     * installed) and retries; if the hook cannot free anything the
     * allocator raises an attributed CvmHaltFault ("out of physical
     * frames") instead of asserting, so fleet workloads terminate as a
     * diagnosable halt rather than a process abort.
     */
    snp::Gpa alloc();
    void free(snp::Gpa frame);
    snp::Gpa allocRange(size_t pages); ///< contiguous range

    /**
     * Contiguous range whose base is aligned to @p align_pages frames
     * (512 for a 2 MiB huge-page backing). Comes from the bump region;
     * alignment-gap frames are returned to the free lists, not leaked.
     * std::nullopt on exhaustion — callers fall back to 4 KiB frames.
     */
    std::optional<snp::Gpa> tryAllocRange(size_t pages,
                                          size_t align_pages = 1);

    size_t freeFrames() const;
    snp::Gpa lo() const { return lo_; }
    snp::Gpa hi() const { return hi_; }

    /**
     * Memory-pressure relief valve: called (outside all allocator
     * locks) when alloc() finds no free frame. Return true if at least
     * one frame may have been freed and the allocation should be
     * retried. The hook must not call alloc()/allocRange() reentrantly
     * from the same thread.
     */
    void setReclaimHook(std::function<bool()> hook)
    {
        reclaim_ = std::move(hook);
    }

    /** Frames currently handed out (allocs minus frees). */
    uint64_t inUse() const
    {
        return inUse_.load(std::memory_order_relaxed);
    }
    /** Peak of inUse() over the allocator's lifetime. */
    uint64_t highWater() const
    {
        return highWater_.load(std::memory_order_relaxed);
    }
    /** Total frames the allocator arbitrates. */
    uint64_t totalFrames() const { return (hi_ - lo_) / snp::kPageSize; }

    /** Cross-stripe steals performed (multicore observability; the
     *  steal scan resumes at a per-thread cursor, not index 0). */
    uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    static constexpr size_t kStripes = 16;

  private:
    size_t stripeFor() const;
    snp::Gpa bumpAlloc(size_t pages);
    std::optional<snp::Gpa> tryAllocNoCount();
    void countAlloc(size_t pages);

    snp::Gpa lo_, hi_, next_;
    std::vector<snp::Gpa> freeList_;
    bool mt_ = false;
    std::function<bool()> reclaim_;
    std::atomic<uint64_t> inUse_{0};
    std::atomic<uint64_t> highWater_{0};
    std::atomic<uint64_t> steals_{0};
    mutable base::Spinlock bumpMu_;
    mutable std::array<base::Spinlock, kStripes> stripeMu_;
    std::array<std::vector<snp::Gpa>, kStripes> stripeFree_;
};

/** One user mapping record (for munmap/mprotect bookkeeping). */
struct VmArea
{
    snp::Gva lo = 0;
    snp::Gva hi = 0;
    int prot = 0;
    bool enclave = false; ///< inside an enclave region (frames pinned)
};

/**
 * A process address space: cr3 + page-table tree + VMA list. The
 * supervisor identity map covers all physical memory so the kernel can
 * run on any process cr3 (RMP still arbitrates actual access).
 */
class AddressSpace
{
  public:
    /**
     * @p kernel_map_hi / @p kernel_map_lo bound the supervisor identity
     * map: the defaults (0, first page) cover all physical memory,
     * matching the classic layout; fleet session processes pass the
     * kernel-image window instead, so a thousand address spaces don't
     * each burn ~the whole page-table budget mapping memory the session
     * never touches from CPL0.
     */
    AddressSpace(snp::Machine &machine, FrameAllocator &frames,
                 snp::Gpa kernel_map_hi = 0, snp::Gpa kernel_map_lo = 0);
    ~AddressSpace();

    /** RMP-check every page-table page edited from now on, as @p vmpl. */
    void guardTables(snp::Vmpl vmpl) { editor_.guard(machine_.rmp(), vmpl); }

    snp::Gpa cr3() const { return cr3_; }

    /** Map one user page (data page owned by this AS unless noted). */
    void mapUser(snp::Gva va, snp::Gpa pa, int prot);
    /** Unmap one user page; returns backing frame if present. */
    std::optional<snp::Gpa> unmapUser(snp::Gva va);
    /** Change one user page's permissions; an unmapped @p va is left
     *  unmapped. */
    void protectUser(snp::Gva va, int prot);
    std::optional<uint64_t> userLeaf(snp::Gva va) const;

    // VMA registry
    VmArea *findVma(snp::Gva va);
    void addVma(const VmArea &vma);
    void removeVma(snp::Gva lo);
    const std::map<snp::Gva, VmArea> &vmas() const { return vmas_; }

    /**
     * Next free user VA range of @p pages: bump from a cursor, then
     * wrap once to the mmap base and reuse the first hole that fits
     * (next fit). Panics only when no hole fits.
     */
    snp::Gva allocUserRange(size_t pages);

  private:
    void buildKernelIdentity(snp::Gpa lo, snp::Gpa hi);

    snp::Machine &machine_;
    FrameAllocator &frames_;
    snp::PageTableEditor editor_;
    snp::Gpa cr3_ = 0;
    std::vector<snp::Gpa> tableFrames_;
    std::map<snp::Gva, VmArea> vmas_;
    snp::Gva mmapCursor_;
};

} // namespace veil::kern

#endif // VEIL_KERNEL_MM_HH_
