#include "kernel/mm.hh"

#include <functional>
#include <mutex>
#include <thread>

#include "base/log.hh"
#include "kernel/uapi.hh"
#include "snp/fault.hh"
#include "veil/services/enc.hh" // kUserVaLo/Hi

namespace veil::kern {

using namespace snp;

namespace {
/// Anonymous-mmap allocation cursor start (clear of the SDK's fixed
/// enclave window at 0x2000000).
constexpr Gva kUserMmapBase = 0x4000000;

/// Where the calling thread's last successful cross-stripe steal came
/// from. Resuming the scan there instead of at index 0 keeps sustained
/// pressure from rescanning the same drained low-index stripes on
/// every steal (O(stripes) per allocation).
thread_local size_t t_stealCursor = 0;
} // namespace

FrameAllocator::FrameAllocator(Gpa lo, Gpa hi) : lo_(lo), hi_(hi), next_(lo)
{
    ensure(isPageAligned(lo) && isPageAligned(hi) && lo < hi,
           "FrameAllocator: bad range");
}

void
FrameAllocator::setMulticore(bool on)
{
    if (on == mt_)
        return;
    mt_ = on;
    if (on) {
        // Seed stripe 0 with whatever the single-threaded free list
        // accumulated; stripes fill organically from frees after that.
        stripeFree_[0].insert(stripeFree_[0].end(), freeList_.begin(),
                              freeList_.end());
        freeList_.clear();
    } else {
        for (auto &stripe : stripeFree_) {
            freeList_.insert(freeList_.end(), stripe.begin(), stripe.end());
            stripe.clear();
        }
    }
}

size_t
FrameAllocator::stripeFor() const
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           kStripes;
}

Gpa
FrameAllocator::bumpAlloc(size_t pages)
{
    std::lock_guard<base::Spinlock> guard(bumpMu_);
    if (next_ + pages * kPageSize > hi_)
        return kPageSize - 1; // unaligned sentinel: bump region empty
    Gpa f = next_;
    next_ += pages * kPageSize;
    return f;
}

void
FrameAllocator::countAlloc(size_t pages)
{
    uint64_t now =
        inUse_.fetch_add(pages, std::memory_order_relaxed) + pages;
    // Racy max-assign is fine: counters are statistics, not sync.
    uint64_t peak = highWater_.load(std::memory_order_relaxed);
    while (now > peak &&
           !highWater_.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
    }
}

std::optional<Gpa>
FrameAllocator::tryAllocNoCount()
{
    if (!mt_) {
        if (!freeList_.empty()) {
            Gpa f = freeList_.back();
            freeList_.pop_back();
            return f;
        }
        if (next_ >= hi_)
            return std::nullopt;
        Gpa f = next_;
        next_ += kPageSize;
        return f;
    }
    // Multicore: own stripe first, then the bump region, then steal
    // from other stripes in index order (lock order: one stripe lock
    // at a time, never nested).
    size_t home = stripeFor();
    {
        std::lock_guard<base::Spinlock> guard(stripeMu_[home]);
        if (!stripeFree_[home].empty()) {
            Gpa f = stripeFree_[home].back();
            stripeFree_[home].pop_back();
            return f;
        }
    }
    Gpa f = bumpAlloc(1);
    if (isPageAligned(f))
        return f;
    for (size_t n = 0; n < kStripes; ++n) {
        size_t i = (t_stealCursor + n) % kStripes;
        if (i == home)
            continue;
        std::lock_guard<base::Spinlock> guard(stripeMu_[i]);
        if (!stripeFree_[i].empty()) {
            Gpa stolen = stripeFree_[i].back();
            stripeFree_[i].pop_back();
            t_stealCursor = i;
            steals_.fetch_add(1, std::memory_order_relaxed);
            return stolen;
        }
    }
    return std::nullopt;
}

std::optional<Gpa>
FrameAllocator::tryAlloc()
{
    std::optional<Gpa> f = tryAllocNoCount();
    if (f)
        countAlloc(1);
    return f;
}

Gpa
FrameAllocator::alloc()
{
    std::optional<Gpa> f = tryAllocNoCount();
    if (!f && reclaim_ && reclaim_())
        f = tryAllocNoCount();
    if (!f)
        throw CvmHaltFault("FrameAllocator: out of physical frames "
                           "(in use " +
                           std::to_string(inUse()) + "/" +
                           std::to_string(totalFrames()) + ")");
    countAlloc(1);
    return *f;
}

Gpa
FrameAllocator::allocRange(size_t pages)
{
    if (!mt_) {
        // Contiguous ranges come from the bump region only.
        if (next_ + pages * kPageSize > hi_)
            throw CvmHaltFault("FrameAllocator: out of contiguous frames");
        Gpa f = next_;
        next_ += pages * kPageSize;
        countAlloc(pages);
        return f;
    }
    Gpa f = bumpAlloc(pages);
    if (!isPageAligned(f))
        throw CvmHaltFault("FrameAllocator: out of contiguous frames");
    countAlloc(pages);
    return f;
}

std::optional<Gpa>
FrameAllocator::tryAllocRange(size_t pages, size_t align_pages)
{
    if (align_pages < 1)
        align_pages = 1;
    const Gpa align = Gpa(align_pages) * kPageSize;
    if (!mt_) {
        Gpa base = (next_ + align - 1) / align * align;
        if (base + Gpa(pages) * kPageSize > hi_)
            return std::nullopt;
        for (Gpa p = next_; p < base; p += kPageSize)
            freeList_.push_back(p);
        next_ = base + Gpa(pages) * kPageSize;
        countAlloc(pages);
        return base;
    }
    // MT: carve the aligned range under the bump lock, then return the
    // alignment gap to this thread's home stripe (lock order: bumpMu_
    // released before any stripe lock is taken, one stripe at a time).
    std::vector<Gpa> gap;
    Gpa base;
    {
        std::lock_guard<base::Spinlock> guard(bumpMu_);
        base = (next_ + align - 1) / align * align;
        if (base + Gpa(pages) * kPageSize > hi_)
            return std::nullopt;
        for (Gpa p = next_; p < base; p += kPageSize)
            gap.push_back(p);
        next_ = base + Gpa(pages) * kPageSize;
    }
    if (!gap.empty()) {
        size_t home = stripeFor();
        std::lock_guard<base::Spinlock> guard(stripeMu_[home]);
        stripeFree_[home].insert(stripeFree_[home].end(), gap.begin(),
                                 gap.end());
    }
    countAlloc(pages);
    return base;
}

void
FrameAllocator::free(Gpa frame)
{
    ensure(frame >= lo_ && frame < hi_, "FrameAllocator: foreign frame");
    inUse_.fetch_sub(1, std::memory_order_relaxed);
    if (!mt_) {
        freeList_.push_back(frame);
        return;
    }
    size_t home = stripeFor();
    std::lock_guard<base::Spinlock> guard(stripeMu_[home]);
    stripeFree_[home].push_back(frame);
}

size_t
FrameAllocator::freeFrames() const
{
    if (!mt_)
        return freeList_.size() + (hi_ - next_) / kPageSize;
    size_t n = 0;
    for (size_t i = 0; i < kStripes; ++i) {
        std::lock_guard<base::Spinlock> guard(stripeMu_[i]);
        n += stripeFree_[i].size();
    }
    std::lock_guard<base::Spinlock> guard(bumpMu_);
    return n + (hi_ - next_) / kPageSize;
}

AddressSpace::AddressSpace(Machine &machine, FrameAllocator &frames,
                           Gpa kernel_map_hi, Gpa kernel_map_lo)
    : machine_(machine),
      frames_(frames),
      editor_(
          machine.memory(), [this] { return frames_.alloc(); },
          [this](Gpa p) { frames_.free(p); }),
      mmapCursor_(kUserMmapBase)
{
    cr3_ = editor_.createRoot();
    buildKernelIdentity(kernel_map_lo ? kernel_map_lo : kPageSize,
                        kernel_map_hi ? kernel_map_hi
                                      : machine_.memory().size());
}

AddressSpace::~AddressSpace()
{
    editor_.destroyRoot(cr3_);
}

void
AddressSpace::buildKernelIdentity(Gpa lo, Gpa hi)
{
    // Supervisor identity mapping of physical memory up to @p hi,
    // executable: the kernel relies on VeilS-KCI's RMP W^X, not on NX
    // (§6.1 — the attacker may flip NX bits anyway).
    PageFlags f;
    f.user = false;
    f.write = true;
    f.exec = true;
    const bool huge = machine_.hugePagesEnabled();
    Gpa p = lo;
    while (p < hi) {
        // 2 MiB leaves wherever the identity map allows: GVA==GPA, so a
        // 2 MiB-aligned slot is eligible iff the whole region fits. RMP
        // is still checked per-4 KiB at access time, so mixed-state
        // regions under a huge leaf stay correctly arbitrated.
        if (huge && isPageAligned2m(p) && p + kPageSize2m <= hi) {
            editor_.map2m(cr3_, p, p, f);
            p += kPageSize2m;
        } else {
            editor_.map(cr3_, p, p, f);
            p += kPageSize;
        }
    }
}

void
AddressSpace::mapUser(Gva va, Gpa pa, int prot)
{
    PageFlags f;
    f.user = true;
    f.write = prot & kPROT_WRITE;
    f.exec = prot & kPROT_EXEC;
    editor_.map(cr3_, va, pa, f);
}

std::optional<Gpa>
AddressSpace::unmapUser(Gva va)
{
    return editor_.unmap(cr3_, va);
}

void
AddressSpace::protectUser(Gva va, int prot)
{
    PageFlags f;
    f.user = true;
    f.write = prot & kPROT_WRITE;
    f.exec = prot & kPROT_EXEC;
    editor_.protect(cr3_, va, f);
}

std::optional<uint64_t>
AddressSpace::userLeaf(Gva va) const
{
    return editor_.leaf(cr3_, va);
}

VmArea *
AddressSpace::findVma(Gva va)
{
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    if (va >= it->second.lo && va < it->second.hi)
        return &it->second;
    return nullptr;
}

void
AddressSpace::addVma(const VmArea &vma)
{
    vmas_[vma.lo] = vma;
}

void
AddressSpace::removeVma(Gva lo)
{
    vmas_.erase(lo);
}

Gva
AddressSpace::allocUserRange(size_t pages)
{
    // Next fit. Bump from the cursor, skipping past any VMA the
    // candidate overlaps: MAP_FIXED mappings (a fleet clone pins its
    // ocall block at the template's VA) may sit anywhere in the cursor
    // range. A range that no longer fits below kUserVaHi wraps to the
    // mmap base and takes the first hole munmap left between VMAs.
    const size_t len = pages * kPageSize;
    auto fitFrom = [&](Gva va) -> std::optional<Gva> {
        for (const auto &[lo, vma] : vmas_) {
            if (vma.hi <= va)
                continue;
            if (vma.lo >= va + len)
                break;
            va = vma.hi;
        }
        if (va + len > core::kUserVaHi)
            return std::nullopt;
        return va;
    };
    std::optional<Gva> va = fitFrom(mmapCursor_);
    if (!va)
        va = fitFrom(kUserMmapBase);
    if (!va)
        panic("AddressSpace: user VA space exhausted");
    mmapCursor_ = *va + len;
    return *va;
}

} // namespace veil::kern
