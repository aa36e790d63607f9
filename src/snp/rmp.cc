#include "snp/rmp.hh"

#include "base/log.hh"
#include "snp/fault.hh"

namespace veil::snp {

RmpTable::RmpTable(uint64_t page_count)
{
    entries_.resize(page_count);
    huge_.resize((page_count + kPagesPer2m - 1) / kPagesPer2m, 0);
    // Contiguous-range sharding: smallest shift so every page index
    // maps below kShards. The entries_ vector itself is never resized
    // after this, so only per-entry state needs locking.
    shardShift_ = 0;
    while (page_count > 0 && ((page_count - 1) >> shardShift_) >= kShards)
        ++shardShift_;
    // Lock-order guarantee for the large-page path (DESIGN.md §14): a
    // shard must cover whole 2 MiB regions, so a huge-entry mutation or
    // smash/split is a single exclusive shard acquisition — never a
    // multi-shard (deadlock-prone) hold.
    constexpr uint32_t kRegionShift = 9; // log2(kPagesPer2m)
    if (shardShift_ < kRegionShift)
        shardShift_ = kRegionShift;
}

RmpEntry &
RmpTable::entryFor(Gpa page)
{
    ensure(isPageAligned(page), "RMP: unaligned page address");
    uint64_t idx = pageIndex(page);
    if (idx >= entries_.size())
        panic(strfmt("RMP: page 0x%llx beyond guest memory",
                     (unsigned long long)page));
    return entries_[idx];
}

const RmpEntry &
RmpTable::entryFor(Gpa page) const
{
    return const_cast<RmpTable *>(this)->entryFor(page);
}

void
RmpTable::smashLocked(Gpa page)
{
    // Caller holds the exclusive shard lock covering @p page; since a
    // shard spans whole 2 MiB regions (constructor invariant), that
    // same lock covers every page of the region — a plain store to the
    // flag is race-free, and the per-page entries already carry the
    // region's state, so demotion is just the flag.
    uint64_t region = regionIndex2m(page);
    if (region >= huge_.size() || !huge_[region])
        return;
    std::atomic_ref<uint8_t>(huge_[region])
        .store(0, std::memory_order_release);
    splits_.fetch_add(1, std::memory_order_relaxed);
}

void
RmpTable::check2mOperand(Gpa base, const char *what) const
{
    if (!isPageAligned2m(base))
        panic(strfmt("%s: operand 0x%llx not 2 MiB aligned", what,
                     (unsigned long long)base));
    if (pageIndex(base) + kPagesPer2m > entries_.size())
        panic(strfmt("%s: region 0x%llx beyond guest memory", what,
                     (unsigned long long)base));
}

void
RmpTable::hvAssign(Gpa page)
{
    auto lock = writeLock(page);
    smashLocked(page);
    RmpEntry &e = entryFor(page);
    e.assigned = true;
    e.validated = false;
    e.vmsaPage = false;
    for (auto &p : e.perms)
        p = kPermNone;
}

void
RmpTable::hvReclaim(Gpa page)
{
    auto lock = writeLock(page);
    smashLocked(page);
    RmpEntry &e = entryFor(page);
    e = RmpEntry{};
}

void
RmpTable::hvSetShared(Gpa page, bool shared)
{
    auto lock = writeLock(page);
    // A 4 KiB RMPUPDATE against a huge entry demotes it first
    // (hardware: mismatched-size update splits the 2 MiB entry).
    smashLocked(page);
    RmpEntry &e = entryFor(page);
    ensure(!e.vmsaPage, "hvSetShared: VMSA pages cannot be shared");
    // RMPUPDATE semantics: flipping a page to shared destroys its
    // validated state, but cannot touch guestPrivate (the guest's
    // own C-bit view). A well-behaved flow un-validates first via
    // VeilMon; a hostile flip leaves guestPrivate set, so the
    // guest's next access faults instead of silently using
    // host-visible memory.
    if (shared && !e.shared)
        e.validated = false;
    e.shared = shared;
}

bool
RmpTable::isShared(Gpa page) const
{
    auto lock = readLock(page);
    return entryFor(pageAlignDown(page)).shared;
}

void
RmpTable::pvalidate(Vmpl caller, Gpa page, bool validate)
{
    if (caller != Vmpl::Vmpl0) {
        throw NpfFault(page, caller, Access::Write,
                       "PVALIDATE is restricted to VMPL-0");
    }
    auto lock = writeLock(page);
    // 4 KiB PVALIDATE against a 2 MiB entry: hardware returns
    // FAIL_SIZEMISMATCH and guests PSMASH first; we model the
    // combined effect as an implicit split.
    smashLocked(page);
    RmpEntry &e = entryFor(page);
    if (!e.assigned) {
        throw NpfFault(page, caller, Access::Write,
                       "PVALIDATE on unassigned page");
    }
    e.validated = validate;
    e.guestPrivate = validate; // the guest's C-bit expectation
    e.vmsaPage = false;
    e.perms[0] = validate ? kPermAll : kPermNone;
    for (int i = 1; i < kNumVmpls; ++i)
        e.perms[i] = kPermNone;
}

void
RmpTable::rmpadjust(Vmpl caller, Gpa page, Vmpl target, PermMask perms,
                    bool make_vmsa)
{
    auto lock = writeLock(page);
    // 4 KiB RMPADJUST against a 2 MiB entry splits it (hardware
    // FAIL_SIZEMISMATCH + guest PSMASH, modelled as one step).
    smashLocked(page);
    RmpEntry &e = entryFor(page);
    if (vmplIndex(target) <= vmplIndex(caller)) {
        throw NpfFault(
            page, caller, Access::Write,
            "RMPADJUST target must be less privileged than caller");
    }
    if (!e.validated) {
        throw NpfFault(page, caller, Access::Write,
                       "RMPADJUST on non-validated page");
    }
    // The instruction references the page; a caller without read
    // access takes a nested page fault (the attack path in
    // §8.1/§8.3).
    if (!(e.perms[vmplIndex(caller)] & PermRead)) {
        throw NpfFault(page, caller, Access::Read,
                       "RMPADJUST on page restricted for the caller");
    }
    if (make_vmsa) {
        if (caller != Vmpl::Vmpl0) {
            throw NpfFault(page, caller, Access::Write,
                           "RMPADJUST.VMSA is restricted to VMPL-0");
        }
        e.vmsaPage = true;
        // In-use VMSA pages are inaccessible to all lower VMPLs.
        for (int i = 1; i < kNumVmpls; ++i)
            e.perms[i] = kPermNone;
    } else {
        e.perms[vmplIndex(target)] = perms;
    }
}

void
RmpTable::clearVmsa(Vmpl caller, Gpa page)
{
    if (caller != Vmpl::Vmpl0) {
        throw NpfFault(page, caller, Access::Write,
                       "VMSA teardown is restricted to VMPL-0");
    }
    auto lock = writeLock(page);
    smashLocked(page);
    RmpEntry &e = entryFor(page);
    e.vmsaPage = false;
}

bool
RmpTable::allowed(Vmpl vmpl, Gpa page, Access access, Cpl cpl) const
{
    auto lock = readLock(page);
    const RmpEntry &e = entryFor(pageAlignDown(page));
    if (e.shared) {
        // A legitimate page-state change un-validates first (PVALIDATE
        // at VMPL-0, §5.3), clearing guestPrivate. If the guest still
        // expects the page private, the hypervisor flipped it out from
        // under it: the C-bit/RMP mismatch faults every access.
        if (e.guestPrivate)
            return false;
        return access != Access::Execute;
    }
    if (!e.validated)
        return false;
    if (e.vmsaPage && vmpl != Vmpl::Vmpl0)
        return false;
    PermMask have = e.perms[vmplIndex(vmpl)];
    switch (access) {
      case Access::Read:
        return have & PermRead;
      case Access::Write:
        return have & PermWrite;
      case Access::Execute:
        return cpl == Cpl::User ? (have & PermUserExec)
                                : (have & PermSupervisorExec);
    }
    return false;
}

PermMask
RmpTable::perms(Gpa page, Vmpl vmpl) const
{
    auto lock = readLock(page);
    return entryFor(page).perms[vmplIndex(vmpl)];
}

bool
RmpTable::isValidated(Gpa page) const
{
    auto lock = readLock(page);
    return entryFor(page).validated;
}

bool
RmpTable::isAssigned(Gpa page) const
{
    auto lock = readLock(page);
    return entryFor(page).assigned;
}

bool
RmpTable::isVmsaPage(Gpa page) const
{
    auto lock = readLock(page);
    return entryFor(page).vmsaPage;
}

// ---- 2 MiB entries (DESIGN.md §14) ----
//
// Thanks to the constructor's shard/region alignment invariant, one
// writeLock(base) covers the whole region, so huge-entry mutations use
// the exact locking discipline of the 4 KiB ops — no multi-shard holds.

void
RmpTable::hvAssign2m(Gpa base)
{
    check2mOperand(base, "hvAssign2m");
    auto lock = writeLock(base);
    for (size_t i = 0; i < kPagesPer2m; ++i) {
        RmpEntry &e = entries_[pageIndex(base) + i];
        ensure(!e.vmsaPage, "hvAssign2m: region contains a VMSA page");
        ensure(!e.shared, "hvAssign2m: region contains a shared page");
        e.assigned = true;
        e.validated = false;
        e.vmsaPage = false;
        for (auto &p : e.perms)
            p = kPermNone;
    }
    uint64_t region = regionIndex2m(base);
    if (!huge_[region]) {
        std::atomic_ref<uint8_t>(huge_[region])
            .store(1, std::memory_order_release);
        promotes_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
RmpTable::pvalidate2m(Vmpl caller, Gpa base, bool validate)
{
    check2mOperand(base, "pvalidate2m");
    if (caller != Vmpl::Vmpl0) {
        throw NpfFault(base, caller, Access::Write,
                       "PVALIDATE is restricted to VMPL-0");
    }
    auto lock = writeLock(base);
    // The 2 MiB form requires a uniform region: every covered page
    // assigned, unshared, and not a VMSA page (hardware would
    // return FAIL_SIZEMISMATCH / FAIL_INPUT otherwise).
    for (size_t i = 0; i < kPagesPer2m; ++i) {
        const RmpEntry &e = entries_[pageIndex(base) + i];
        if (!e.assigned || e.shared || e.vmsaPage) {
            throw NpfFault(base + i * kPageSize, caller, Access::Write,
                           "PVALIDATE-2M on non-uniform region");
        }
    }
    for (size_t i = 0; i < kPagesPer2m; ++i) {
        RmpEntry &e = entries_[pageIndex(base) + i];
        e.validated = validate;
        e.guestPrivate = validate;
        e.perms[0] = validate ? kPermAll : kPermNone;
        for (int v = 1; v < kNumVmpls; ++v)
            e.perms[v] = kPermNone;
    }
    uint64_t region = regionIndex2m(base);
    if (!huge_[region]) {
        std::atomic_ref<uint8_t>(huge_[region])
            .store(1, std::memory_order_release);
        promotes_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
RmpTable::rmpadjust2m(Vmpl caller, Gpa base, Vmpl target, PermMask perms)
{
    check2mOperand(base, "rmpadjust2m");
    auto lock = writeLock(base);
    // The size bit must match the live RMP entry: RMPADJUST-2M on a
    // smashed (or never-promoted) region is FAIL_SIZEMISMATCH.
    uint64_t region = regionIndex2m(base);
    if (!huge_[region]) {
        throw NpfFault(base, caller, Access::Write,
                       "RMPADJUST-2M size mismatch: region not huge");
    }
    if (vmplIndex(target) <= vmplIndex(caller)) {
        throw NpfFault(
            base, caller, Access::Write,
            "RMPADJUST target must be less privileged than caller");
    }
    const RmpEntry &first = entries_[pageIndex(base)];
    if (!first.validated) {
        throw NpfFault(base, caller, Access::Write,
                       "RMPADJUST on non-validated page");
    }
    if (!(first.perms[vmplIndex(caller)] & PermRead)) {
        throw NpfFault(base, caller, Access::Read,
                       "RMPADJUST on page restricted for the caller");
    }
    for (size_t i = 0; i < kPagesPer2m; ++i)
        entries_[pageIndex(base) + i].perms[vmplIndex(target)] = perms;
}

bool
RmpTable::isHuge(Gpa gpa) const
{
    uint64_t region = regionIndex2m(gpa);
    if (region >= huge_.size())
        return false;
    // Lock-free probe: the flag is a single byte mutated under the
    // shard lock; atomic_ref gives a tear-free read without taking it.
    return std::atomic_ref<const uint8_t>(huge_[region])
               .load(std::memory_order_acquire) != 0;
}

void
RmpTable::smash(Gpa gpa)
{
    Gpa base = pageAlignDown2m(gpa);
    if (regionIndex2m(base) >= huge_.size())
        return;
    auto lock = writeLock(base);
    smashLocked(base);
}

} // namespace veil::snp
