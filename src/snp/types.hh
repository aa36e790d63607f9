/**
 * @file
 * Core architectural types for the SEV-SNP simulator: guest addresses,
 * VMPLs, CPLs, page permissions, and page-size constants.
 */
#ifndef VEIL_SNP_TYPES_HH_
#define VEIL_SNP_TYPES_HH_

#include <cstddef>
#include <cstdint>
#include <string>

namespace veil::snp {

/** Guest-physical address. */
using Gpa = uint64_t;

/** Guest-virtual address. */
using Gva = uint64_t;

/** Index of a VMSA slot within a Machine. */
using VmsaId = uint32_t;

constexpr VmsaId kInvalidVmsa = ~VmsaId(0);

/** Page geometry. The base page is 4 KiB like the paper's prototype;
 *  the 2 MiB large-page fast path (RMP huge entries + PS-bit leaves,
 *  DESIGN.md §14) is opt-in via MachineConfig::hugePages. */
constexpr size_t kPageShift = 12;
constexpr size_t kPageSize = size_t(1) << kPageShift;
constexpr size_t kPageShift2m = 21;
constexpr size_t kPageSize2m = size_t(1) << kPageShift2m;
/** 4 KiB pages per 2 MiB region. */
constexpr size_t kPagesPer2m = kPageSize2m / kPageSize;

constexpr Gpa
pageAlignDown(Gpa a)
{
    return a & ~Gpa(kPageSize - 1);
}

constexpr Gpa
pageAlignUp(Gpa a)
{
    return (a + kPageSize - 1) & ~Gpa(kPageSize - 1);
}

constexpr uint64_t
pageIndex(Gpa a)
{
    return a >> kPageShift;
}

constexpr bool
isPageAligned(Gpa a)
{
    return (a & (kPageSize - 1)) == 0;
}

constexpr Gpa
pageAlignDown2m(Gpa a)
{
    return a & ~Gpa(kPageSize2m - 1);
}

constexpr bool
isPageAligned2m(Gpa a)
{
    return (a & (kPageSize2m - 1)) == 0;
}

/** Index of the 2 MiB region covering @p a. */
constexpr uint64_t
regionIndex2m(Gpa a)
{
    return a >> kPageShift2m;
}

/** Invoke @p fn(page) for every page overlapping [@p pa, @p pa+@p len). */
template <typename Fn>
void
forEachPageIn(Gpa pa, size_t len, Fn &&fn)
{
    Gpa first = pageAlignDown(pa);
    Gpa last = pageAlignDown(pa + (len ? len - 1 : 0));
    for (Gpa page = first; page <= last; page += kPageSize)
        fn(page);
}

/**
 * Virtual machine privilege level. VMPL0 is most privileged; a VCPU
 * instance's VMPL is fixed at VMSA creation (§3 of the paper).
 */
enum class Vmpl : uint8_t {
    Vmpl0 = 0,
    Vmpl1 = 1,
    Vmpl2 = 2,
    Vmpl3 = 3,
};

constexpr int kNumVmpls = 4;

inline int
vmplIndex(Vmpl v)
{
    return static_cast<int>(v);
}

/** x86 protection ring; only ring 0 and ring 3 are modelled. */
enum class Cpl : uint8_t {
    Supervisor = 0,
    User = 3,
};

/**
 * RMP per-VMPL page permissions. The expressive 4-permission set the
 * paper describes (§3): read, write, user-execute, supervisor-execute.
 */
enum PermBits : uint8_t {
    PermRead = 1 << 0,
    PermWrite = 1 << 1,
    PermUserExec = 1 << 2,
    PermSupervisorExec = 1 << 3,
};

using PermMask = uint8_t;

constexpr PermMask kPermNone = 0;
constexpr PermMask kPermAll =
    PermRead | PermWrite | PermUserExec | PermSupervisorExec;
constexpr PermMask kPermRw = PermRead | PermWrite;
constexpr PermMask kPermRx = PermRead | PermUserExec | PermSupervisorExec;

/** Kind of memory access, for permission checks and fault reporting. */
enum class Access : uint8_t {
    Read,
    Write,
    Execute,
};

std::string toString(Vmpl v);
std::string toString(Cpl c);
std::string toString(Access a);

} // namespace veil::snp

#endif // VEIL_SNP_TYPES_HH_
