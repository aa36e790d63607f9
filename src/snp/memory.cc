#include "snp/memory.hh"

#include <sys/mman.h>

#include <cstring>

#include "base/log.hh"

namespace veil::snp {

// The store is one anonymous mapping, not a zero-filled heap buffer:
// the host kernel supplies zero pages on first touch, so a CVM costs
// host time and resident memory only for the guest pages it uses
// (a few thousand of a 256 MiB guest's 65,536). One PROT_NONE page
// past size() makes a raw() overrun fault in every build.
GuestMemory::GuestMemory(size_t bytes) : size_(bytes)
{
    ensure(bytes % kPageSize == 0, "GuestMemory: size not page-aligned");
    ensure(bytes > 0, "GuestMemory: zero size");
    void *p = mmap(nullptr, size_ + kPageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ensure(p != MAP_FAILED, "GuestMemory: mmap failed");
    data_ = static_cast<uint8_t *>(p);
    if (mprotect(data_ + size_, kPageSize, PROT_NONE) != 0) {
        munmap(data_, size_ + kPageSize);
        panic("GuestMemory: guard page mprotect failed");
    }
}

GuestMemory::~GuestMemory()
{
    munmap(data_, size_ + kPageSize);
}

bool
GuestMemory::contains(Gpa addr, size_t len) const
{
    return addr <= size_ && len <= size_ - addr;
}

void
GuestMemory::read(Gpa addr, void *out, size_t len) const
{
    if (!contains(addr, len))
        panic(strfmt("GuestMemory::read OOB gpa=0x%llx len=%zu",
                     (unsigned long long)addr, len));
    std::memcpy(out, data_ + addr, len);
}

void
GuestMemory::write(Gpa addr, const void *data, size_t len)
{
    if (!contains(addr, len))
        panic(strfmt("GuestMemory::write OOB gpa=0x%llx len=%zu",
                     (unsigned long long)addr, len));
    std::memcpy(data_ + addr, data, len);
}

void
GuestMemory::zeroPage(Gpa page)
{
    ensure(isPageAligned(page), "zeroPage: unaligned");
    if (!contains(page, kPageSize))
        panic("GuestMemory::zeroPage OOB");
    std::memset(data_ + page, 0, kPageSize);
}

} // namespace veil::snp
