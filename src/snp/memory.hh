/**
 * @file
 * Guest-physical memory backing store. Raw, unchecked byte access —
 * permission enforcement (page tables + RMP) lives in Vcpu; direct
 * users of this class are the simulated hardware and trusted setup
 * paths that are explicitly outside the checked path.
 */
#ifndef VEIL_SNP_MEMORY_HH_
#define VEIL_SNP_MEMORY_HH_

#include <cstddef>
#include <cstdint>

#include "snp/types.hh"

namespace veil::snp {

/**
 * Flat guest-physical memory. It owns one anonymous host mapping, so
 * it cannot be copied.
 */
class GuestMemory
{
  public:
    explicit GuestMemory(size_t bytes);
    ~GuestMemory();

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    size_t size() const { return size_; }
    uint64_t pageCount() const { return size_ / kPageSize; }

    /** Raw read; panics on out-of-bounds (simulator bug). */
    void read(Gpa addr, void *out, size_t len) const;

    /** Raw write; panics on out-of-bounds (simulator bug). */
    void write(Gpa addr, const void *data, size_t len);

    /** Typed helpers. */
    template <typename T>
    T
    readObj(Gpa addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeObj(Gpa addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Zero a whole page. */
    void zeroPage(Gpa page);

    /** Direct pointer for bulk host-side operations (hashing, etc.). */
    const uint8_t *raw(Gpa addr) const { return data_ + addr; }
    uint8_t *raw(Gpa addr) { return data_ + addr; }

    bool contains(Gpa addr, size_t len) const;

  private:
    uint8_t *data_ = nullptr;
    size_t size_;
};

} // namespace veil::snp

#endif // VEIL_SNP_MEMORY_HH_
