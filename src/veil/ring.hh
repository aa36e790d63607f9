/**
 * @file
 * The VeilOp submission/completion rings (DESIGN.md §11): the one
 * batched kernel<->service transport. Deferrable service calls (batched
 * audit records as LogAppend, EncSyncPerms, EncFreePage) queue as POD
 * slots and one doorbell drains them.
 *
 * Each SPSC ring is a run of guest-physical pages in the *less
 * privileged* side's memory (§5.2): slot 0 holds the header, fixed-size
 * record slots follow, and head/tail are monotonic indices taken mod
 * capacity. A producer never overwrites an unconsumed slot: a call the
 * full ring cannot take goes sync instead.
 */
#ifndef VEIL_VEIL_RING_HH_
#define VEIL_VEIL_RING_HH_

#include <cstdint>

#include "snp/types.hh"

namespace veil::core {

/**
 * Shared ring header (slot 0). The producer owns head, the consumer
 * owns tail; both are monotonic so `head - tail` is the queue depth and
 * wrap-around needs no extra state.
 */
struct RingHeader
{
    uint64_t capacity = 0; ///< record-slot count (excl. slot 0)
    uint64_t head = 0;     ///< producer: next index to fill
    uint64_t tail = 0;     ///< consumer: next index to drain
};

/** GPA of record slot @p idx (taken mod @p slots) after the header. */
inline snp::Gpa
ringSlot(snp::Gpa ring_base, size_t slot_bytes, uint64_t slots, uint64_t idx)
{
    return ring_base + slot_bytes * (1 + idx % slots);
}

/**
 * Consumer-side header sanity check: the producer lives in a less
 * privileged domain, so capacity and index relationships are validated
 * before any slot is touched.
 */
inline bool
ringHeaderValid(const RingHeader &h, uint64_t capacity)
{
    return h.capacity == capacity && h.tail <= h.head &&
           h.head - h.tail <= capacity;
}

// ---- Geometry ----
//
// One submission + one completion ring per VCPU, in kernel-owned pages
// at the top of memory. Submission slots carry a full service request
// (args + a bounded payload); oversized requests fall back to the sync
// IDCB path at the call site. Producer and consumer move only the slot
// header and the payload bytes in use. Completion slots carry status +
// ret words keyed by the submission sequence number.

constexpr size_t kOpRingPages = 8;
constexpr size_t kOpSlotBytes = 512;
constexpr uint64_t kOpRingSlots =
    kOpRingPages * snp::kPageSize / kOpSlotBytes - 1;
constexpr size_t kOpPayloadMax = 432; ///< kOpSlotBytes minus slot header

/** One queued VeilOp request (submission-ring record slot). */
struct VeilOpSlot
{
    uint32_t op = 0;  ///< VeilOp
    uint32_t seq = 0; ///< producer-assigned, strictly increasing
    uint64_t args[8] = {};
    uint32_t payloadLen = 0;
    uint32_t pad = 0;
    uint8_t payload[kOpPayloadMax] = {};
};

static_assert(sizeof(VeilOpSlot) == kOpSlotBytes,
              "VeilOp submission slot must be exactly one record slot");

constexpr size_t kOpCplPages = 1;
constexpr size_t kOpCplSlotBytes = 64;
constexpr uint64_t kOpCplSlots =
    kOpCplPages * snp::kPageSize / kOpCplSlotBytes - 1;

/** One posted completion (completion-ring record slot). */
struct VeilOpCompletion
{
    uint32_t seq = 0; ///< matches the VeilOpSlot that produced it
    uint32_t op = 0;
    uint64_t status = 0; ///< VeilStatus
    uint64_t ret[4] = {};
    uint64_t pad[2] = {};
};

static_assert(sizeof(VeilOpCompletion) == kOpCplSlotBytes,
              "VeilOp completion slot must be exactly one record slot");

static_assert(sizeof(RingHeader) <= kOpCplSlotBytes,
              "ring header must fit in the smallest slot size");

} // namespace veil::core

#endif // VEIL_VEIL_RING_HH_
