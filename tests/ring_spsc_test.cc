/**
 * @file
 * Concurrent SPSC stress for the shared ring conventions of
 * veil/ring.hh (DESIGN.md §11). The simulator's guests normally run the
 * producer and consumer on one host thread (or, multicore, on the
 * producing VCPU's thread with a same-VCPU consumer), so the memory-
 * ordering obligations of the layout — producer publishes the slot
 * *before* the head bump, consumer retires the slot *before* the tail
 * bump, head/tail monotonic, never overwrite on full — are
 * asserted here with a real cross-thread producer/consumer pair using
 * acquire/release atomics over the same RingHeader layout.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "veil/ring.hh"

namespace veil::core {
namespace {

/** One record: a seq plus a payload derived from it (tear detector). */
struct Record
{
    uint64_t seq = 0;
    uint64_t check[7] = {};
};

constexpr uint64_t kSlots = 64;
constexpr uint64_t kRecords = 200000;

uint64_t
checkWord(uint64_t seq, size_t i)
{
    return seq * 0x9e3779b97f4a7c15ull + i;
}

/**
 * The shared ring: header + slots in one flat allocation, indices
 * accessed through atomic_ref exactly as a guest-shared page would be
 * (the underlying storage stays plain RingHeader/Record objects).
 */
struct SharedRing
{
    RingHeader hdr;
    Record slots[kSlots];

    uint64_t loadHead() const
    {
        return std::atomic_ref<const uint64_t>(hdr.head).load(
            std::memory_order_acquire);
    }
    uint64_t loadTail() const
    {
        return std::atomic_ref<const uint64_t>(hdr.tail).load(
            std::memory_order_acquire);
    }
    void storeHead(uint64_t v)
    {
        std::atomic_ref<uint64_t>(hdr.head).store(v,
                                                  std::memory_order_release);
    }
    void storeTail(uint64_t v)
    {
        std::atomic_ref<uint64_t>(hdr.tail).store(v,
                                                  std::memory_order_release);
    }
};

TEST(RingSpsc, ConcurrentProducerConsumerPreservesOrderAndContent)
{
    SharedRing ring;
    ring.hdr.capacity = kSlots;

    std::atomic<uint64_t> produced{0};
    std::atomic<uint64_t> drops{0};
    std::atomic<bool> producerDone{false};

    std::thread producer([&] {
        uint64_t seq = 0;
        while (seq < kRecords) {
            uint64_t head = ring.loadHead();
            if (head - ring.loadTail() >= kSlots) {
                // Full: never overwrite. Spin until the consumer
                // retires a slot so every record arrives.
                std::this_thread::yield();
                continue;
            }
            Record &slot = ring.slots[head % kSlots];
            slot.seq = seq;
            for (size_t i = 0; i < 7; ++i)
                slot.check[i] = checkWord(seq, i);
            // Publish the record, then the index: the release on head
            // is what makes the payload writes visible to the consumer.
            ring.storeHead(head + 1);
            produced.fetch_add(1, std::memory_order_relaxed);
            ++seq;
        }
        producerDone.store(true, std::memory_order_release);
    });

    uint64_t consumed = 0;
    uint64_t torn = 0;
    uint64_t outOfOrder = 0;
    bool headerEverInvalid = false;
    while (consumed < kRecords) {
        uint64_t head = ring.loadHead();
        uint64_t tail = ring.loadTail();
        // The consumer-side sanity check must hold at every observation
        // point (this is drainOpRing's validation rule).
        RingHeader snapshot;
        snapshot.capacity = kSlots;
        snapshot.head = head;
        snapshot.tail = tail;
        if (!ringHeaderValid(snapshot, kSlots))
            headerEverInvalid = true;
        if (tail == head) {
            std::this_thread::yield();
            continue;
        }
        const Record &slot = ring.slots[tail % kSlots];
        Record copy;
        std::memcpy(&copy, &slot, sizeof(copy));
        if (copy.seq != consumed)
            ++outOfOrder;
        for (size_t i = 0; i < 7; ++i) {
            if (copy.check[i] != checkWord(copy.seq, i))
                ++torn;
        }
        // Retire the slot, then bump tail (release): the producer may
        // only reuse the slot after it observes the new tail.
        ring.storeTail(tail + 1);
        ++consumed;
    }
    producer.join();

    EXPECT_EQ(consumed, kRecords);
    EXPECT_EQ(produced.load(), kRecords);
    EXPECT_EQ(torn, 0u) << "slot contents torn across head publication";
    EXPECT_EQ(outOfOrder, 0u) << "records reordered";
    EXPECT_FALSE(headerEverInvalid);
    EXPECT_EQ(ring.loadHead(), kRecords);
    EXPECT_EQ(ring.loadTail(), kRecords);
}

TEST(RingSpsc, FullRingDropsInsteadOfOverwriting)
{
    SharedRing ring;
    ring.hdr.capacity = kSlots;

    // Producer runs alone (consumer never drains): after kSlots fills
    // the ring is full and every further record must be turned away
    // (the kernel sends those sync), with slot contents left intact.
    uint64_t dropped = 0;
    for (uint64_t seq = 0; seq < kSlots + 17; ++seq) {
        uint64_t head = ring.loadHead();
        if (head - ring.loadTail() >= kSlots) {
            ++dropped;
            continue;
        }
        Record &slot = ring.slots[head % kSlots];
        slot.seq = seq;
        for (size_t i = 0; i < 7; ++i)
            slot.check[i] = checkWord(seq, i);
        ring.storeHead(head + 1);
    }
    EXPECT_EQ(dropped, 17u);
    EXPECT_EQ(ring.loadHead(), kSlots);
    // The first kSlots records survived untouched.
    for (uint64_t seq = 0; seq < kSlots; ++seq) {
        const Record &slot = ring.slots[seq % kSlots];
        EXPECT_EQ(slot.seq, seq);
        for (size_t i = 0; i < 7; ++i)
            EXPECT_EQ(slot.check[i], checkWord(seq, i));
    }
}

TEST(RingSpsc, SlotAddressingWrapsAfterHeader)
{
    // ringSlot skips the header slot and wraps modulo the slot count.
    EXPECT_EQ(ringSlot(0x1000, 256, 63, 0), 0x1000u + 256);
    EXPECT_EQ(ringSlot(0x1000, 256, 63, 62), 0x1000u + 256 * 63);
    EXPECT_EQ(ringSlot(0x1000, 256, 63, 63), 0x1000u + 256);
}

} // namespace
} // namespace veil::core
