/**
 * @file
 * Deterministic cycle-cost model for the SEV-SNP simulator.
 *
 * Every cost below is documented against the paper's measured anchors
 * (§9.1, EPYC 7313P, 2.4 GHz base clock):
 *
 *  - A hypervisor-relayed domain switch (VMGEXIT state save + hypervisor
 *    dispatch + VMENTER state restore) costs 7135 cycles — the paper's
 *    headline microbenchmark.
 *  - A plain VMCALL exit+resume on a non-SNP VM costs 1100 cycles.
 *  - RMPADJUST costs ~6500 cycles per page including the mandatory
 *    memory touch. This single constant reproduces two independent paper
 *    anchors: (a) bulk-adjusting a 2 GB guest's 524288 pages costs
 *    ~3.4e9 cycles = ~1.42 s = ~70% of the reported ~2 s Veil boot
 *    overhead, and (b) the CS1 module-load delta of ~55 k cycles
 *    (1 round trip = 14270, plus 6 pages x 6500 = 39000, plus checks).
 */
#ifndef VEIL_SNP_CYCLES_HH_
#define VEIL_SNP_CYCLES_HH_

#include <cstdint>

namespace veil::snp {

/** Tunable per-operation cycle costs. Defaults are the calibrated set. */
struct CostModel
{
    /// Simulated guest core frequency (cycles per second).
    uint64_t tscFrequencyHz = 2'400'000'000ULL;

    /// SEV-SNP register state save at VMGEXIT (per transition).
    uint64_t vmgexitSave = 3200;
    /// Hypervisor exit dispatch / handling.
    uint64_t hvDispatch = 735;
    /// SEV-SNP register state restore at VMENTER (per transition).
    uint64_t vmenterRestore = 3200;

    /// Plain (non-SNP) VMCALL exit half-cost; exit+resume = 1100.
    uint64_t plainExit = 550;
    uint64_t plainResume = 550;

    /// RMPADJUST per page, including the mandatory page touch.
    uint64_t rmpadjustPage = 6500;
    /// RMPADJUST on a page whose line is already hot (e.g. the second
    /// and third VMPL grants during bulk boot-time protection).
    uint64_t rmpadjustWarm = 1000;
    /// PVALIDATE per page.
    uint64_t pvalidatePage = 800;

    // ---- 2 MiB large-page fast path (DESIGN.md §14, opt-in) ----
    // Anchored the same way the 4 KiB costs are: one instruction, one
    // RMP entry write, one mandatory page touch — so a 2 MiB operation
    // costs roughly 2x its 4 KiB sibling (bigger touch, one entry)
    // rather than 512x. These only appear on the hugepage path; with
    // MachineConfig::hugePages off no code charges them, keeping the
    // default cycle stream bit-identical.
    /// PVALIDATE with the 2 MiB size bit, per region.
    uint64_t pvalidate2m = 1700;
    /// RMPADJUST on a 2 MiB RMP entry, including the page touch.
    uint64_t rmpadjust2m = 7000;
    /// RMPADJUST-2M when the region's line is already hot.
    uint64_t rmpadjust2mWarm = 1100;
    /// Hypervisor-side cost per extra entry in a grouped multi-entry
    /// PageStateChange request (entry parse + RMPUPDATE issue); the
    /// first entry rides the ordinary exit dispatch cost.
    uint64_t pscPerEntry = 125;

    /// Creating and measuring a fresh VMSA (VCPU replica, §5.2).
    uint64_t vmsaInit = 9000;

    /// Fixed cost of a checked guest memory access (walk amortized).
    /// Vcpu::readCStr keeps the historical per-byte accounting —
    /// copyCost(1) per byte examined, terminator included, with a timer
    /// poll after each byte — even though it reads page-sized chunks
    /// under the hood.
    uint64_t memAccessFixed = 30;
    /// Copy cost per 16-byte chunk moved through Vcpu::read/write.
    uint64_t copyPer16B = 4;

    /// Guest timer interrupt frequency (Linux-tick-like).
    uint64_t timerHz = 100;
    /// Kernel-side interrupt handling cost.
    uint64_t irqHandle = 2600;

    /// One full domain-switch transition (exit + dispatch + enter).
    uint64_t
    domainSwitchTransition() const
    {
        return vmgexitSave + hvDispatch + vmenterRestore;
    }

    /// A round trip A -> B -> A (two transitions).
    uint64_t
    domainSwitchRoundTrip() const
    {
        return 2 * domainSwitchTransition();
    }

    /// Timer quantum in cycles.
    uint64_t
    timerQuantum() const
    {
        return tscFrequencyHz / timerHz;
    }

    /// Cycles for copying @p len bytes through the access path.
    uint64_t
    copyCost(uint64_t len) const
    {
        return memAccessFixed + copyPer16B * ((len + 15) / 16);
    }

    /// Convert a cycle count to simulated seconds.
    double
    seconds(uint64_t cycles) const
    {
        return static_cast<double>(cycles) /
               static_cast<double>(tscFrequencyHz);
    }
};

} // namespace veil::snp

#endif // VEIL_SNP_CYCLES_HH_
