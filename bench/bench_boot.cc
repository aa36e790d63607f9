/**
 * @file
 * §9.1 "Initialization time": CVM boot with and without Veil. The
 * paper reports ~2 s of added boot time on a 2 GB guest (a 13% increase
 * over native CVM boot), >70% of it spent in boot-time RMPADJUST. We
 * measure a 256 MiB guest and linearly extrapolate the per-page costs
 * to the paper's 2 GB configuration (both are reported).
 */
#include "common.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

namespace {

struct BootSample
{
    uint64_t bootCycles = 0;
    uint64_t rmpadjustCycles = 0;
    uint64_t pvalidateCycles = 0;
    uint64_t pages = 0;
};

BootSample
measureVeil(size_t mem_mb)
{
    VeilVm vm(veilConfig(mem_mb));
    vm.run([](kern::Kernel &, kern::Process &) {});
    const auto &s = vm.monitor().bootStats();
    return BootSample{s.totalCycles, s.rmpadjustCycles, s.pvalidateCycles,
                      s.pagesProtected};
}

uint64_t
measureNative(size_t mem_mb)
{
    VeilVm vm(nativeConfig(mem_mb));
    uint64_t boot = 0;
    vm.run([&](kern::Kernel &k, kern::Process &) { boot = k.cpu().rdtsc(); });
    return boot;
}

/** One lazy-acceptance boot, 4 KiB vs 2 MiB page-size ablation arm. */
struct AblationSample
{
    uint64_t exits = 0;        ///< boot domain switches (GHCB exits)
    uint64_t pvalidates = 0;   ///< 4 KiB PVALIDATE instructions
    uint64_t pvalidates2m = 0; ///< PVALIDATE-2M instructions
    uint64_t pscBatches = 0;
    uint64_t hugeRegions = 0;
    uint64_t bootCycles = 0;
};

AblationSample
measureLazy(size_t mem_mb, bool huge_pages)
{
    VmConfig cfg = veilConfig(mem_mb);
    cfg.kernel.lazyAccept = true;
    cfg.machine.hugePages = huge_pages;
    VeilVm vm(cfg);
    vm.run([](kern::Kernel &, kern::Process &) {});
    const snp::MachineStats &s = vm.machine().stats();
    const auto &b = vm.monitor().bootStats();
    AblationSample a;
    a.exits = s.nonAutomaticExits;
    a.pvalidates = s.pvalidates;
    a.pvalidates2m = s.pvalidates2m;
    a.pscBatches = b.pscBatches;
    a.hugeRegions = b.hugeRegions;
    a.bootCycles = b.totalCycles;
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_boot");
    heading("§9.1 Initialization time (paper: Veil adds ~2 s, ~13%, to a "
            "2 GB CVM boot; >70% in RMPADJUST)");

    constexpr size_t kMemMb = 256;
    constexpr double kFreqGhz = 2.4;

    // Average over repeated boots (paper: 10 boot-ups).
    constexpr int kBoots = 3;
    BootSample veil{};
    uint64_t native = 0;
    for (int i = 0; i < kBoots; ++i) {
        BootSample s = measureVeil(kMemMb);
        veil.bootCycles += s.bootCycles / kBoots;
        veil.rmpadjustCycles += s.rmpadjustCycles / kBoots;
        veil.pvalidateCycles += s.pvalidateCycles / kBoots;
        veil.pages = s.pages;
        native += measureNative(kMemMb) / kBoots;
    }

    double veil_s = double(veil.bootCycles) / (kFreqGhz * 1e9);
    double native_s = double(native) / (kFreqGhz * 1e9);
    double rmp_frac = double(veil.rmpadjustCycles) / double(veil.bootCycles);

    Table t(fmt("Boot cost on a %zu MiB guest (avg of %d boots)", kMemMb,
                kBoots),
            {"Configuration", "Guest init cycles", "Simulated time"});
    t.addRow({"Native CVM (kernel PVALIDATEs)",
              fmt("%llu", (unsigned long long)native),
              fmt("%.3f s", native_s)});
    t.addRow({"Veil CVM (VeilMon protects domains)",
              fmt("%llu", (unsigned long long)veil.bootCycles),
              fmt("%.3f s", veil_s)});
    t.addRow({"Veil boot delta", fmt("%llu", (unsigned long long)(
                                        veil.bootCycles - native)),
              fmt("%.3f s", veil_s - native_s)});
    t.print();

    // Linear extrapolation to the paper's 2 GB guest.
    double scale = 2048.0 / double(kMemMb);
    Table t2("Extrapolated to the paper's 2 GB guest",
             {"Metric", "Extrapolated", "Paper"});
    t2.addRow({"Added boot time",
               fmt("%.2f s", (veil_s - native_s) * scale), "~2 s"});
    t2.addRow({"RMPADJUST share of Veil's added cost",
               fmt("%.0f%%", rmp_frac * 100), ">70%"});
    t2.addRow({"Pages protected",
               fmt("%llu", (unsigned long long)(veil.pages * size_t(scale))),
               "524288"});
    t2.print();

    note("");
    note("The paper's '13% increase' is relative to a full native CVM");
    note("boot (~15 s of OVMF + Linux init, not modelled here); the");
    note("comparable quantity is the absolute delta above, which is");
    note("entirely PVALIDATE + RMPADJUST work. One-time cost; normal");
    note("execution afterwards shows no slowdown (bench_background).");

    // ---- 2 MiB large-page boot ablation (DESIGN.md §14) ----
    // Lazy-acceptance boots: with huge pages off, every OS page pays
    // its own PageStateChange round trip + PVALIDATE; with huge pages
    // on, grouped multi-entry PSC requests and PVALIDATE-2M cover whole
    // regions. The reductions below are gated.
    heading("2 MiB large-page boot ablation (lazy acceptance)");
    constexpr size_t kAblMemMb = 64;
    AblationSample small = measureLazy(kAblMemMb, /*huge_pages=*/false);
    AblationSample huge = measureLazy(kAblMemMb, /*huge_pages=*/true);
    uint64_t small_pv = small.pvalidates + small.pvalidates2m;
    uint64_t huge_pv = huge.pvalidates + huge.pvalidates2m;
    double exit_red = huge.exits ? double(small.exits) / double(huge.exits)
                                 : 0.0;
    double pv_red = huge_pv ? double(small_pv) / double(huge_pv) : 0.0;

    Table t3(fmt("Lazy-acceptance boot on a %zu MiB guest", kAblMemMb),
             {"Metric", "4 KiB pages", "2 MiB pages", "Reduction"});
    t3.addRow({"Boot domain switches (exits)",
               fmt("%llu", (unsigned long long)small.exits),
               fmt("%llu", (unsigned long long)huge.exits),
               fmt("%.1fx", exit_red)});
    t3.addRow({"PVALIDATE instructions",
               fmt("%llu", (unsigned long long)small_pv),
               fmt("%llu", (unsigned long long)huge_pv),
               fmt("%.1fx", pv_red)});
    t3.addRow({"Grouped PSC requests", "0",
               fmt("%llu", (unsigned long long)huge.pscBatches), "-"});
    t3.addRow({"2 MiB regions protected", "0",
               fmt("%llu", (unsigned long long)huge.hugeRegions), "-"});
    t3.addRow({"Monitor boot cycles",
               fmt("%llu", (unsigned long long)small.bootCycles),
               fmt("%llu", (unsigned long long)huge.bootCycles),
               fmt("%.1fx", huge.bootCycles
                                ? double(small.bootCycles) /
                                      double(huge.bootCycles)
                                : 0.0)});
    t3.print();

    jsonMetric("boot.ablation.exits.4k", double(small.exits));
    jsonMetric("boot.ablation.exits.2m", double(huge.exits));
    jsonMetric("boot.ablation.exitReduction", exit_red, "x");
    jsonMetric("boot.ablation.pvalidates.4k", double(small_pv));
    jsonMetric("boot.ablation.pvalidates.2m", double(huge_pv));
    jsonMetric("boot.ablation.pvalidateReduction", pv_red, "x");
    jsonMetric("boot.ablation.pscBatches", double(huge.pscBatches));
    jsonMetric("boot.ablation.hugeRegions", double(huge.hugeRegions));

    // The huge-page boot must save at least 5x the domain switches and
    // 3x the PVALIDATEs of the 4 KiB boot.
    gate("boot.ablation.exitReduction", exit_red, ">=", 5);
    gate("boot.ablation.pvalidateReduction", pv_red, ">=", 3);
    gate("boot.ablation.hugeRegions", double(huge.hugeRegions), ">", 0);
    gate("boot.ablation.pscBatches", double(huge.pscBatches), ">", 0);
    gate("boot.ablation.exits.2m", double(huge.exits), "<",
         double(small.exits));
    return gateFinish();
}
