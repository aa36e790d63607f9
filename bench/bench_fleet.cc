/**
 * @file
 * VeilFleet throughput and clone-latency benchmark (DESIGN.md §13):
 * seal one template enclave, then drive a large fleet of copy-on-write
 * clone sessions through the per-VCPU scheduler and report
 *
 *  - clone latency vs the full build/measure/finalize boot (the paper's
 *    motivation for snapshot/clone), gated at a >= 50x speedup floor,
 *  - sustained sessions/sec over a 1000+ session Zipf-mixed fleet,
 *  - work-stealing and memory-pressure (CLOCK eviction) counters,
 *  - a multicore sweep (skipped below 8 hardware threads), and
 *  - a seeded chaos soak over the fleet's own fault sites.
 *
 * Service batching stays OFF: fleet sessions rely on execute-ahead
 * ordering at the enclave boundary (§11 mode legality).
 *
 * --json <path> dumps every table, metric and gate as one JSON
 * document.
 */
#include "common.hh"

#include <thread>

#include "base/log.hh"
#include "chaos/chaos.hh"
#include "fleet/fleet.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;
using namespace veil::snp;
using namespace veil::kern;
using veil::fleet::FleetConfig;
using veil::fleet::FleetManager;
using veil::fleet::FleetStats;

namespace {

VmConfig
fleetVmConfig(uint32_t vcpus, uint32_t host_threads = 0)
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 256 * 1024 * 1024;
    cfg.machine.numVcpus = vcpus;
    cfg.machine.hostThreads = host_threads;
    return cfg;
}

struct FleetResult
{
    bool terminated = false;
    bool halted = false;
    std::string haltReason;
    uint64_t runCycles = 0;
    uint64_t bootCycles = 0;
    uint64_t avgCloneCycles = 0;
    uint64_t framesBefore = 0;
    uint64_t framesAfter = 0;
    uint64_t framesPeak = 0;
    double seconds = 0;
    FleetStats stats;
};

FleetResult
runFleet(const VmConfig &vm_cfg, const FleetConfig &fc,
         chaos::FaultInjector *inj = nullptr)
{
    VeilVm vm(vm_cfg);
    FleetConfig cfg = fc;
    cfg.chaos = inj;
    FleetManager fm(vm, cfg);
    FleetResult r;
    auto run = vm.run([&](Kernel &k, Process &) {
        r.framesBefore = k.frames().inUse();
        if (!fm.sealTemplate(k))
            return;
        uint64_t t0 = k.cpu().rdtsc();
        fm.run(k);
        r.runCycles = k.cpu().rdtsc() - t0;
        fm.releaseTemplate(k);
        r.framesAfter = k.frames().inUse();
        r.framesPeak = k.frames().highWater();
    });
    r.terminated = run.terminated;
    r.halted = run.halted;
    r.haltReason = vm.machine().haltInfo().reason;
    r.bootCycles = fm.bootCycles();
    r.avgCloneCycles = fm.avgCloneCycles();
    r.seconds = vm.machine().costs().seconds(r.runCycles);
    r.stats = fm.stats();
    return r;
}

double
sessionsPerSec(const FleetResult &r)
{
    return r.seconds > 0 ? double(r.stats.sessionsCompleted) / r.seconds
                         : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_fleet");

    constexpr uint32_t kSessions = 1200;

    // Default template geometry: 1 config + 16 code + 512 heap + 16
    // stack = 545 measured pages; every clone shares them CoW.
    FleetConfig base;
    base.sessions = kSessions;
    base.maxLive = 32;
    base.quantum = 4;
    base.callsMax = 8;
    base.seed = 1;
    base.pagesPerCall = 8;
    base.burnPerCall = 20'000;

    // ---- Clone latency + fleet throughput (single-threaded) ----

    heading(fmt("VeilFleet: %u CoW clone sessions over 2 VCPUs "
                "(Zipf call mix, 545-page template)",
                kSessions));

    FleetResult st = runFleet(fleetVmConfig(2), base);
    ensure(st.terminated && !st.halted, "bench_fleet: fleet run halted");
    ensure(st.stats.sessionsCompleted == kSessions,
           "bench_fleet: sessions lost");
    ensure(st.stats.checksumErrors == 0, "bench_fleet: checksum errors");

    double speedup = st.avgCloneCycles
                         ? double(st.bootCycles) / double(st.avgCloneCycles)
                         : 0;

    Table lat("Clone latency vs full boot", {"Path", "Cycles", "Speedup"});
    lat.addRow({"full boot (build+measure+finalize)",
                fmt("%llu", (unsigned long long)st.bootCycles), "1.0x"});
    lat.addRow({"CoW clone (createFromSnapshot)",
                fmt("%llu", (unsigned long long)st.avgCloneCycles),
                fmt("%.1fx", speedup)});
    lat.print();

    Table thr("Fleet throughput", {"Metric", "Value"});
    thr.addRow({"sessions completed",
                fmt("%llu", (unsigned long long)st.stats.sessionsCompleted)});
    thr.addRow({"enclave calls",
                fmt("%llu", (unsigned long long)st.stats.callsCompleted)});
    thr.addRow({"simulated seconds", fmt("%.4f", st.seconds)});
    thr.addRow({"sessions/sec", fmt("%.0f", sessionsPerSec(st))});
    thr.addRow({"peak live sessions",
                fmt("%llu", (unsigned long long)st.stats.peakLive)});
    thr.addRow({"steals",
                fmt("%llu", (unsigned long long)st.stats.steals)});
    thr.addRow({"frames before/after",
                fmt("%llu/%llu", (unsigned long long)st.framesBefore,
                    (unsigned long long)st.framesAfter)});
    thr.addRow({"frames high-water",
                fmt("%llu", (unsigned long long)st.framesPeak)});
    thr.print();

    jsonMetric("sessions", double(kSessions));
    jsonMetric("boot_cycles", double(st.bootCycles), "cycles");
    jsonMetric("clone_cycles", double(st.avgCloneCycles), "cycles");
    jsonMetric("clone_speedup", speedup, "x");
    jsonMetric("sessions_per_sec", sessionsPerSec(st), "1/s");
    jsonMetric("calls_completed", double(st.stats.callsCompleted));
    jsonMetric("steals", double(st.stats.steals));
    jsonMetric("checksum_errors", double(st.stats.checksumErrors));
    jsonMetric("frames_leaked",
               double(st.framesAfter) - double(st.framesBefore));
    jsonMetric("frames_high_water", double(st.framesPeak));

    // The paper's point: a clone must be orders of magnitude cheaper
    // than a boot.
    gate("clone_speedup", speedup, ">=", 50);
    gate("frames_leaked", double(st.framesAfter) - double(st.framesBefore),
         "==", 0);

    // ---- Memory pressure: budget-driven CLOCK eviction ----

    heading("Memory pressure: 800-frame budget under the same fleet mix");

    FleetConfig pressure = base;
    pressure.sessions = std::min<uint32_t>(pressure.sessions, 200);
    pressure.frameBudget = 800;
    FleetResult pr = runFleet(fleetVmConfig(2), pressure);
    ensure(pr.terminated && !pr.halted,
           "bench_fleet: pressure run halted");
    ensure(pr.stats.checksumErrors == 0,
           "bench_fleet: pressure corrupted results");

    Table ev("Eviction counters", {"Metric", "Value"});
    ev.addRow({"budget sweeps",
               fmt("%llu", (unsigned long long)pr.stats.evictionSweeps)});
    ev.addRow({"pages evicted (budget)",
               fmt("%llu", (unsigned long long)pr.stats.evictions)});
    ev.addRow({"pages evicted (reclaim hook)",
               fmt("%llu", (unsigned long long)pr.stats.reclaimEvictions)});
    ev.addRow({"summed session peak residency",
               fmt("%llu pages",
                   (unsigned long long)pr.stats.workingSetPages)});
    ev.addRow({"sessions/sec under pressure",
               fmt("%.0f", sessionsPerSec(pr))});
    ev.print();

    jsonMetric("evict_sweeps", double(pr.stats.evictionSweeps));
    jsonMetric("evict_pages", double(pr.stats.evictions));
    jsonMetric("evict_reclaim_pages", double(pr.stats.reclaimEvictions));
    jsonMetric("pressure_sessions_per_sec", sessionsPerSec(pr), "1/s");
    gate("evict_pages", double(pr.stats.evictions), ">", 0);

    // ---- Multicore sweep ----

    heading("Multicore worker sweep (per-VCPU host threads)");

    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 8) {
        note(fmt("skipped: %u hardware threads < 8 (needs headroom for "
                 "4 VCPU workers)",
                 hw));
        jsonMetric("mt_skipped", 1);
    } else {
        jsonMetric("mt_skipped", 0);
        FleetConfig mt = base;
        mt.sessions = std::min<uint32_t>(mt.sessions, 256);
        Table sweep("Sessions/sec by worker count",
                    {"VCPUs", "Sessions", "Sessions/sec", "Steals"});
        for (uint32_t v : {2u, 4u}) {
            FleetResult mr = runFleet(fleetVmConfig(v, v), mt);
            ensure(mr.terminated && !mr.halted,
                   "bench_fleet: multicore run halted");
            ensure(mr.stats.checksumErrors == 0,
                   "bench_fleet: multicore corrupted results");
            ensure(mr.stats.sessionsCompleted == mt.sessions,
                   "bench_fleet: multicore lost sessions");
            sweep.addRow(
                {fmt("%u", v),
                 fmt("%llu",
                     (unsigned long long)mr.stats.sessionsCompleted),
                 fmt("%.0f", sessionsPerSec(mr)),
                 fmt("%llu", (unsigned long long)mr.stats.steals)});
            jsonMetric(fmt("mt%u_sessions_per_sec", v), sessionsPerSec(mr),
                       "1/s");
            jsonMetric(fmt("mt%u_steals", v), double(mr.stats.steals));
        }
        sweep.print();
    }

    // ---- Chaos soak: fleet fault sites ----

    heading("Chaos soak: EvictRace + CloneRmpFlip across 8 seeds");

    uint64_t soak_terminated = 0, soak_halted = 0, soak_violations = 0;
    uint64_t soak_injected = 0;
    Table soak("Per-seed outcomes", {"Seed", "Outcome", "Faults", "Detail"});
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        chaos::FaultPlan plan;
        plan.seed = seed;
        plan.probability[size_t(chaos::FaultSite::EvictRace)] = 0.3;
        plan.budget[size_t(chaos::FaultSite::EvictRace)] = 256;
        plan.probability[size_t(chaos::FaultSite::CloneRmpFlip)] = 0.01;
        plan.budget[size_t(chaos::FaultSite::CloneRmpFlip)] = 1;
        chaos::FaultInjector inj(plan);

        FleetConfig cc = base;
        cc.sessions = 64;
        cc.maxLive = 8;
        cc.quantum = 1;
        cc.frameBudget = 800;
        cc.seed = seed;
        FleetResult cr = runFleet(fleetVmConfig(2), cc, &inj);
        soak_injected += inj.stats().totalInjected();

        // Progress or attributed halt: the fleet either drains fully,
        // or a flipped template page halts the CVM with a reason.
        bool ok;
        std::string detail;
        if (cr.terminated && !cr.halted &&
            cr.stats.sessionsCompleted == cc.sessions &&
            cr.stats.checksumErrors == 0) {
            ok = true;
            detail = "fleet drained";
        } else if (cr.halted && !cr.haltReason.empty() &&
                   cr.stats.checksumErrors == 0) {
            ok = true;
            detail = cr.haltReason.substr(0, 44);
        } else {
            ok = false;
            detail = "VIOLATION";
        }
        soak_terminated += ok && cr.terminated;
        soak_halted += ok && cr.halted;
        soak_violations += !ok;
        soak.addRow({fmt("%llu", (unsigned long long)seed),
                     ok ? (cr.halted ? "halted" : "terminated")
                        : "VIOLATION",
                     fmt("%llu",
                         (unsigned long long)inj.stats().totalInjected()),
                     detail});
    }
    soak.print();

    jsonMetric("soak_terminated", double(soak_terminated));
    jsonMetric("soak_halted", double(soak_halted));
    jsonMetric("soak_violations", double(soak_violations));
    jsonMetric("soak_faults_injected", double(soak_injected));

    gate("soak_violations", double(soak_violations), "==", 0);
    gate("soak_terminated+soak_halted",
         double(soak_terminated + soak_halted), "==", 8);
    return gateFinish();
}
