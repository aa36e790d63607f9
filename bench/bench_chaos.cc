/**
 * @file
 * VeilChaos resilience sweep (DESIGN.md §10): run the shared soak
 * scenario (sdk/chaos_soak.hh, also asserted by chaos_soak_test) across
 * many seeds under the canonical fault mixture, classify each run
 * (terminated / attributed halt), and print every resilience invariant
 * a seed violates — no livelock, gap-accounted audit stream, no host
 * plaintext exposure, monotonic stored records.
 *
 * --seeds=N selects the sweep width (default 64). With --json <path>
 * every table (including the per-seed outcome table) and the aggregate
 * metrics are dumped as one JSON document, gates included.
 */
#include "common.hh"

#include <cstdlib>
#include <cstring>

#include "chaos/chaos.hh"
#include "sdk/chaos_soak.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_chaos");

    uint64_t seeds = 64;
    for (int i = 1; i < argc; ++i) {
        if (strncmp(argv[i], "--seeds=", 8) == 0)
            seeds = strtoull(argv[i] + 8, nullptr, 10);
        else if (strcmp(argv[i], "--seeds") == 0 && i + 1 < argc)
            seeds = strtoull(argv[++i], nullptr, 10);
    }
    if (seeds == 0)
        seeds = 1;

    heading(fmt("VeilChaos resilience sweep: %llu seeds under the "
                "canonical fault mixture",
                (unsigned long long)seeds));

    Table per_seed("Per-seed outcomes",
                   {"Seed", "Outcome", "Faults", "Retries",
                    "Stored/Produced", "Detail"});
    uint64_t terminated = 0, halted = 0, injected = 0, retries = 0;
    uint64_t produced = 0, stored = 0;
    uint64_t site_totals[chaos::kFaultSiteCount] = {};
    uint64_t violating_seeds = 0;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        SoakOutcome o = runSoakSeed(seed);
        std::vector<std::string> violations = soakViolations(o);
        bool clean = violations.empty();
        terminated += o.run.terminated && clean;
        halted += o.run.halted && clean;
        injected += o.faults.totalInjected();
        retries += o.guestRetries;
        produced += o.produced;
        stored += o.stored;
        for (size_t i = 0; i < chaos::kFaultSiteCount; ++i)
            site_totals[i] += o.faults.injected[i];
        violating_seeds += !clean;
        std::string outcome = !clean           ? "VIOLATION"
                              : o.run.terminated ? "terminated"
                                                 : "halted";
        std::string detail = !clean         ? violations[0]
                             : o.run.halted ? o.haltReason
                                            : "orderly exit";
        per_seed.addRow({fmt("%llu", (unsigned long long)seed), outcome,
                         fmt("%llu",
                             (unsigned long long)o.faults.totalInjected()),
                         fmt("%llu", (unsigned long long)o.guestRetries),
                         fmt("%llu/%llu", (unsigned long long)o.stored,
                             (unsigned long long)o.produced),
                         detail.substr(0, 48)});
    }
    per_seed.print();

    Table sites("Faults landed by site (sweep total)",
                {"Site", "Injected"});
    for (size_t i = 0; i < chaos::kFaultSiteCount; ++i)
        sites.addRow(
            {chaos::faultSiteName(static_cast<chaos::FaultSite>(i)),
             fmt("%llu", (unsigned long long)site_totals[i])});
    sites.print();

    Table summary("Sweep summary", {"Metric", "Value"});
    summary.addRow({"seeds", fmt("%llu", (unsigned long long)seeds)});
    summary.addRow(
        {"terminated (progress)", fmt("%llu", (unsigned long long)terminated)});
    summary.addRow(
        {"attributed halts", fmt("%llu", (unsigned long long)halted)});
    summary.addRow({"invariant violations",
                    fmt("%llu", (unsigned long long)violating_seeds)});
    summary.addRow(
        {"faults injected", fmt("%llu", (unsigned long long)injected)});
    summary.addRow(
        {"guest retries", fmt("%llu", (unsigned long long)retries)});
    summary.addRow({"audit records stored/produced",
                    fmt("%llu/%llu", (unsigned long long)stored,
                        (unsigned long long)produced)});
    summary.print();

    jsonMetric("seeds", double(seeds));
    jsonMetric("terminated", double(terminated));
    jsonMetric("halted", double(halted));
    jsonMetric("violations", double(violating_seeds));
    jsonMetric("faults_injected", double(injected));
    jsonMetric("guest_retries", double(retries));
    jsonMetric("audit_produced", double(produced));
    jsonMetric("audit_stored", double(stored));

    gate("violations", double(violating_seeds), "==", 0);
    gate("terminated+halted", double(terminated + halted), "==",
         double(seeds));
    gate("faults_injected", double(injected), ">", double(seeds));
    gate("guest_retries", double(retries), ">", 0);
    return gateFinish();
}
