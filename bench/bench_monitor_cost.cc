/**
 * @file
 * §9.1 "Runtime monitor cost analysis": the paper frames any monitor's
 * runtime cost as C_ds x N_ds (switch cost times switch count) and
 * compares VeilMon against Nested-Kernel-style and hypervisor-based
 * monitors. We measure VeilMon's C_ds on the simulator and combine it
 * with the paper's reported characteristics of the alternatives.
 */
#include "common.hh"

#include "base/log.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_monitor_cost");
    heading("§9.1 Runtime monitor cost analysis (C_ds x N_ds)");

    // Measure VeilMon's C_ds (one-way switch) on the simulator.
    VeilVm vm(veilConfig(32));
    uint64_t c_ds = 0;
    uint64_t n_ds_boot = 0;
    vm.run([&](kern::Kernel &k, kern::Process &) {
        core::IdcbMessage ping;
        ping.op = static_cast<uint32_t>(core::VeilOp::Ping);
        n_ds_boot = k.stats().monitorCalls + k.stats().serviceCalls;
        k.callMonitor(ping);
        uint64_t t0 = k.cpu().rdtsc();
        for (int i = 0; i < 1000; ++i)
            k.callMonitor(ping);
        c_ds = (k.cpu().rdtsc() - t0) / 2000;
    });

    Table t("Security monitor designs (paper Table-free analysis, §9.1)",
            {"Monitor design", "C_ds (cycles)", "N_ds under normal load",
             "CVM-compatible?"});
    t.addRow({"VeilMon (VMPL, this work)",
              fmt("%llu (measured)", (unsigned long long)c_ds),
              fmt("very low (%llu calls for a full boot)",
                  (unsigned long long)(n_ds_boot)),
              "yes"});
    t.addRow({"Nested Kernel (CR0.WP, [45])",
              "~100s (no ring/VM exit)",
              "very high (every PT/CR update; 15-20% bandwidth loss)",
              "integrity only; no confidentiality"});
    t.addRow({"Compiler CFI monitors ([42,43])",
              "inline checks (no switch)",
              "per-memory-access (3.9x syscall latency, >50% NGINX)",
              "yes, but heavy background cost"});
    t.addRow({"Hypervisor monitor (BlackBox [65])",
              fmt("~%llu (half of VeilMon's)",
                  (unsigned long long)(c_ds / 2)),
              "low (EPT-based isolation)",
              "no: requires trusting the host"});
    t.print();

    Table t2("VeilMon cost components (measured)", {"Component", "Cycles"});
    const auto &costs = vm.machine().costs();
    t2.addRow({"VMGEXIT state save", fmt("%llu",
               (unsigned long long)costs.vmgexitSave)});
    t2.addRow({"Hypervisor dispatch", fmt("%llu",
               (unsigned long long)costs.hvDispatch)});
    t2.addRow({"VMENTER state restore", fmt("%llu",
               (unsigned long long)costs.vmenterRestore)});
    t2.addRow({"Total transition (paper: 7135)", fmt("%llu",
               (unsigned long long)costs.domainSwitchTransition())});
    t2.print();

    note("");
    note(fmt("Veil's delegation traffic during a full boot + idle run was "
             "only %llu monitor/service calls:",
             (unsigned long long)n_ds_boot));
    note("high C_ds x very low N_ds = no discernible background impact,");
    note("while read+write protection and an in-CVM TCB come for free —");
    note("the trade-off the paper argues for (§9.1).");
    traceFinish(vm.machine());
    return gateFinish();
}
