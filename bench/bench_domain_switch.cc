/**
 * @file
 * §9.1 "Domain switch cost": 10,000 hypervisor-relayed domain switches
 * between the OS and VeilMon, measured with the virtual TSC, against
 * the paper's 7135-cycle anchor; plus the plain (non-SNP) VMCALL exit
 * baseline (paper: ~1100 cycles).
 *
 * Also hosts the multicore scale sweep (DESIGN.md §12): host wall-clock
 * domain-switch + paging throughput at 1..32 VCPUs, single-threaded vs
 * one-host-thread-per-VCPU, with a speedup gate at 8 threads.
 */
#include "common.hh"

#include <chrono>
#include <memory>
#include <thread>

#include "hv/hypervisor.hh"
#include "kernel/mm.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

namespace {

constexpr snp::Gpa kScaleGhcbBase = 0x100000;
constexpr snp::Gpa kScaleFrameBase = 0x400000;

/**
 * Raw snp+hv scale workload (mirrors tests/snp_multicore_test.cc): per
 * VCPU a VMPL0 worker ping-ponging DomainSwitch with a VMPL3 replica,
 * then churning frames through the shared striped allocator. Returns
 * host seconds for the run() call.
 */
double
scaleRun(uint32_t vcpus, int rounds, int pages, bool multicore)
{
    snp::MachineConfig cfg;
    cfg.memBytes = 32 * 1024 * 1024;
    cfg.numVcpus = vcpus;
    cfg.interruptsEnabled = false;
    cfg.hostThreads = multicore ? vcpus : 0;
    auto machine = std::make_unique<snp::Machine>(cfg);
    auto hyper = std::make_unique<hv::Hypervisor>(*machine);

    snp::Gpa lo = kScaleFrameBase;
    snp::Gpa hi = lo + uint64_t(vcpus) * pages * snp::kPageSize;
    for (snp::Gpa f = lo; f < hi; f += snp::kPageSize)
        machine->rmp().hvAssign(f);
    kern::FrameAllocator frames(lo, hi);
    frames.setMulticore(multicore);

    snp::VmsaId boot = snp::kInvalidVmsa;
    for (uint32_t v = 0; v < vcpus; ++v) {
        snp::Gpa ghcb = kScaleGhcbBase + uint64_t(v) * snp::kPageSize;
        machine->rmp().hvSetShared(ghcb, true);

        snp::Vmsa worker;
        worker.vcpuId = v;
        worker.vmpl = snp::Vmpl::Vmpl0;
        worker.ghcbGpa = ghcb;
        worker.irqMasked = true;
        worker.entry = [&frames, vcpus, rounds, pages, v](snp::Vcpu &cpu) {
            if (v == 0) {
                for (uint32_t o = 1; o < vcpus; ++o) {
                    snp::Ghcb g;
                    g.exitCode =
                        static_cast<uint64_t>(snp::GhcbExit::StartVcpu);
                    g.info[0] = o;
                    g.info[1] = static_cast<uint64_t>(snp::Vmpl::Vmpl0);
                    cpu.hypercall(g);
                }
            }
            for (int i = 0; i < rounds; ++i) {
                snp::Ghcb g;
                g.exitCode =
                    static_cast<uint64_t>(snp::GhcbExit::DomainSwitch);
                g.info[0] = v;
                g.info[1] = static_cast<uint64_t>(snp::Vmpl::Vmpl3);
                cpu.hypercall(g);
            }
            for (int i = 0; i < pages; ++i) {
                snp::Gpa f = frames.alloc();
                cpu.pvalidate(f, true);
                uint64_t tag = (uint64_t(v) << 32) | uint64_t(i);
                cpu.writePhys(f, &tag, sizeof(tag));
                cpu.pvalidate(f, false);
                frames.free(f);
            }
        };
        snp::VmsaId wid = machine->addVmsa(std::move(worker));

        snp::Vmsa replica;
        replica.vcpuId = v;
        replica.vmpl = snp::Vmpl::Vmpl3;
        replica.ghcbGpa = ghcb;
        replica.irqMasked = true;
        replica.entry = [v](snp::Vcpu &cpu) {
            for (;;) {
                snp::Ghcb g;
                g.exitCode =
                    static_cast<uint64_t>(snp::GhcbExit::DomainSwitch);
                g.info[0] = v;
                g.info[1] = static_cast<uint64_t>(snp::Vmpl::Vmpl0);
                cpu.hypercall(g);
            }
        };
        snp::VmsaId rid = machine->addVmsa(std::move(replica));

        hyper->registerVmsa(v, snp::Vmpl::Vmpl0, wid);
        hyper->registerVmsa(v, snp::Vmpl::Vmpl3, rid);
        if (v == 0)
            boot = wid;
    }

    auto t0 = std::chrono::steady_clock::now();
    hyper->run(boot);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Scale sweep and its gates. */
void
scaleSweep()
{
    heading("Multicore scale sweep (domain switches + paging, host time)");

    constexpr int kRounds = 500;
    constexpr int kPages = 16;
    const uint32_t kVcpuPoints[] = {1, 2, 4, 8, 16, 32};

    Table t("Throughput vs VCPU count (kswitches/s of host time)",
            {"VCPUs", "1 host thread", "per-VCPU threads", "speedup"});
    double st8 = 0, mt8 = 0;
    for (uint32_t n : kVcpuPoints) {
        double switches = double(n) * kRounds * 2;
        double st = switches / scaleRun(n, kRounds, kPages, false) / 1e3;
        double mt = switches / scaleRun(n, kRounds, kPages, true) / 1e3;
        if (n == 8) {
            st8 = st;
            mt8 = mt;
        }
        t.addRow({fmt("%u", n), fmt("%.0f", st), fmt("%.0f", mt),
                  fmt("%.2fx", mt / st)});
        jsonMetric(fmt("scale_st_%u_kswitches_per_s", n), st, "kswitch/s");
        jsonMetric(fmt("scale_mt_%u_kswitches_per_s", n), mt, "kswitch/s");
        gate(fmt("scale_mt_%u_kswitches_per_s", n), mt, ">", 0);
    }
    t.print();

    double speedup8 = mt8 / st8;
    jsonMetric("scale_speedup_8", speedup8, "x");
    unsigned cores = std::thread::hardware_concurrency();
    jsonMetric("host_hardware_concurrency", double(cores), "threads");
    note("");
    if (cores >= 8) {
        note(fmt("8-VCPU speedup: %.2fx on %u host cores (gate: >= 4x).",
                 speedup8, cores));
        gate("scale_speedup_8", speedup8, ">=", 4);
    } else {
        note(fmt("8-VCPU speedup: %.2fx — gate skipped, only %u host "
                 "core(s) visible.",
                 speedup8, cores));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_domain_switch");
    heading("§9.1 Domain switch cost (paper anchor: 7135 cycles/switch)");

    // --- Veil domain switches ---
    VeilVm vm(veilConfig(32));
    uint64_t per_switch = 0;
    uint64_t idcb_round_trip = 0;
    vm.run([&](kern::Kernel &k, kern::Process &) {
        core::IdcbMessage ping;
        ping.op = static_cast<uint32_t>(core::VeilOp::Ping);
        k.callMonitor(ping); // warm up

        constexpr int kRoundTrips = 5000; // = 10,000 switches
        uint64_t t0 = k.cpu().rdtsc();
        for (int i = 0; i < kRoundTrips; ++i)
            k.callMonitor(ping);
        uint64_t total = k.cpu().rdtsc() - t0;
        idcb_round_trip = total / kRoundTrips;
        per_switch = total / (2 * kRoundTrips);
    });

    // --- Plain VMCALL exit on a non-SNP VM ---
    snp::MachineConfig plain_cfg;
    plain_cfg.memBytes = 8 * 1024 * 1024;
    plain_cfg.numVcpus = 1;
    plain_cfg.snpMode = false;
    plain_cfg.interruptsEnabled = false;
    snp::Machine plain(plain_cfg);
    snp::Vmsa v;
    v.vmpl = snp::Vmpl::Vmpl0;
    v.entry = [](snp::Vcpu &cpu) {
        for (int i = 0; i < 10000; ++i)
            cpu.machine().guestExit(snp::ExitReason::NonAutomatic);
    };
    snp::VmsaId id = plain.addVmsa(std::move(v));
    uint64_t t0 = plain.tsc();
    int exits = 0;
    while (exits < 10000) {
        plain.enter(id);
        ++exits;
    }
    uint64_t plain_cost = (plain.tsc() - t0) / 10000;

    Table t("Domain switch microbenchmark (10,000 switches)",
            {"Metric", "Measured (cycles)", "Paper (cycles)"});
    t.addRow({"Veil domain switch (one transition)", fmt("%llu",
              (unsigned long long)per_switch), "7135"});
    t.addRow({"OS->VeilMon->OS round trip (IDCB incl.)",
              fmt("%llu", (unsigned long long)idcb_round_trip), "~14270"});
    t.addRow({"Plain VMCALL exit+resume (non-SNP VM)",
              fmt("%llu", (unsigned long long)plain_cost), "~1100"});
    t.print();

    note("");
    note(fmt("SNP state save/restore makes a switch %.1fx a plain exit "
             "(paper: ~6.5x).",
             double(per_switch) / double(plain_cost)));

    jsonMetric("veil_domain_switch_cycles", double(per_switch), "cycles");
    jsonMetric("idcb_round_trip_cycles", double(idcb_round_trip), "cycles");
    jsonMetric("plain_vmcall_exit_cycles", double(plain_cost), "cycles");

    printVmStats(vm.machine());

    scaleSweep();

    traceFinish(vm.machine());
    return gateFinish();
}
