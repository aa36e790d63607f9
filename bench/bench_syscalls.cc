/**
 * @file
 * Fig. 4 + Table 3: cost of redirecting popular system calls from a
 * VeilS-ENC enclave to the outside world. Each op runs natively in the
 * CVM and inside an enclave; the paper reports factors of 3.3x - 7.1x.
 */
#include "common.hh"

#include "base/log.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;
using namespace veil::kern;
using snp::Gva;

namespace {

enum class Op { Open, Read, Write, Mmap, Munmap, Socket, Printf };

struct OpInfo
{
    Op op;
    const char *name;
    const char *params; // Table 3 row
};

const OpInfo kOps[] = {
    {Op::Open, "open", "Open a text file with read and write permissions"},
    {Op::Read, "read", "Read 10 KB from a file to a memory-mapped region"},
    {Op::Write, "write", "Write 10 KB from a memory-mapped region to a file"},
    {Op::Mmap, "mmap", "Map a 10KB region using the NULL file descriptor"},
    {Op::Munmap, "munmap", "Unmap the 10KB region previously-mapped"},
    {Op::Socket, "socket", "Open a socket using AF_INET and SOCKSTREAM"},
    {Op::Printf, "printf", "Print a \"Hello World!\" message to the console"},
};

constexpr int kIters = 200;
constexpr size_t kTenKb = 10 * 1024;

/** Average cycles per op in the given environment. */
uint64_t
measureOp(Env &env, Op op)
{
    uint64_t total = 0;
    switch (op) {
      case Op::Open: {
          env.close(int(env.creat("/bench.txt")));
          for (int i = 0; i < kIters; ++i) {
              uint64_t t0 = env.tsc();
              int64_t fd = env.open("/bench.txt", kO_RDWR);
              total += env.tsc() - t0;
              env.close(int(fd));
          }
          break;
      }
      case Op::Read: {
          int fd = int(env.open("/bench10k.bin", kO_RDONLY));
          int64_t buf = env.mmap(kTenKb, kPROT_READ | kPROT_WRITE);
          for (int i = 0; i < kIters; ++i) {
              uint64_t t0 = env.tsc();
              env.pread(fd, Gva(buf), kTenKb, 0);
              total += env.tsc() - t0;
          }
          env.close(fd);
          env.munmap(Gva(buf), kTenKb);
          break;
      }
      case Op::Write: {
          int fd = int(env.open("/bench10k.bin", kO_RDWR));
          int64_t buf = env.mmap(kTenKb, kPROT_READ | kPROT_WRITE);
          for (int i = 0; i < kIters; ++i) {
              uint64_t t0 = env.tsc();
              env.pwrite(fd, Gva(buf), kTenKb, 0);
              total += env.tsc() - t0;
          }
          env.close(fd);
          env.munmap(Gva(buf), kTenKb);
          break;
      }
      case Op::Mmap: {
          for (int i = 0; i < kIters; ++i) {
              uint64_t t0 = env.tsc();
              int64_t va = env.mmap(kTenKb, kPROT_READ | kPROT_WRITE);
              total += env.tsc() - t0;
              env.munmap(Gva(va), kTenKb);
          }
          break;
      }
      case Op::Munmap: {
          for (int i = 0; i < kIters; ++i) {
              int64_t va = env.mmap(kTenKb, kPROT_READ | kPROT_WRITE);
              uint64_t t0 = env.tsc();
              env.munmap(Gva(va), kTenKb);
              total += env.tsc() - t0;
          }
          break;
      }
      case Op::Socket: {
          for (int i = 0; i < kIters; ++i) {
              uint64_t t0 = env.tsc();
              int64_t fd = env.socket();
              total += env.tsc() - t0;
              env.close(int(fd));
          }
          break;
      }
      case Op::Printf: {
          for (int i = 0; i < kIters; ++i) {
              uint64_t t0 = env.tsc();
              env.printf("Hello World!\n");
              total += env.tsc() - t0;
          }
          break;
      }
    }
    return total / kIters;
}

void
prepareFiles(Env &env)
{
    int fd = int(env.creat("/bench10k.bin"));
    Gva buf = env.alloc(kTenKb);
    env.write(fd, buf, kTenKb);
    env.close(fd);
    env.release(buf, kTenKb);
}

// ---- Exit-less service-call ablation (DESIGN.md §11) ----

struct BatchRun
{
    uint64_t cycles = 0;    ///< wall cycles for the service-call loop
    uint64_t records = 0;   ///< audit records (one per loop iteration)
    uint64_t switches = 0;  ///< domain switches during the loop
    uint64_t doorbells = 0; ///< op-ring doorbells rung
    uint64_t fallbacks = 0; ///< ring-full sync fallbacks (stay 0 here)
    uint64_t saved = 0;     ///< domain switches the op ring saved
};

/**
 * Service-batching ablation driver: a tight loop of cheap audited
 * syscalls under the execute-ahead VeilLog backend, so every iteration
 * is one LogAppend service call. Sync mode pays an IDCB round trip
 * (two domain switches) per call; batched mode queues the deferrable
 * op in the VeilOp ring and rings one doorbell per batch.
 */
BatchRun
runBatchAblation(bool batched, uint32_t batch, bool print_stats = false)
{
    constexpr int kLoopOps = 4000;
    VmConfig cfg = veilConfig(64);
    cfg.kernel.auditBackend = kern::AuditBackend::VeilLog;
    cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
    cfg.kernel.serviceBatching = batched;
    cfg.kernel.opBatchSize = batch;
    VeilVm vm(cfg);
    BatchRun out;
    auto r = vm.run([&](kern::Kernel &k, kern::Process &p) {
        NativeEnv env(k, p);
        env.close(999); // warm up lazy state outside the window
        uint64_t rec0 = k.stats().auditRecords;
        uint64_t sw0 = vm.hypervisor().stats().domainSwitches;
        uint64_t t0 = k.cpu().rdtsc();
        for (int i = 0; i < kLoopOps; ++i)
            env.close(999);
        k.opRingBarrier(); // charge the tail flush inside the window
        out.cycles = k.cpu().rdtsc() - t0;
        out.switches = vm.hypervisor().stats().domainSwitches - sw0;
        out.records = k.stats().auditRecords - rec0;
        out.doorbells = k.stats().opDoorbells;
        out.fallbacks = k.stats().opSyncFallbacks;
        out.saved = opRingSwitchesSaved(k.stats());
        if (print_stats)
            printVmStats(vm.machine(), k, fmt("syscalls.batch%u.", batch));
    });
    ensure(r.terminated, "syscall batching ablation CVM failed");
    ensure(out.records == kLoopOps,
           "syscall batching ablation: record count drifted");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_syscalls");
    heading("Fig. 4 + Table 3: enclave system call redirection cost "
            "(paper: 3.3x - 7.1x)");

    Table params("Table 3: benchmark parameters", {"Benchmark", "Parameters"});
    for (const auto &info : kOps)
        params.addRow({info.name, info.params});
    params.print();

    VmConfig cfg = veilConfig(48);
    cfg.machine.interruptsEnabled = false; // clean per-op timing
    VeilVm vm(cfg);

    uint64_t native_cycles[7] = {};
    uint64_t enclave_cycles[7] = {};
    vm.run([&](kern::Kernel &k, kern::Process &p) {
        NativeEnv env(k, p);
        prepareFiles(env);
        for (size_t i = 0; i < 7; ++i)
            native_cycles[i] = measureOp(env, kOps[i].op);

        EnclaveHost host(env, vm.programs());
        size_t which = 0;
        ensure(host.create([&](Env &e) -> int64_t {
            return static_cast<int64_t>(measureOp(e, kOps[which].op));
        }),
               "enclave create failed");
        for (which = 0; which < 7; ++which)
            enclave_cycles[which] = uint64_t(host.call());
        host.destroy();
    });

    Table t("Fig. 4 data: per-syscall cost, native vs enclave",
            {"Syscall", "Native (cyc)", "Enclave (cyc)", "Factor",
             "Paper band"});
    double max_factor = 0;
    double factors[7];
    for (size_t i = 0; i < 7; ++i) {
        factors[i] = double(enclave_cycles[i]) / double(native_cycles[i]);
        max_factor = std::max(max_factor, factors[i]);
    }
    for (size_t i = 0; i < 7; ++i) {
        t.addRow({kOps[i].name,
                  fmt("%llu", (unsigned long long)native_cycles[i]),
                  fmt("%llu", (unsigned long long)enclave_cycles[i]),
                  fmt("%.1fx", factors[i]), "3.3x - 7.1x"});
    }
    t.print();

    std::printf("\nFig. 4 (performance overhead, times):\n");
    for (size_t i = 0; i < 7; ++i)
        printBar(kOps[i].name, factors[i], max_factor,
                 fmt("%.1fx", factors[i]));

    note("");
    note("Each enclave syscall pays two 7135-cycle domain switches plus");
    note("spec-driven argument deep copies (§6.2); cheap calls (socket,");
    note("printf) show the largest factor, large-copy calls amortize.");

    printVmStats(vm.machine(), vm.kernel());
    traceFinish(vm.machine());

    // ---- Exit-less service calls: sync vs batched (DESIGN.md §11) ----

    heading("Exit-less service-call ablation: VeilOp ring batch size vs "
            "per-call cost");

    BatchRun sync = runBatchAblation(false, 16);
    auto per_op = [](const BatchRun &run) {
        return double(run.cycles) / double(run.records);
    };
    auto per_op_sw = [](const BatchRun &run) {
        return double(run.switches) / double(run.records);
    };

    Table abl("VeilLog service calls, 4000 cheap audited syscalls",
              {"Mode", "cycles/call", "switches/call", "doorbells",
               "vs sync"});
    abl.addRow({"sync (execute-ahead IDCB)", fmt("%.0f", per_op(sync)),
                fmt("%.4f", per_op_sw(sync)), "-", "1.0x"});
    jsonMetric("syscalls.sync.cycles_per_call", per_op(sync), "cycles");
    jsonMetric("syscalls.sync.switches_per_call", per_op_sw(sync));

    double sw16 = 0;
    uint64_t saved16 = 0;
    std::vector<std::pair<uint32_t, BatchRun>> sweep;
    for (uint32_t b : {4u, 16u, 64u}) {
        BatchRun run = runBatchAblation(true, b, /*print_stats=*/b == 16);
        ensure(run.fallbacks == 0,
               "syscall batching ablation: unexpected sync fallbacks");
        sweep.emplace_back(b, run);
        abl.addRow({fmt("batched (batch %u)", b), fmt("%.0f", per_op(run)),
                    fmt("%.4f", per_op_sw(run)),
                    fmt("%llu", (unsigned long long)run.doorbells),
                    fmt("%.1fx", per_op(sync) / per_op(run))});
        jsonMetric(fmt("syscalls.batch%u.cycles_per_call", b).c_str(),
                   per_op(run), "cycles");
        jsonMetric(fmt("syscalls.batch%u.switches_per_call", b).c_str(),
                   per_op_sw(run));
        if (b == 16) {
            sw16 = per_op_sw(run);
            saved16 = run.saved;
        }
    }
    abl.print();

    std::printf("\nPer-service-call cost (cycles):\n");
    double max_cyc = per_op(sync);
    printBar("sync", per_op(sync), max_cyc, fmt("%.0f", per_op(sync)));
    for (const auto &[b, run] : sweep)
        printBar(fmt("batched %2u", b), per_op(run), max_cyc,
                 fmt("%.0f", per_op(run)));

    double reduction = per_op_sw(sync) / sw16;
    jsonMetric("syscalls.switch_reduction_at_16", reduction, "x");
    note("");
    note(fmt("Batch 16 makes %.1fx fewer domain switches per service call "
             "than sync (%.4f vs %.4f).",
             reduction, sw16, per_op_sw(sync)));
    note("The trade: deferrable ops complete after the syscall returns;");
    note("sync calls and enclave entry drain the ring first (§11).");
    gate("syscalls.sync.switches_per_call", per_op_sw(sync), ">=", 2);
    gate("syscalls.switch_reduction_at_16", reduction, ">=", 5);
    gate("syscalls.batch16.kernel.opring.switchesSaved", double(saved16),
         ">", 0);
    return gateFinish();
}
