/**
 * @file
 * Fig. 6 + Table 5: secure system-call auditing overhead (CS3). Five
 * application analogues run with (a) auditing off, (b) Kaudit keeping
 * records in kernel memory, and (c) VeilS-LOG execute-ahead protection.
 * The auditctl ruleset follows the prior-work configuration the paper
 * cites; benchmark load drivers (memaslap / ab) are outside the audited
 * set, as in the paper's testbed.
 *
 * Wall-clock overhead is normalized by the paper's worker counts
 * (Table 5: memcached 4 workers, NGINX 2): audit work parallelizes
 * across workers on the paper's 4-VCPU guest, while this simulator
 * serializes on one VCPU.
 */
#include "common.hh"

#include <functional>

#include "base/log.hh"
#include "workloads/vcached.hh"
#include "workloads/vcrypt.hh"
#include "workloads/vdb.hh"
#include "workloads/vhttpd.hh"
#include "workloads/vzip.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;
using namespace veil::wl;
using kern::AuditBackend;

namespace {

struct AuditRun
{
    uint64_t cycles = 0;
    uint64_t records = 0;
};

struct AppSpec
{
    const char *name;
    const char *table5;
    int workers; ///< paper worker threads (normalization)
    const char *paperKaudit;
    const char *paperVeil;
    const char *paperRate;
    std::function<void(kern::Kernel &, kern::Process &)> run;
};

struct AblationRun
{
    uint64_t cycles = 0;   ///< wall cycles for the audited-syscall loop
    uint64_t records = 0;  ///< audit records produced by the loop
    uint64_t switches = 0; ///< domain switches during the loop
    uint64_t flushes = 0;  ///< doorbells that drained audit records
    uint64_t drops = 0;    ///< transport drops (must stay 0 here)
    std::vector<std::string> stream; ///< stored records, TSC blanked
};

/**
 * Blank the TSC-derived timestamp inside "msg=audit(SS.MMM:seq)":
 * batched appends are cheaper than execute-ahead round trips, so the
 * clocks differ while sequence, syscall, args, and identity must not.
 */
std::string
normalized(const std::string &rec)
{
    size_t open = rec.find("audit(");
    size_t colon = rec.find(':', open);
    if (open == std::string::npos || colon == std::string::npos)
        return rec;
    return rec.substr(0, open + 6) + rec.substr(colon);
}

/**
 * Batch-size ablation driver: a tight loop of cheap audited syscalls
 * (close on a bad fd — in the prior-work ruleset, fails fast, and
 * execute-ahead records it regardless), so the measured cycles are
 * dominated by the audit path itself.
 */
AblationRun
runAblation(AuditBackend backend, uint32_t batch)
{
    constexpr int kOps = 4000;
    VmConfig cfg = veilConfig(64);
    cfg.kernel.auditBackend = backend;
    cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
    cfg.kernel.opBatchSize = batch;
    VeilVm vm(cfg);
    AblationRun out;
    auto r = vm.run([&](kern::Kernel &k, kern::Process &p) {
        NativeEnv env(k, p);
        env.close(999); // warm up lazy state outside the window
        uint64_t rec0 = k.stats().auditRecords;
        uint64_t sw0 = vm.hypervisor().stats().domainSwitches;
        uint64_t t0 = k.cpu().rdtsc();
        for (int i = 0; i < kOps; ++i)
            env.close(999);
        out.cycles = k.cpu().rdtsc() - t0;
        out.switches = vm.hypervisor().stats().domainSwitches - sw0;
        out.records = k.stats().auditRecords - rec0;
        out.flushes = k.stats().auditBatchFlushes;
        out.drops = k.stats().auditRingDrops;
    });
    for (const std::string &rec : vm.services().log().snapshotRecords())
        out.stream.push_back(normalized(rec));
    ensure(r.terminated, "audit ablation CVM failed");
    ensure(backend == AuditBackend::None || out.records == kOps,
           "audit ablation: record count drifted");
    if (backend == AuditBackend::None)
        out.records = kOps; // per-record normalization for the baseline
    return out;
}

AuditRun
runWith(const AppSpec &app, AuditBackend backend)
{
    VmConfig cfg = veilConfig(96);
    cfg.kernel.auditBackend = backend;
    cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
    VeilVm vm(cfg);
    AuditRun out;
    auto r = vm.run([&](kern::Kernel &k, kern::Process &p) {
        uint64_t t0 = k.cpu().rdtsc();
        app.run(k, p);
        out.cycles = k.cpu().rdtsc() - t0;
        out.records = k.stats().auditRecords;
    });
    ensure(r.terminated, "audit bench CVM failed");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_audit");
    heading("Fig. 6 + Table 5: secure system auditing with VeilS-LOG "
            "(paper: VeilS-LOG 1.4-18.7%, Kaudit(IM) 0.3-8.7%)");

    const AppSpec apps[] = {
        {"OpenSSL", "pts/openssl-style crypto battery (1400 tests)", 1,
         "~0.3%", "~1.4%", "1.5k/s",
         [](kern::Kernel &k, kern::Process &p) {
             NativeEnv env(k, p);
             VcryptParams prm;
             prm.tests = 1400;
             prm.testsPerPrint = 64;
             prm.blockBytes = 3072;
             runVcrypt(env, prm);
         }},
        {"7-Zip", "pts/compress-7zip-style: compress 2MB in 64KB chunks", 1,
         "~0.4%", "~2%", "1.8k/s",
         [](kern::Kernel &k, kern::Process &p) {
             NativeEnv env(k, p);
             VzipParams prm;
             prm.chunkBytes = 64 * 1024;
             prm.cyclesPerByte = 58;
             vzipPrepare(env, prm, 2 * 1024 * 1024);
             runVzip(env, prm);
         }},
        {"Memcached", "4 workers, memaslap 90:10 GET:SET, 1KB values", 4,
         "~4%", "~15%", "61k/s",
         [](kern::Kernel &k, kern::Process &p) {
             NativeEnv server(k, p);
             kern::Process &cp = k.makeProcess("memaslap");
             cp.audited = false; // load driver outside the audited set
             NativeEnv client(k, cp);
             VcachedParams prm;
             prm.ops = 12000;
             prm.serverCyclesPerOp = 35000;
             prm.clientCyclesPerOp = 8000;
             VcachedResult r = runVcachedNative(server, client, prm);
             ensure(r.gets + r.sets == prm.ops, "vcached failed");
         }},
        {"SQLite", "pts/sqlite-speedtest-style: 6k inserts, 16 rows/tx", 1,
         "~0.5%", "~3%", "2.3k/s",
         [](kern::Kernel &k, kern::Process &p) {
             NativeEnv env(k, p);
             VdbParams prm;
             prm.inserts = 6000;
             prm.insertsPerTx = 16;
             prm.cyclesPerInsert = 22000;
             runVdb(env, prm);
         }},
        {"NGINX", "2 workers, ab, 2000 requests of 10KB files", 2,
         "~8.7%", "~18.7%", "38k/s",
         [](kern::Kernel &k, kern::Process &p) {
             NativeEnv server(k, p);
             kern::Process &cp = k.makeProcess("ab");
             cp.audited = false;
             NativeEnv client(k, cp);
             VhttpdParams prm;
             prm.requests = 800;
             prm.port = 8088;
             prm.serverCyclesPerReq = 150000;
             prm.clientCyclesPerReq = 100000;
             vhttpdPrepare(server, prm);
             VhttpdResult r = runVhttpdNative(server, client, prm);
             ensure(r.completed == prm.requests, "vhttpd failed");
         }},
    };

    Table t5("Table 5: settings for auditing real-world programs",
             {"Program", "Parameters"});
    for (const auto &app : apps)
        t5.addRow({app.name, app.table5});
    t5.print();

    Table t("Fig. 6 data (wall-clock overhead, normalized by worker "
            "count)",
            {"Program", "Kaudit(IM)", "VeilS-LOG", "Log rate", "Paper "
             "Kaudit", "Paper Veil", "Paper rate"});
    double veil_pct[5], kaudit_pct[5];
    uint64_t rates[5];
    for (size_t i = 0; i < 5; ++i) {
        AuditRun native = runWith(apps[i], AuditBackend::None);
        AuditRun kaudit = runWith(apps[i], AuditBackend::KauditInMemory);
        AuditRun veil = runWith(apps[i], AuditBackend::VeilLog);
        double w = apps[i].workers;
        kaudit_pct[i] =
            overheadPct(double(kaudit.cycles), double(native.cycles)) / w;
        veil_pct[i] =
            overheadPct(double(veil.cycles), double(native.cycles)) / w;
        // Log production rate under Veil (records per wall-clock second
        // with the audit work spread over the paper's worker count).
        double secs = 2.4e9;
        rates[i] = uint64_t(double(veil.records) /
                            (double(veil.cycles) / w / secs));
        t.addRow({apps[i].name, fmt("%.1f%%", kaudit_pct[i]),
                  fmt("%.1f%%", veil_pct[i]),
                  fmt("%.1fk/s", rates[i] / 1000.0), apps[i].paperKaudit,
                  apps[i].paperVeil, apps[i].paperRate});
    }
    t.print();

    std::printf("\nFig. 6 (performance overhead %%; K = Kaudit(IM), "
                "V = VeilS-LOG):\n");
    double max_v = 0;
    for (size_t i = 0; i < 5; ++i)
        max_v = std::max(max_v, veil_pct[i]);
    for (size_t i = 0; i < 5; ++i) {
        printBar(std::string(apps[i].name) + " K", kaudit_pct[i], max_v,
                 fmt("%.1f%%", kaudit_pct[i]));
        printBar(std::string(apps[i].name) + " V", veil_pct[i], max_v,
                 fmt("%.1f%%", veil_pct[i]));
    }

    note("");
    note("VeilS-LOG pays one IDCB round trip per record (execute-ahead,");
    note("§6.3); Kaudit(IM) pays only an in-kernel append. The gap");
    note("tracks each program's audited-syscall rate, as in the paper.");

    // ---- Batched-audit ablation (DESIGN.md §11) ----

    heading("Batched-audit ablation: op-ring batch size vs per-record "
            "audit cost");

    AblationRun none = runAblation(AuditBackend::None, 32);
    AblationRun kaudit = runAblation(AuditBackend::KauditInMemory, 32);
    AblationRun veil = runAblation(AuditBackend::VeilLog, 32);

    auto per_rec = [&](const AblationRun &run) {
        return double(run.cycles - none.cycles) / double(run.records);
    };
    auto per_rec_sw = [&](const AblationRun &run) {
        return double(run.switches) / double(run.records);
    };

    const uint32_t batches[] = {4, 8, 16, 32, 64};
    Table abl("Audit backends, 4000 cheap audited syscalls "
              "(cycles/record exclude the un-audited syscall itself)",
              {"Backend", "cycles/record", "switches/record", "flushes",
               "vs execute-ahead"});
    abl.addRow({"Kaudit(IM)", fmt("%.0f", per_rec(kaudit)),
                fmt("%.4f", per_rec_sw(kaudit)), "-",
                fmt("%.1fx", per_rec(veil) / per_rec(kaudit))});
    abl.addRow({"VeilS-LOG execute-ahead", fmt("%.0f", per_rec(veil)),
                fmt("%.4f", per_rec_sw(veil)), "-", "1.0x"});
    jsonMetric("audit.kaudit.cycles_per_record", per_rec(kaudit), "cycles");
    jsonMetric("audit.kaudit.switches_per_record", per_rec_sw(kaudit));
    jsonMetric("audit.veillog.cycles_per_record", per_rec(veil), "cycles");
    jsonMetric("audit.veillog.switches_per_record", per_rec_sw(veil));

    double batched32_sw = 0, batched32_cyc = 0;
    double max_cyc = per_rec(veil);
    std::vector<std::pair<uint32_t, AblationRun>> sweep;
    for (uint32_t b : batches) {
        AblationRun run = runAblation(AuditBackend::VeilLogBatched, b);
        ensure(run.drops == 0, "audit ablation: batched mode dropped");
        ensure(run.stream == veil.stream,
               "audit ablation: batched stream differs from execute-ahead");
        sweep.emplace_back(b, run);
        abl.addRow({fmt("VeilS-LOG batched (batch %u)", b),
                    fmt("%.0f", per_rec(run)), fmt("%.4f", per_rec_sw(run)),
                    fmt("%llu", (unsigned long long)run.flushes),
                    fmt("%.1fx", per_rec(veil) / per_rec(run))});
        jsonMetric(fmt("audit.batch%u.cycles_per_record", b).c_str(),
                   per_rec(run), "cycles");
        jsonMetric(fmt("audit.batch%u.switches_per_record", b).c_str(),
                   per_rec_sw(run));
        if (b == 32) {
            batched32_sw = per_rec_sw(run);
            batched32_cyc = per_rec(run);
        }
    }
    abl.print();

    std::printf("\nPer-record audit cost (cycles; EA = execute-ahead):\n");
    printBar("Kaudit(IM)", per_rec(kaudit), max_cyc,
             fmt("%.0f", per_rec(kaudit)));
    printBar("VeilS-LOG EA", per_rec(veil), max_cyc,
             fmt("%.0f", per_rec(veil)));
    for (const auto &[b, run] : sweep) {
        printBar(fmt("batched %2u", b), per_rec(run), max_cyc,
                 fmt("%.0f", per_rec(run)));
    }

    double reduction = per_rec_sw(veil) / batched32_sw;
    jsonMetric("audit.switch_reduction_at_32", reduction, "x");
    note("");
    note(fmt("Batch 32 makes %.1fx fewer domain switches per audited "
             "syscall than execute-ahead (%.4f vs %.4f), closing %.0f%% "
             "of the gap to Kaudit(IM).",
             reduction, batched32_sw, per_rec_sw(veil),
             100.0 * (per_rec(veil) - batched32_cyc) /
                 (per_rec(veil) - per_rec(kaudit))));
    note("Every batched stream matches execute-ahead record for record.");
    note("The trade: up to one batch of records is unprotected if the");
    note("kernel is compromised mid-window (bounded loss; DESIGN.md §11).");
    gate("audit.veillog.switches_per_record", per_rec_sw(veil), ">=", 2);
    gate("audit.switch_reduction_at_32", reduction, ">=", 5);
    return gateFinish();
}
