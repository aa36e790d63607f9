#include "sdk/chaos_soak.hh"

#include <algorithm>
#include <cstdlib>

#include "base/log.hh"

namespace veil::sdk {

using namespace snp;
using namespace kern;

namespace {

/// Planted in private process memory; must never surface in a shared page.
constexpr char kSecret[] = "VEIL-SOAK-SECRET-c9b2f4e8a1d7";
/// Hitting this many exits is the livelock verdict.
constexpr uint64_t kExitCap = 200'000;

/** Fill the counters every chaos run reports. */
void
collect(VeilVm &vm, const chaos::FaultInjector &inj, SoakOutcome &out)
{
    out.haltReason = vm.machine().haltInfo().reason;
    out.faults = inj.stats();
    const KernelStats &s = vm.kernel().stats();
    out.produced = s.auditRecords;
    out.stored = vm.services().log().recordCount();
    out.storeDrops = vm.services().log().droppedRecords();
    out.pending = vm.kernel().opRingPending(0);
    out.finalTsc = vm.machine().tsc();
    const MachineStats &m = vm.machine().stats();
    out.guestRetries = m.hypercallRetries + m.switchRetries +
                       m.switchDeniedRetries + m.idcbResends;
    out.records = vm.services().log().snapshotRecords();
    out.auditLeaked = sharedPagesContain(vm, "msg=audit(", 10);
}

} // namespace

VmConfig
soakConfig()
{
    LogConfig::setThreshold(LogLevel::Silent);
    VmConfig cfg;
    cfg.machine.memBytes = 32 * 1024 * 1024;
    cfg.machine.numVcpus = 1;
    cfg.logBytes = 128 * 1024;
    cfg.kernel.auditBackend = AuditBackend::VeilLogBatched;
    cfg.kernel.auditRules = priorWorkAuditRuleset();
    cfg.kernel.opBatchSize = 8;
    cfg.kernel.opFlushDeadlineCycles = 200'000;
    return cfg;
}

SoakOutcome
runSoakSeed(uint64_t seed, bool huge_pages)
{
    VmConfig cfg = soakConfig();
    if (huge_pages) {
        // 2 MiB RMP entries: the fault mixture forces runtime smashes.
        cfg.machine.hugePages = true;
        cfg.kernel.lazyAccept = true;
    }
    if (seed % 2 == 0) {
        cfg.kernel.auditBackend = AuditBackend::VeilLog;
        cfg.kernel.serviceBatching = true;
    }
    VeilVm vm(cfg);
    chaos::FaultPlan plan = chaos::FaultPlan::forSeed(seed);
    // RMP flips target DomUNT memory but spare the op rings (directed
    // ring-flip tests cover those) so flipped seeds still exercise the
    // accounting invariant instead of halting instantly.
    plan.rmpFlipLo = vm.layout().kernelBase;
    plan.rmpFlipHi = vm.layout().opRingBase;
    chaos::FaultInjector inj(plan);
    vm.hypervisor().setFaultInjector(&inj);
    vm.hypervisor().setExitCap(kExitCap);
    const uint64_t quantum = vm.machine().costs().timerQuantum();

    SoakOutcome out;
    out.run = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        Gva hideout = env.alloc(4096);
        env.copyIn(hideout, kSecret, sizeof(kSecret));
        int fd = int(env.creat("/soak.bin"));
        Gva buf = env.alloc(4096);
        for (int i = 0; i < 8; ++i)
            env.write(fd, buf, 64 + 8 * i);
        env.close(fd);
        for (int i = 0; i < 8; ++i)
            env.close(999);
        // An enclave session: restricted-GHCB switches, interrupt
        // redirects, and in-session (sync-fallback) audit.
        EnclaveHost host(env, vm.programs());
        if (!host.create([quantum](Env &e) -> int64_t {
                for (int i = 0; i < 4; ++i)
                    e.close(999);
                e.burn(2 * quantum + 123);
                return 7;
            })) {
            out.createFailed = true;
            return;
        }
        out.enclaveRet = host.call();
        for (int i = 0; i < 4; ++i)
            env.close(999);
    });
    collect(vm, inj, out);
    out.secretLeaked = sharedPagesContain(vm, kSecret, sizeof(kSecret) - 1);
    return out;
}

SoakOutcome
runDirected(chaos::FaultPlan plan, bool flip_op_ring)
{
    VeilVm vm(soakConfig());
    if (flip_op_ring) {
        plan.rmpFlipLo = vm.layout().opSubRing(0);
        plan.rmpFlipHi = plan.rmpFlipLo + kPageSize;
    }
    chaos::FaultInjector inj(plan);
    vm.hypervisor().setFaultInjector(&inj);
    vm.hypervisor().setExitCap(kExitCap);
    SoakOutcome out;
    out.run = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        int fd = int(env.creat("/d.bin"));
        Gva buf = env.alloc(4096);
        for (int i = 0; i < 6; ++i)
            env.write(fd, buf, 100);
        env.close(fd);
        for (int i = 0; i < 10; ++i)
            env.close(999);
    });
    collect(vm, inj, out);
    return out;
}

std::vector<std::string>
soakViolations(const SoakOutcome &r)
{
    std::vector<std::string> v;
    if (r.run.exitCapHit)
        v.push_back("livelock: exit cap hit");
    if (!r.run.terminated && !r.run.halted)
        v.push_back("neither terminated nor halted");
    if (r.run.halted && r.haltReason.empty())
        v.push_back("halt without attributed reason");
    if (r.run.terminated && (r.createFailed || r.enclaveRet != 7))
        v.push_back("enclave result corrupted");
    if (r.run.terminated && r.accounted() != r.produced) {
        v.push_back(strfmt("audit gap: %llu accounted vs %llu produced",
                           (unsigned long long)r.accounted(),
                           (unsigned long long)r.produced));
    }
    if (!r.run.terminated && r.stored + r.storeDrops > r.produced)
        v.push_back("audit stream invented records");
    uint64_t last = 0;
    for (const auto &rec : r.records) {
        uint64_t seq = auditRecordSeq(rec);
        if (seq <= last) {
            v.push_back("non-monotonic stored record: " + rec);
            break;
        }
        last = seq;
    }
    if (r.secretLeaked)
        v.push_back("planted secret in a shared page");
    if (r.auditLeaked)
        v.push_back("audit plaintext in a shared page");
    return v;
}

uint64_t
auditRecordSeq(const std::string &rec)
{
    size_t open = rec.find("audit(");
    size_t colon = rec.find(':', open);
    if (open == std::string::npos || colon == std::string::npos)
        return 0;
    return strtoull(rec.c_str() + colon + 1, nullptr, 10);
}

bool
sharedPagesContain(VeilVm &vm, const void *needle, size_t n)
{
    const uint8_t *pat = static_cast<const uint8_t *>(needle);
    std::vector<uint8_t> page(kPageSize);
    for (Gpa p = 0; p < vm.config().machine.memBytes; p += kPageSize) {
        if (!vm.machine().rmp().isShared(p))
            continue;
        vm.machine().memory().read(p, page.data(), kPageSize);
        if (std::search(page.begin(), page.end(), pat, pat + n) !=
            page.end())
            return true;
    }
    return false;
}

} // namespace veil::sdk
