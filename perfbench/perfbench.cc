/**
 * @file
 * End-to-end benchmark program. One single-threaded process runs one
 * workload on a 256 MiB, 2-VCPU Veil CVM as a closed loop: one client,
 * each op starts when the previous one returns.
 *
 *   shielded_http     one EnclaveHost::call into a long-lived enclave
 *                     running wl::HttpServer: 100 GETs of 10 KB files,
 *                     an ab-style wl::HttpClient pumped from the ocall
 *                     hook.
 *   clone_churn       one CoW clone session: makeProcess, clone a
 *                     sealed template, Zipf(1..8) calls, destroy, reap.
 *                     A fresh CVM serves every 50 sessions.
 *   auditor_sessions  an audited wl::runVkv batch under VeilLogBatched,
 *                     then one RemoteUser session that attests, fetches
 *                     every new record, clears the log and tears down.
 *
 * The system is driven only through its public calls; every timing is
 * taken here, around those calls. Usage:
 *
 *   veil_perfbench --workload <name> --seed <n> [--seconds <s>]
 *                  [--window <ops>] [--max-ops <ops>] [--traced]
 *                  [--spans <file>]
 *
 * The run measures ops until --seconds have passed (and at least
 * --window ops are done), or until --max-ops ops are done. Simulated
 * counts are taken over the first --window ops only, so they are
 * identical on every run of one seed however fast the host is. The
 * last line of stdout is one JSON object with the raw results;
 * perfbench/run.py turns it into the benchmark's metrics.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/log.hh"
#include "base/rng.hh"
#include "crypto/stats.hh"
#include "fleet/fleet.hh"
#include "sdk/remote.hh"
#include "sdk/vm.hh"
#include "workloads/vhttpd.hh"
#include "workloads/vkv.hh"

using namespace veil;
using Clock = std::chrono::steady_clock;

namespace {

/// Taken during static initialisation, before main: the set-up clock
/// starts at process start, not at argument parsing.
const Clock::time_point gStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now() - gStart)
        .count();
}

// ---------------------------------------------------------------------
// Host-speed probe. This host shares its cores: for seconds at a time
// busy neighbours slow every thread here by up to 1.7x, so raw op times
// say as much about the neighbours as about the program. After every op
// (outside its timing) the benchmark runs this fixed probe of its own,
// which does not call the library: five small kernels (integer chains,
// a schoolbook multi-word multiply, an L2-resident streaming sum, a
// branchy byte scan and 10 KB memcpys), all within ~200 KB so the
// program's caches are barely disturbed. perfbench/run.py scales each
// op's time by how much slower than a reference the probe ran around it.
// ---------------------------------------------------------------------

class HostProbe
{
  public:
    HostProbe() : stream_(16 * 1024), copyA_(64 * 1024), copyB_(64 * 1024)
    {
        uint64_t x = 0x9E3779B97F4A7C15ull;
        for (uint64_t &v : stream_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = x;
        }
        for (int i = 0; text_.size() < 16 * 1024; ++i)
            text_ += "GET /doc" + std::to_string(i % 16) +
                     ".html HTTP/1.0\r\nHost: veil\r\n\r\n";
    }

    /** Run the kernels once; returns their wall time in µs. */
    double
    run()
    {
        Clock::time_point t0 = Clock::now();
        sink_ = sink_ + chains() + multiply() + streamSum() + scan() + copy();
        return std::chrono::duration<double, std::micro>(Clock::now() - t0)
            .count();
    }

  private:
    uint64_t
    chains()
    {
        uint64_t a = 1, b = 2, c = 3, d = sink_;
        for (int i = 0; i < 60000; ++i) {
            a = a * 0x9E3779B97F4A7C15ull + b;
            b ^= a >> 17;
            c = c * 0xBF58476D1CE4E5B9ull + d;
            d ^= c >> 13;
        }
        return a + b + c + d;
    }

    uint64_t
    multiply()
    {
        uint64_t x[32], y[32], r[64] = {};
        for (int i = 0; i < 32; ++i) {
            x[i] = uint64_t(i) * 0x9E3779B97F4A7C15ull + sink_;
            y[i] = uint64_t(i) * 0xC2B2AE3D27D4EB4Full + 3;
        }
        for (int rep = 0; rep < 60; ++rep) {
            for (int i = 0; i < 32; ++i) {
                unsigned __int128 carry = 0;
                for (int j = 0; j < 32; ++j) {
                    unsigned __int128 v =
                        (unsigned __int128)x[i] * y[j] + r[i + j] + carry;
                    r[i + j] = uint64_t(v);
                    carry = v >> 64;
                }
                r[i + 32] = uint64_t(carry);
            }
            x[rep & 31] ^= r[rep & 63];
        }
        return r[17];
    }

    uint64_t
    streamSum()
    {
        uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (int rep = 0; rep < 6; ++rep)
            for (size_t i = 0; i + 3 < stream_.size(); i += 4) {
                s0 += stream_[i];
                s1 ^= stream_[i + 1];
                s2 += stream_[i + 2] >> 3;
                s3 ^= stream_[i + 3] << 1;
            }
        return s0 + s1 + s2 + s3;
    }

    uint64_t
    scan()
    {
        uint64_t tokens = 0, h = 0;
        for (int rep = 0; rep < 4; ++rep)
            for (char c : text_) {
                if (c == ' ')
                    ++tokens;
                else if (c == '\r' || c == '\n')
                    tokens += 2;
                else if (c >= '0' && c <= '9')
                    h = h * 10 + uint64_t(c - '0');
                else
                    h ^= uint64_t(uint8_t(c));
            }
        return tokens + h;
    }

    uint64_t
    copy()
    {
        const size_t n = 10 * 1024;
        for (size_t k = 0; k < 24; ++k) {
            size_t from = (k * 7 * n) % (copyA_.size() - n);
            size_t to = (k * 3 * n) % (copyB_.size() - n);
            std::memcpy(copyB_.data() + to, copyA_.data() + from, n);
            copyA_[from] = char(copyB_[to + 5] + 1);
        }
        return uint64_t(uint8_t(copyB_[100]));
    }

    std::vector<uint64_t> stream_;
    std::vector<char> copyA_, copyB_;
    std::string text_;
    volatile uint64_t sink_ = 1;
};

HostProbe gProbe;

// ---------------------------------------------------------------------
// Benchmark spans: one per public call the workloads make. Durations
// and self times (duration minus the time child spans cover) are summed
// per name for every op; full span records are kept for the first
// kKeptOps ops only and written out at exit, so a long run's span file
// stays small.
// ---------------------------------------------------------------------

enum class SpanName : uint8_t {
    Op,
    MakeProcess,
    Clone,
    EnclaveCall,
    ClientPump,
    Destroy,
    Reap,
    AuditBatch,
    ClientSetup,
    Establish,
    LogFetch,
    LogClear,
    Teardown,
    kCount,
};

constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

const char *const kSpanLabels[kSpanNames] = {
    "op",
    "kernel.makeProcess",
    "sdk.EnclaveHost.createFromSnapshot",
    "sdk.EnclaveHost.call",
    "wl.HttpClient.pump",
    "sdk.EnclaveHost.destroy",
    "kernel.reapProcess",
    "wl.runVkv",
    "sdk.RemoteUser.ctor",
    "sdk.RemoteUser.establishChannel",
    "sdk.RemoteUser.retrieveAllRecords",
    "sdk.RemoteUser.queryLogs.Clear",
    "sdk.RemoteUser.teardownChannel",
};

struct SpanRecord
{
    SpanName name;
    int64_t parent; ///< index into the kept records, -1 for none
    uint64_t op;
    double startUs;
    double endUs;
};

class SpanLog
{
  public:
    static constexpr uint64_t kKeptOps = 10;

    bool enabled = false;
    uint64_t op = 0;

    void
    begin(SpanName name)
    {
        if (!enabled)
            return;
        Open o{name, nowUs(), 0.0, -1};
        if (op < kKeptOps) {
            o.kept = static_cast<int64_t>(kept_.size());
            int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
            kept_.push_back({name, parent, op, o.start, 0.0});
        }
        stack_.push_back(o);
    }

    void
    end()
    {
        if (!enabled)
            return;
        Open o = stack_.back();
        stack_.pop_back();
        double t1 = nowUs();
        double dur = t1 - o.start;
        size_t n = static_cast<size_t>(o.name);
        total_[n] += dur;
        self_[n] += dur - o.children;
        if (!stack_.empty())
            stack_.back().children += dur;
        if (o.kept >= 0)
            kept_[static_cast<size_t>(o.kept)].endUs = t1;
    }

    double total(SpanName n) const { return total_[size_t(n)]; }
    double self(SpanName n) const { return self_[size_t(n)]; }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (size_t i = 0; i < kept_.size(); ++i) {
            const SpanRecord &s = kept_[i];
            char line[256];
            std::snprintf(line, sizeof(line),
                          "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,"
                          "\"parent\":%lld,\"start_us\":%.3f,"
                          "\"end_us\":%.3f}%s\n",
                          i, kSpanLabels[size_t(s.name)],
                          (unsigned long long)s.op, (long long)s.parent,
                          s.startUs, s.endUs,
                          i + 1 < kept_.size() ? "," : "");
            out << line;
        }
        out << "]\n";
    }

  private:
    struct Open
    {
        SpanName name;
        double start;
        double children;
        int64_t kept;
    };
    std::vector<Open> stack_;
    std::vector<SpanRecord> kept_;
    double total_[kSpanNames] = {};
    double self_[kSpanNames] = {};
};

SpanLog gSpans;

/** Scoped span around one call. */
struct Span
{
    explicit Span(SpanName n) { gSpans.begin(n); }
    ~Span() { gSpans.end(); }
};

// ---------------------------------------------------------------------
// Simulated counters over the count window.
// ---------------------------------------------------------------------

/// Named simulated counts; traced and untraced runs must agree on every
/// one of them exactly.
using Counts = std::vector<std::pair<std::string, uint64_t>>;

/** Accumulators the workloads fill while the count window is open. */
struct SimTally
{
    uint64_t ocalls = 0;
    uint64_t marshalCycles = 0;
    uint64_t cloneCycles = 0;
    uint64_t clones = 0;
    uint64_t establishCycles = 0;
    uint64_t establishes = 0;
    uint64_t auditRecords = 0;
    uint64_t auditSwitches = 0;
    uint64_t checksum = 0; ///< fold of every op's outputs
};

SimTally gTally;
bool gInWindow = false;

void
fold(uint64_t v)
{
    if (gInWindow)
        gTally.checksum = (gTally.checksum ^ v) * 0x100000001b3ULL;
}

Counts
snapshotCounts(sdk::VeilVm &vm)
{
    const snp::MachineStats &m = vm.machine().stats();
    const hv::HvStats &h = vm.hypervisor().stats();
    const kern::KernelStats &k = vm.kernel().stats();
    const crypto::CryptoStats &c = crypto::cryptoStats();
    return {
        {"tsc", vm.machine().tsc()},
        {"vm.entries", m.entries},
        {"vm.nonAutomaticExits", m.nonAutomaticExits},
        {"vm.automaticExits", m.automaticExits},
        {"vm.timerInterrupts", m.timerInterrupts},
        {"vm.rmpadjusts", m.rmpadjusts},
        {"vm.pvalidates", m.pvalidates},
        {"vm.tlb.hits", m.tlbHits},
        {"vm.tlb.misses", m.tlbMisses},
        {"vm.tlb.flushes", m.tlbFlushes},
        {"vm.tlb.shootdowns", m.tlbShootdowns},
        {"vm.vmsaSlots", vm.machine().vmsaCount()},
        {"hv.exits", h.exits},
        {"hv.domainSwitches", h.domainSwitches},
        {"hv.intrRedirects", h.intrRedirects},
        {"hv.pageStateChanges", h.pageStateChanges},
        {"hv.vmsaRegistrations", h.vmsaRegistrations},
        {"kernel.syscalls", k.syscalls},
        {"kernel.serviceCalls", k.serviceCalls},
        {"kernel.monitorCalls", k.monitorCalls},
        {"kernel.enclaveFaults", k.enclaveFaults},
        {"kernel.auditRecords", k.auditRecords},
        {"kernel.auditBatchFlushes", k.auditBatchFlushes},
        {"kernel.auditFlushedRecords", k.auditFlushedRecords},
        {"kernel.auditRingDrops", k.auditRingDrops},
        {"kernel.framesInUse", vm.kernel().frames().inUse()},
        {"crypto.aesKeySchedules", c.aesKeySchedules},
        {"crypto.hmacKeyInits", c.hmacKeyInits},
        {"crypto.sha256Blocks", c.sha256Blocks},
        {"sdk.ocalls", gTally.ocalls},
        {"sdk.marshalCycles", gTally.marshalCycles},
        {"veil.cloneCycles", gTally.cloneCycles},
        {"veil.clones", gTally.clones},
        {"attest.establishCycles", gTally.establishCycles},
        {"attest.establishes", gTally.establishes},
        {"audit.records", gTally.auditRecords},
        {"audit.switches", gTally.auditSwitches},
        {"ops.checksum", gTally.checksum},
    };
}

Counts
diffCounts(const Counts &a, const Counts &b)
{
    Counts d = b;
    for (size_t i = 0; i < d.size(); ++i) {
        // Gauges are reported as their end value, counters as deltas.
        if (d[i].first != "vm.vmsaSlots" && d[i].first != "kernel.framesInUse")
            d[i].second -= a[i].second;
    }
    return d;
}

uint64_t
countOf(const Counts &c, const char *name)
{
    for (const auto &kv : c) {
        if (kv.first == name)
            return kv.second;
    }
    std::fprintf(stderr, "perfbench: unknown count %s\n", name);
    std::exit(2);
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Prepare inputs inside the booted CVM (part of set-up time). */
    virtual void prepare(kern::Kernel &k, kern::Process &init) = 0;
    /** Run op @p i; false when any output check failed. */
    virtual bool op(uint64_t i) = 0;
    /** Release what prepare() built (after the measured loop). */
    virtual void finish() {}
    /** Ops one CVM runs before the next op boots a fresh CVM; 0 for
     *  no limit. */
    virtual uint64_t opsPerCvm() const { return 0; }
};

// ---- shielded_http ----

class ShieldedHttp : public Workload
{
  public:
    static constexpr uint64_t kRequests = 100;
    static constexpr size_t kFileBytes = 10 * 1024;

    ShieldedHttp(sdk::VeilVm &vm, uint64_t seed) : vm_(vm), seed_(seed)
    {
        prm_.requests = kRequests;
        prm_.fileBytes = kFileBytes;
        prm_.files = 16;
        prm_.concurrency = 4;
    }

    void
    prepare(kern::Kernel &k, kern::Process &init) override
    {
        env_ = std::make_unique<sdk::NativeEnv>(k, init);
        wl::vhttpdPrepare(*env_, prm_, seed_);
        host_ = std::make_unique<sdk::EnclaveHost>(*env_, vm_.programs());
        wl::VhttpdParams prm = prm_;
        bool ok = host_->create([prm](sdk::Env &e) -> int64_t {
            wl::HttpServer server(e, prm);
            server.runToCompletion();
            return int64_t((server.served() << 32) | server.bytesSent());
        });
        ensure(ok, "shielded_http: enclave create failed");
    }

    /**
     * The client is pumped from the first ocall on, before the server's
     * listen(): its first connects are refused and retried
     * (client.errors()), as ab's would be against a server still
     * starting, so they are not failures.
     */
    bool
    op(uint64_t) override
    {
        wl::HttpClient client(*env_, prm_);
        host_->setOcallHook([&client] {
            Span s(SpanName::ClientPump);
            client.pump();
        });
        int64_t ret;
        {
            Span s(SpanName::EnclaveCall);
            ret = host_->call();
        }
        host_->setOcallHook(nullptr);
        // The last responses may still sit in the client's sockets.
        for (int spins = 0; client.completed() < kRequests && spins < 64;
             ++spins) {
            Span s(SpanName::ClientPump);
            client.pump();
        }
        // The enclave's SDK stats run over its whole life: take deltas.
        const sdk::EnclaveEnvStats &st = host_->lastRunStats();
        if (gInWindow) {
            gTally.ocalls += st.ocalls - lastStats_.ocalls;
            gTally.marshalCycles += st.marshalCycles - lastStats_.marshalCycles;
        }
        lastStats_ = st;
        uint64_t served = uint64_t(ret) >> 32;
        uint64_t sent = uint64_t(ret) & 0xffffffffu;
        fold(uint64_t(ret));
        fold(client.bytesReceived());
        // Every response is the same fixed header plus one 10 KB body.
        if (perOp_ == 0)
            perOp_ = client.bytesReceived();
        uint64_t per_resp = client.bytesReceived() / kRequests;
        return ret >= 0 && served == kRequests &&
               client.completed() == kRequests &&
               client.bytesReceived() == sent &&
               client.bytesReceived() == perOp_ &&
               client.bytesReceived() % kRequests == 0 &&
               per_resp >= kFileBytes && per_resp < kFileBytes + 256;
    }

    void
    finish() override
    {
        host_->destroy();
    }

  private:
    sdk::VeilVm &vm_;
    uint64_t seed_;
    wl::VhttpdParams prm_;
    std::unique_ptr<sdk::NativeEnv> env_;
    std::unique_ptr<sdk::EnclaveHost> host_;
    sdk::EnclaveEnvStats lastStats_;
    uint64_t perOp_ = 0;
};

// ---- clone_churn ----

/**
 * Every session leaves state behind in the CVM (VMSA slots, resident
 * memory), so op time grows with the sessions a CVM has run. A fresh
 * CVM therefore serves each kSessionsPerCvm sessions, with the same
 * number of sessions at each call count: every CVM of a run does the
 * same work, and a run's figures do not depend on how many ops the host
 * got through. Only the order differs from CVM to CVM.
 */
class CloneChurn : public Workload
{
  public:
    static constexpr uint32_t kCallsMax = 8;
    static constexpr double kSkew = 1.2;
    static constexpr uint64_t kSessionsPerCvm = 50;

    /**
     * Each CVM's sessions draw their call counts from Zipf(1..kCallsMax,
     * kSkew) stratified: the CVM runs exactly the Zipf share of sessions
     * at each count (largest-remainder rounding), in an order shuffled
     * by the seed and the CVM's index in the run. Seeds then change which
     * session makes how many calls, not how many calls a CVM makes in
     * total; and as a late session costs more than an early one, a fresh
     * order per CVM keeps a run's figures from hanging on one order.
     */
    CloneChurn(sdk::VeilVm &vm, uint64_t seed, uint64_t cvm) : vm_(vm)
    {
        fc_.callsMax = kCallsMax;
        fc_.zipfSkew = kSkew;
        double weight[kCallsMax], total = 0;
        for (uint32_t c = 0; c < kCallsMax; ++c)
            total += weight[c] = std::pow(double(c + 1), -kSkew);
        std::vector<std::pair<double, uint32_t>> remainders;
        for (uint32_t c = 0; c < kCallsMax; ++c) {
            double share = double(kSessionsPerCvm) * weight[c] / total;
            calls_.insert(calls_.end(), size_t(share), c + 1);
            remainders.emplace_back(share - std::floor(share), c + 1);
        }
        std::sort(remainders.rbegin(), remainders.rend());
        for (size_t j = 0; calls_.size() < kSessionsPerCvm; ++j)
            calls_.push_back(remainders[j].second);
        Rng rng(seed * 0x9E3779B97F4A7C15ull + cvm);
        for (size_t j = calls_.size() - 1; j > 0; --j)
            std::swap(calls_[j], calls_[rng.below(j + 1)]);
    }

    void
    prepare(kern::Kernel &k, kern::Process &) override
    {
        k_ = &k;
        sdk::EnclaveHost::Params p;
        p.codePages = fc_.codePages;
        p.heapPages = fc_.heapPages;
        p.stackPages = fc_.stackPages;

        // The template: built, measured and sealed before it ever runs.
        tmplProc_ = &k.makeProcess("template");
        tmplProc_->audited = false;
        tmplEnv_ = std::make_unique<sdk::NativeEnv>(k, *tmplProc_);
        tmpl_ = std::make_unique<sdk::EnclaveHost>(*tmplEnv_, vm_.programs());
        ensure(tmpl_->create(fleet::FleetManager::makeWorkload(fc_), p),
               "clone_churn: template create failed");
        ensure(tmpl_->snapshot(snap_), "clone_churn: snapshot failed");

        // The oracle: a freshly created (non-clone) enclave of the same
        // program; call n of every clone must return what its call n
        // returned.
        kern::Process &op = k.makeProcess("oracle");
        op.audited = false;
        {
            sdk::NativeEnv env(k, op);
            sdk::EnclaveHost fresh(env, vm_.programs());
            ensure(fresh.create(fleet::FleetManager::makeWorkload(fc_), p),
                   "clone_churn: oracle create failed");
            for (uint32_t c = 0; c < kCallsMax; ++c)
                expected_.push_back(fresh.call());
            ensure(fresh.destroy() == 0, "clone_churn: oracle destroy");
        }
        k.reapProcess(op);
    }

    bool
    op(uint64_t i) override
    {
        uint32_t calls = calls_[i % kSessionsPerCvm];
        bool ok = true;
        kern::Process *proc;
        {
            Span s(SpanName::MakeProcess);
            proc = &k_->makeProcess("s" + std::to_string(i),
                                    /*light_as=*/true);
        }
        proc->audited = false;
        {
            sdk::NativeEnv env(*k_, *proc);
            sdk::EnclaveHost host(env, vm_.programs());
            bool cloned;
            {
                Span s(SpanName::Clone);
                uint64_t t0 = vm_.machine().tsc();
                cloned = host.createFromSnapshot(snap_);
                if (gInWindow) {
                    gTally.cloneCycles += vm_.machine().tsc() - t0;
                    ++gTally.clones;
                }
            }
            ok = cloned;
            for (uint32_t c = 0; cloned && c < calls; ++c) {
                int64_t r;
                {
                    Span s(SpanName::EnclaveCall);
                    r = host.call();
                }
                fold(uint64_t(r));
                ok = ok && r == expected_[c];
            }
            if (cloned) {
                Span s(SpanName::Destroy);
                ok = host.destroy() == 0 && ok;
            }
        }
        {
            Span s(SpanName::Reap);
            k_->reapProcess(*proc);
        }
        fold(calls);
        return ok;
    }

    uint64_t opsPerCvm() const override { return kSessionsPerCvm; }

    void
    finish() override
    {
        tmpl_->destroy();
        tmpl_->releaseSnapshot(snap_.snapshotId);
        tmpl_.reset();
        tmplEnv_.reset();
        k_->reapProcess(*tmplProc_);
    }

  private:
    sdk::VeilVm &vm_;
    fleet::FleetConfig fc_;
    std::vector<uint32_t> calls_; ///< call count of each session of a CVM
    kern::Kernel *k_ = nullptr;
    kern::Process *tmplProc_ = nullptr;
    std::unique_ptr<sdk::NativeEnv> tmplEnv_;
    std::unique_ptr<sdk::EnclaveHost> tmpl_;
    sdk::EnclaveSnapshot snap_;
    std::vector<int64_t> expected_;
};

// ---- auditor_sessions ----

class AuditorSessions : public Workload
{
  public:
    AuditorSessions(sdk::VeilVm &vm, uint64_t seed) : vm_(vm), seed_(seed)
    {
    }

    void
    prepare(kern::Kernel &k, kern::Process &init) override
    {
        k_ = &k;
        init.audited = true;
        env_ = std::make_unique<sdk::NativeEnv>(k, init);
    }

    bool
    op(uint64_t i) override
    {
        const kern::KernelStats &ks = k_->stats();
        uint64_t rec0 = ks.auditRecords;
        uint64_t drops0 = ks.auditRingDrops;
        uint64_t sw0 = vm_.hypervisor().stats().domainSwitches;

        wl::VkvParams prm;
        prm.inserts = 2000;
        prm.recordsPerFlush = 8;
        prm.seed = seed_ * 0x9e3779b97f4a7c15ULL + i;
        prm.journalPath = "/auditor.vkv";
        wl::VkvResult res;
        {
            Span s(SpanName::AuditBatch);
            res = wl::runVkv(*env_, prm);
        }
        uint64_t records = ks.auditRecords - rec0;
        if (gInWindow) {
            gTally.auditRecords += records;
            gTally.auditSwitches +=
                vm_.hypervisor().stats().domainSwitches - sw0;
        }

        std::unique_ptr<sdk::RemoteUser> user;
        {
            Span s(SpanName::ClientSetup);
            user = std::make_unique<sdk::RemoteUser>(
                vm_, seed_ * 0x2545f4914f6cdd1dULL + i);
        }
        bool up;
        {
            Span s(SpanName::Establish);
            uint64_t t0 = vm_.machine().tsc();
            up = user->establishChannel(*k_);
            if (gInWindow) {
                gTally.establishCycles += vm_.machine().tsc() - t0;
                ++gTally.establishes;
            }
        }
        if (!up)
            return false;
        bool parse_error = false;
        std::vector<std::string> fetched;
        {
            Span s(SpanName::LogFetch);
            fetched = user->retrieveAllRecords(*k_, &parse_error);
        }
        bool cleared;
        {
            Span s(SpanName::LogClear);
            cleared = user->queryLogs(*k_, core::LogQueryCmd::Clear, 0)
                          .has_value();
        }
        bool down;
        {
            Span s(SpanName::Teardown);
            down = user->teardownChannel(*k_);
        }
        fold(res.journalBytes);
        fold(records);
        for (const std::string &r : fetched)
            fold(std::hash<std::string>{}(r));
        return res.inserted == prm.inserts && records > 0 &&
               fetched.size() == records && !parse_error &&
               ks.auditRingDrops == drops0 &&
               user->sessionGeneration() == i + 1 && cleared && down;
    }

  private:
    sdk::VeilVm &vm_;
    uint64_t seed_;
    kern::Kernel *k_ = nullptr;
    std::unique_ptr<sdk::NativeEnv> env_;
};

// ---------------------------------------------------------------------
// The measured run.
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    uint64_t window = 1;
    uint64_t maxOps = UINT64_MAX;
    bool traced = false;
    std::string spansPath;
};

struct Result
{
    double setupS = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool halted = false;
    bool windowComplete = false;
    std::vector<double> opUs;
    std::vector<double> probeUs; ///< probe time after each op
    double firstDecileUs = 0; ///< summed over CVMs
    double lastDecileUs = 0;
    double rssMbPerOp = 0; ///< first CVM
    uint64_t vmsaSlotsEnd = 0; ///< last CVM
    Counts window;
    std::vector<std::pair<std::string, double>> layer;
};

double
rssMb()
{
    long pages = 0, resident = 0;
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (f != nullptr) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, sdk::VeilVm &vm, uint64_t seed,
             uint64_t cvm)
{
    if (name == "shielded_http")
        return std::make_unique<ShieldedHttp>(vm, seed);
    if (name == "clone_churn")
        return std::make_unique<CloneChurn>(vm, seed, cvm);
    return std::make_unique<AuditorSessions>(vm, seed);
}

/** One 256 MiB, 2-VCPU Veil CVM on a single host thread. */
sdk::VmConfig
configFor(const std::string &name)
{
    sdk::VmConfig cfg;
    cfg.machine.memBytes = 256ull * 1024 * 1024;
    cfg.machine.numVcpus = 2;
    cfg.machine.hostThreads = 0;
    cfg.veilEnabled = true;
    if (name == "auditor_sessions") {
        cfg.kernel.auditBackend = kern::AuditBackend::VeilLogBatched;
        cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
    }
    return cfg;
}

const trace::Category kSimCategories[] = {
    trace::Category::VmEnter,    trace::Category::VmgExit,
    trace::Category::GuestRun,   trace::Category::Syscall,
    trace::Category::ServiceEnc, trace::Category::ServiceLog,
    trace::Category::MonitorReq, trace::Category::Rmpadjust,
    trace::Category::AuditFlush, trace::Category::RingFlush,
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: veil_perfbench --workload "
                 "shielded_http|clone_churn|auditor_sessions --seed N "
                 "[--seconds S] [--window OPS] [--max-ops OPS] [--traced] "
                 "[--spans FILE]\n",
                 msg);
    std::exit(2);
}

/** Per-layer metrics of a traced run, from its spans and window counts. */
void
layerMetrics(const Options &opt, Result &res)
{
    double n = double(res.opUs.size());
    double w = double(opt.window);
    const Counts &wc = res.window;
    auto per = [&](const char *c) { return double(countOf(wc, c)) / w; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto us = [&](SpanName s) { return gSpans.total(s) / n; };
    std::vector<std::pair<std::string, double>> l = {
        {"snp.tlb_flushes_per_op", per("vm.tlb.flushes")},
        {"snp.tlb_shootdowns_per_op", per("vm.tlb.shootdowns")},
        {"snp.vmsa_slots_end", double(res.vmsaSlotsEnd)},
        {"snp.rss_mb_per_op", res.rssMbPerOp},
        {"snp.op_us_last_over_first",
         ratio(res.lastDecileUs, res.firstDecileUs)},
        {"snp.rmpadjusts_per_op", per("vm.rmpadjusts")},
        {"sdk.call_self_us", gSpans.self(SpanName::EnclaveCall) / n},
        {"sdk.ocalls_per_op", per("sdk.ocalls")},
        {"sdk.marshal_cycles_per_op", per("sdk.marshalCycles")},
        {"sdk.clone_us", us(SpanName::Clone)},
        {"sdk.enclave_call_us", us(SpanName::EnclaveCall)},
        {"sdk.destroy_us", us(SpanName::Destroy)},
        {"veil.clone_cycles", ratio(double(countOf(wc, "veil.cloneCycles")),
                                    double(countOf(wc, "veil.clones")))},
        {"kernel.client_us", us(SpanName::ClientPump)},
        {"kernel.syscalls_per_op", per("kernel.syscalls")},
        {"kernel.make_process_us", us(SpanName::MakeProcess)},
        {"kernel.reap_process_us", us(SpanName::Reap)},
        {"kernel.audit_batch_us", us(SpanName::AuditBatch)},
        {"kernel.audit_records_per_op", per("kernel.auditRecords")},
        {"kernel.audit_flushes_per_op", per("kernel.auditBatchFlushes")},
        {"kernel.audit_drops", double(countOf(wc, "kernel.auditRingDrops"))},
        {"hv.switches_per_record",
         ratio(double(countOf(wc, "audit.switches")),
               double(countOf(wc, "audit.records")))},
        {"hv.switches_per_op", per("hv.domainSwitches")},
        {"attest.client_setup_us", us(SpanName::ClientSetup)},
        {"attest.establish_us", us(SpanName::Establish)},
        {"attest.establish_cycles",
         ratio(double(countOf(wc, "attest.establishCycles")),
               double(countOf(wc, "attest.establishes")))},
        {"attest.teardown_us", us(SpanName::Teardown)},
        {"crypto.sha256_blocks_per_op", per("crypto.sha256Blocks")},
        {"crypto.aes_key_schedules_per_op", per("crypto.aesKeySchedules")},
        {"veil.log_fetch_us", us(SpanName::LogFetch)},
        {"veil.log_clear_us", us(SpanName::LogClear)},
    };
    res.layer.insert(res.layer.end(), l.begin(), l.end());
}

/** Progress of a run across the CVMs it boots. */
struct RunState
{
    uint64_t next = 0;      ///< global index of the next op
    uint64_t cvms = 0;      ///< CVMs booted so far
    bool done = false;
    Clock::time_point t0{}; ///< first op of the run
};

/**
 * Boot one CVM, prepare the workload, and run ops in it until the run
 * is over or the workload's ops-per-CVM limit is reached.
 */
void
runCvm(const Options &opt, Result &res, RunState &st)
{
    sdk::VmConfig cfg = configFor(opt.workload);
    cfg.machine.trace.enabled = opt.traced;
    sdk::VeilVm vm(cfg);
    std::unique_ptr<Workload> wl =
        makeWorkload(opt.workload, vm, opt.seed, st.cvms);
    const uint64_t per_cvm = wl->opsPerCvm();
    if (per_cvm != 0 && opt.window > per_cvm)
        usage("--window exceeds the workload's ops per CVM");
    trace::Tracer &tracer = vm.machine().tracer();

    auto run = vm.run([&](kern::Kernel &k, kern::Process &init) {
        wl->prepare(k, init);
        bool first_cvm = st.cvms++ == 0;
        Counts c0;
        uint64_t cat0[std::size(kSimCategories)] = {};
        uint64_t total0 = 0;
        if (first_cvm) {
            res.setupS = secondsSince(gStart);
            gSpans.enabled = opt.traced;
            c0 = snapshotCounts(vm);
            for (size_t j = 0; j < std::size(kSimCategories); ++j)
                cat0[j] = tracer.cycles(kSimCategories[j]);
            total0 = tracer.totalCycles();
            gInWindow = true;
            st.t0 = Clock::now();
        }
        auto time_up = [&] {
            return st.next >= opt.window &&
                   secondsSince(st.t0) >= opt.seconds;
        };
        double rss0 = rssMb();
        size_t first_op = res.opUs.size();
        for (uint64_t here = 0;; ++here) {
            if (st.next >= opt.maxOps || (per_cvm == 0 && time_up())) {
                st.done = true;
                break;
            }
            // Ops-per-CVM workloads end runs on CVM boundaries only, so
            // every CVM runs the same op sequence.
            if (per_cvm != 0 && here == per_cvm) {
                st.done = time_up();
                break;
            }
            uint64_t i = st.next++;
            gSpans.op = i;
            Clock::time_point o0 = Clock::now();
            bool ok;
            {
                Span s(SpanName::Op);
                ok = wl->op(i);
            }
            res.opUs.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - o0)
                    .count());
            res.probeUs.push_back(gProbe.run());
            ++res.attempted;
            if (!ok)
                ++res.failed;
            if (vm.machine().haltInfo().halted) {
                res.halted = true;
                st.done = true;
                break;
            }
            if (i + 1 == opt.window) {
                gInWindow = false;
                res.windowComplete = true;
                res.window = diffCounts(c0, snapshotCounts(vm));
                double total = double(tracer.totalCycles() - total0);
                for (size_t j = 0; opt.traced && j < std::size(kSimCategories);
                     ++j) {
                    std::string name = trace::categoryName(kSimCategories[j]);
                    std::replace(name.begin(), name.end(), '-', '_');
                    double cyc =
                        double(tracer.cycles(kSimCategories[j]) - cat0[j]);
                    res.layer.emplace_back("sim." + name + "_pct",
                                           total > 0 ? 100.0 * cyc / total
                                                     : 0.0);
                }
            }
        }

        // Growth within one CVM: its last decile of ops against its
        // first, and resident memory gained per op.
        size_t ops = res.opUs.size() - first_op;
        size_t dec = ops / 10;
        for (size_t j = 0; j < dec; ++j) {
            res.firstDecileUs += res.opUs[first_op + j];
            res.lastDecileUs += res.opUs[res.opUs.size() - 1 - j];
        }
        if (first_cvm && ops > 0)
            res.rssMbPerOp = (rssMb() - rss0) / double(ops);
        res.vmsaSlotsEnd = vm.machine().vmsaCount();
        if (!res.halted)
            wl->finish();
    });
    if (run.halted || !run.terminated) {
        res.halted = true;
        st.done = true;
    }
}

Result
runBenchmark(const Options &opt)
{
    LogConfig::setThreshold(LogLevel::Silent);
    Result res;
    RunState st;
    while (!st.done)
        runCvm(opt, res, st);
    gInWindow = false;
    gSpans.enabled = false;
    if (opt.traced && res.windowComplete && !res.opUs.empty())
        layerMetrics(opt, res);
    if (opt.traced && !opt.spansPath.empty())
        gSpans.write(opt.spansPath);
    return res;
}

void
printResult(const Options &opt, const Result &r)
{
    std::string out = "{";
    char buf[128];
    auto num = [&](const char *key, double v, bool comma = true) {
        std::snprintf(buf, sizeof(buf), "\"%s\":%.17g%s", key, v,
                      comma ? "," : "");
        out += buf;
    };
    out += "\"workload\":\"" + opt.workload + "\",";
    num("seed", double(opt.seed));
    num("traced", opt.traced ? 1 : 0);
    num("setup_s", r.setupS);
    num("attempted", double(r.attempted));
    num("failed", double(r.failed));
    num("halted", r.halted ? 1 : 0);
    num("window_complete", r.windowComplete ? 1 : 0);
    num("peak_rss_mb", peakRssMb());
    out += "\"op_us\":[";
    for (size_t i = 0; i < r.opUs.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", r.opUs[i]);
        out += buf;
    }
    out += "],\"probe_us\":[";
    for (size_t i = 0; i < r.probeUs.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.3f", i ? "," : "", r.probeUs[i]);
        out += buf;
    }
    out += "],\"window\":{";
    for (size_t i = 0; i < r.window.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", i ? "," : "",
                      r.window[i].first.c_str(),
                      (unsigned long long)r.window[i].second);
        out += buf;
    }
    out += "},\"layer\":{";
    for (size_t i = 0; i < r.layer.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", i ? "," : "",
                      r.layer[i].first.c_str(), r.layer[i].second);
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (a == "--window")
            opt.window = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--max-ops")
            opt.maxOps = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--traced")
            opt.traced = true;
        else if (a == "--spans")
            opt.spansPath = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (opt.workload != "shielded_http" && opt.workload != "clone_churn" &&
        opt.workload != "auditor_sessions")
        usage("unknown workload");
    if (opt.window == 0)
        usage("--window must be at least 1");

    Result r = runBenchmark(opt);
    printResult(opt, r);
    return r.halted ? 1 : 0;
}
