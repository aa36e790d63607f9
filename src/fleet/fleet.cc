#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "base/log.hh"
#include "base/rng.hh"
#include "trace/trace.hh"

namespace veil::fleet {

using namespace snp;

namespace {

/// Frames one reclaim-hook invocation tries to shed. The allocator is
/// empty when the hook runs, so one freed frame unblocks the caller;
/// a small batch keeps the hook from firing on every allocation.
constexpr uint64_t kReclaimBatch = 16;

} // namespace

FleetManager::FleetManager(sdk::VeilVm &vm, FleetConfig cfg)
    : vm_(vm), cfg_(cfg)
{
}

FleetManager::~FleetManager() = default;

void
FleetManager::lockFleet(Vcpu &cpu)
{
    // Spin through the safepoint so parked workers still join exclusive
    // sections (and the tracer keeps charging the wait to this VCPU).
    while (!fleetMu_.try_lock())
        cpu.burn(0);
}

void
FleetManager::lockProc(Vcpu &cpu)
{
    while (!procMu_.try_lock())
        cpu.burn(0);
}

sdk::EnclaveProgram
FleetManager::makeWorkload(const FleetConfig &cfg)
{
    // Heap layout is fixed by the SDK image builder: config page, then
    // code, then heap (sdk/enclave_api.cc). Computing it here lets the
    // program close over plain constants instead of the built config.
    const Gva heap_lo =
        sdk::kEnclaveBase + (1 + cfg.codePages) * kPageSize;
    const uint64_t heap_pages = cfg.heapPages;
    const uint32_t touch = cfg.pagesPerCall;
    const uint64_t burn = cfg.burnPerCall;
    return [=](sdk::Env &env) -> int64_t {
        // Session-persistent call counter at the heap base. The heap
        // starts zeroed (and sealed zeroed into the template), so call
        // indices count identically from a clone or a fresh boot.
        uint64_t n = 0;
        env.copyOut(heap_lo, &n, sizeof(n));
        ++n;
        env.copyIn(heap_lo, &n, sizeof(n));

        // Dirty a sliding window of heap pages: early calls break CoW
        // on template pages, later calls re-touch evicted ones. Every
        // value written is a function of (call index, page index)
        // alone, so the returned checksum is schedule-independent.
        uint64_t sum = n * 0x9e3779b97f4a7c15ULL;
        for (uint32_t i = 0; i < touch; ++i) {
            uint64_t idx =
                1 + ((n - 1) * touch + i) % (heap_pages - 1);
            Gva va = heap_lo + idx * kPageSize;
            uint64_t v = 0;
            env.copyOut(va, &v, sizeof(v));
            v = v * 0x100000001b3ULL + n + i;
            env.copyIn(va, &v, sizeof(v));
            sum ^= v + (idx << 17);
        }
        env.burn(burn);
        return static_cast<int64_t>(sum);
    };
}

uint32_t
FleetManager::callsFor(uint32_t session_id) const
{
    // Zipf over [1, callsMax], keyed by session id so the draw does not
    // depend on admission order (multicore interleavings included).
    uint32_t n = std::max(1u, cfg_.callsMax);
    double total = 0;
    std::vector<double> w(n);
    for (uint32_t k = 1; k <= n; ++k) {
        w[k - 1] = std::pow(static_cast<double>(k), -cfg_.zipfSkew);
        total += w[k - 1];
    }
    Rng rng(cfg_.seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL + session_id);
    double u = rng.real() * total;
    double acc = 0;
    for (uint32_t k = 0; k < n; ++k) {
        acc += w[k];
        if (u <= acc)
            return k + 1;
    }
    return n;
}

uint64_t
FleetManager::avgCloneCycles() const
{
    return stats_.clones ? stats_.cloneCycles / stats_.clones : 0;
}

bool
FleetManager::sealTemplate(kern::Kernel &k)
{
    ensure(snap_.snapshotId == 0, "fleet: template already sealed");
    templateProc_ = &k.makeProcess("fleet-template");
    templateProc_->audited = false;
    templateEnv_ =
        std::make_unique<sdk::NativeEnv>(k, *templateProc_);
    templateHost_ =
        std::make_unique<sdk::EnclaveHost>(*templateEnv_, vm_.programs());

    sdk::EnclaveHost::Params p;
    p.codePages = cfg_.codePages;
    p.heapPages = cfg_.heapPages;
    p.stackPages = cfg_.stackPages;

    // The timed full build/measure/finalize boot: the baseline every
    // clone's latency is compared against.
    uint64_t t0 = k.cpu().rdtsc();
    if (!templateHost_->create(makeWorkload(cfg_), p))
        return false;
    bootCycles_ = k.cpu().rdtsc() - t0;

    // Seal before the template ever runs: the image (counter = 0) is
    // the state every clone — and a fresh boot — starts from.
    if (!templateHost_->snapshot(snap_))
        return false;
    vm_.machine().tracer().instant(trace::Category::FleetSched,
                                   snap_.snapshotId);
    return true;
}

void
FleetManager::releaseTemplate(kern::Kernel &k)
{
    if (snap_.snapshotId == 0)
        return;
    // Order matters: the sealed source's destroy drops one snapshot
    // reference, the handle release drops the last — VeilS-ENC then
    // scrubs the template frames back to Dom-UNT, and only after that
    // may the reap return them to the allocator.
    templateHost_->destroy();
    templateHost_->releaseSnapshot(snap_.snapshotId);
    templateHost_.reset();
    templateEnv_.reset();
    lockProc(k.cpu());
    k.reapProcess(*templateProc_);
    procMu_.unlock();
    templateProc_ = nullptr;
    snap_ = sdk::EnclaveSnapshot{};
}

void
FleetManager::run(kern::Kernel &k)
{
    ensure(snap_.snapshotId != 0, "fleet: sealTemplate first");
    uint32_t n = vm_.machine().config().numVcpus;
    queues_.assign(n, {});
    all_.clear();
    all_.resize(cfg_.sessions);
    nextSession_ = 0;
    live_ = 0;
    expectedByCall_.clear();
    workersDone_.store(0, std::memory_order_relaxed);

    // Recoverable out-of-frames: before the allocator halts the CVM it
    // asks the fleet to shed idle working set.
    k.frames().setReclaimHook([this, &k] { return reclaimSome(k); });

    if (vm_.machine().multicore()) {
        // The worker body must be installed before the APs boot: each
        // AP enters it straight from its bring-up handshake.
        k.setWorkerMain([this](kern::Kernel &kk, Vcpu &cpu, uint32_t v) {
            workerBody(kk, cpu, v);
        });
        for (uint32_t v = 1; v < n; ++v)
            ensure(k.bootVcpu(v), "fleet: AP boot failed");
        workerBody(k, k.cpu(), 0);
        // Drain: APs exit their loops once every session retired; wait
        // for the last one before tearing fleet state down.
        while (workersDone_.load(std::memory_order_acquire) < n)
            k.cpu().burn(2000);
        k.setWorkerMain(kern::Kernel::WorkerFn{});
    } else {
        // Single-threaded: the BSP round-robins the logical per-VCPU
        // queues. Same scheduler, fully deterministic step order.
        uint32_t v = 0;
        while (!allDone(k.cpu())) {
            stepOne(k, k.cpu(), v);
            v = (v + 1) % n;
        }
    }

    k.frames().setReclaimHook({});
}

bool
FleetManager::allDone(Vcpu &cpu)
{
    lockFleet(cpu);
    bool done = nextSession_ >= cfg_.sessions && live_ == 0;
    fleetMu_.unlock();
    return done;
}

void
FleetManager::workerBody(kern::Kernel &k, Vcpu &cpu, uint32_t vcpu)
{
    for (;;) {
        bool progressed = stepOne(k, cpu, vcpu);
        if (allDone(cpu))
            break;
        if (!progressed)
            cpu.burn(500); // idle: nothing runnable on this queue yet
    }
    workersDone_.fetch_add(1, std::memory_order_release);
}

bool
FleetManager::stepOne(kern::Kernel &k, Vcpu &cpu, uint32_t vcpu)
{
    admitOne(k, cpu, vcpu);
    Session *s = dequeue(cpu, vcpu);
    if (s == nullptr)
        return false;
    runSlice(cpu, *s);
    if (s->callsLeft == 0 || s->dead) {
        retire(k, cpu, s);
    } else {
        lockFleet(cpu);
        queues_[s->owner].push_back(s);
        fleetMu_.unlock();
    }
    if (cfg_.frameBudget != 0)
        budgetSweep(k, cpu, vcpu);
    return true;
}

void
FleetManager::admitOne(kern::Kernel &k, Vcpu &cpu, uint32_t vcpu)
{
    uint32_t id;
    lockFleet(cpu);
    if (nextSession_ >= cfg_.sessions || live_ >= cfg_.maxLive) {
        fleetMu_.unlock();
        return;
    }
    id = nextSession_++;
    ++live_;
    if (live_ > stats_.peakLive)
        stats_.peakLive = live_;
    fleetMu_.unlock();

    // Session construction allocates frames (process tables, ocall
    // block, GHCB, clone page walk) — it must run outside fleetMu_ so
    // the reclaim hook can sweep if the allocator runs dry here.
    auto s = std::make_unique<Session>();
    s->id = id;
    s->owner = vcpu;
    s->callsLeft = callsFor(id);
    lockProc(cpu);
    s->proc = &k.makeProcess("fleet-" + std::to_string(id),
                             /*light_as=*/true);
    procMu_.unlock();
    s->proc->audited = false;
    s->env = std::make_unique<sdk::NativeEnv>(k, *s->proc);
    s->host = std::make_unique<sdk::EnclaveHost>(*s->env, vm_.programs());

    // A hostile host may RMPUPDATE a sealed template page right as the
    // clone maps it; every sharer's next touch is then an attributed
    // halt, never silent corruption.
    bool flipped = chaosMaybeCloneFlip();

    uint64_t t0 = cpu.rdtsc();
    bool ok = s->host->createFromSnapshot(snap_);
    uint64_t dt = cpu.rdtsc() - t0;

    if (!ok) {
        lockProc(cpu);
        k.reapProcess(*s->proc);
        procMu_.unlock();
        lockFleet(cpu);
        ++stats_.cloneFailures;
        if (flipped)
            ++stats_.chaosCloneFlips;
        --live_;
        fleetMu_.unlock();
        return;
    }

    Session *raw = s.get();
    all_[id] = std::move(s); // publish the slot before the queue
    vm_.machine().tracer().instant(trace::Category::FleetSched, id);
    lockFleet(cpu);
    ++stats_.clones;
    stats_.cloneCycles += dt;
    if (flipped)
        ++stats_.chaosCloneFlips;
    queues_[vcpu].push_back(raw);
    fleetMu_.unlock();
}

FleetManager::Session *
FleetManager::dequeue(Vcpu &cpu, uint32_t vcpu)
{
    Session *s = nullptr;
    bool stolen = false;
    lockFleet(cpu);
    if (!queues_[vcpu].empty()) {
        s = queues_[vcpu].front();
        queues_[vcpu].pop_front();
    } else {
        // Own queue empty: steal the coldest (tail) session from the
        // longest other queue.
        size_t best = 0;
        uint32_t victim = vcpu;
        for (uint32_t q = 0; q < queues_.size(); ++q) {
            if (q != vcpu && queues_[q].size() > best) {
                best = queues_[q].size();
                victim = q;
            }
        }
        if (victim != vcpu) {
            s = queues_[victim].back();
            queues_[victim].pop_back();
            s->owner = vcpu;
            ++stats_.steals;
            stolen = true;
        }
    }
    fleetMu_.unlock();

    if (s != nullptr && stolen) {
        Machine &m = vm_.machine();
        m.tracer().instant(trace::Category::FleetSched, s->id);
        // The hypervisor routes domain switches strictly by the VMSA's
        // home VCPU; re-home the stolen session to the thief under the
        // exclusive rendezvous (the migration quiesce point).
        // The session is in no queue, so only this worker touches it.
        VmsaId vmsa = s->proc->enclave->vmsa;
        if (m.vmsaState(vmsa).vcpuId != cpu.vcpuId()) {
            m.exclusive(
                [&] { m.vmsaState(vmsa).vcpuId = cpu.vcpuId(); });
        }
    }
    return s;
}

void
FleetManager::runSlice(Vcpu &cpu, Session &s)
{
    for (uint32_t q = 0; q < cfg_.quantum && s.callsLeft > 0; ++q) {
        int64_t r = s.host->call();
        if (s.host->killed()) {
            s.dead = true;
            return;
        }
        --s.callsLeft;
        ++s.callsDone;
        checkReturn(cpu, s, r);
        uint64_t res = s.proc->enclave->resident.size();
        if (res > s.peakResident)
            s.peakResident = res;
    }
}

void
FleetManager::checkReturn(Vcpu &cpu, Session &s, int64_t ret)
{
    // The workload's checksum depends on the call index alone, so all
    // correctly isolated sessions agree; a CoW or paging leak between
    // clones shows up here as a divergence.
    lockFleet(cpu);
    auto [it, fresh] = expectedByCall_.emplace(s.callsDone, ret);
    if (!fresh && it->second != ret)
        ++stats_.checksumErrors;
    ++stats_.callsCompleted;
    fleetMu_.unlock();
}

void
FleetManager::retire(kern::Kernel &k, Vcpu &cpu, Session *s)
{
    if (s->host->destroy() != 0 && s->proc->enclave) {
        // A condemned (killed) enclave may refuse the destroy ioctl;
        // the service already torched it, so finish the OS-side burial.
        s->proc->enclave->alive = false;
    }
    lockProc(cpu);
    k.reapProcess(*s->proc);
    procMu_.unlock();
    vm_.machine().tracer().instant(trace::Category::FleetSched, s->id);
    lockFleet(cpu);
    ++stats_.sessionsCompleted;
    if (s->dead)
        ++stats_.killedSessions;
    stats_.workingSetPages += s->peakResident;
    --live_;
    fleetMu_.unlock();
    all_[s->id].reset();
}

void
FleetManager::budgetSweep(kern::Kernel &k, Vcpu &cpu, uint32_t vcpu)
{
    kern::FrameAllocator &fa = k.frames();
    if (fa.inUse() <= cfg_.frameBudget)
        return;
    lockFleet(cpu);
    trace::SpanScope span(vm_.machine().tracer(), trace::Category::Evict);
    ++stats_.evictionSweeps;
    uint64_t want = fa.inUse() - cfg_.frameBudget;
    for (Session *s : queues_[vcpu]) {
        if (want == 0)
            break;
        uint64_t freed = evictFromSession(k, *s, want, /*reclaim=*/false);
        want -= std::min(want, freed);
    }
    fleetMu_.unlock();
}

bool
FleetManager::reclaimSome(kern::Kernel &k)
{
    // Allocator reclaim hook: the free list is empty and the caller
    // halts unless we shed at least one frame. Queued sessions are idle
    // by construction (running ones were popped), so their pages can go
    // out through the sealed swap path. The allocating call site never
    // holds fleetMu_ (see the lock-order contract), so taking it here
    // cannot self-deadlock.
    Vcpu &cpu = k.cpu();
    uint64_t freed = 0;
    lockFleet(cpu);
    trace::SpanScope span(vm_.machine().tracer(), trace::Category::Evict);
    for (auto &queue : queues_) {
        for (Session *s : queue) {
            if (freed >= kReclaimBatch)
                break;
            freed += evictFromSession(k, *s, kReclaimBatch - freed,
                                      /*reclaim=*/true);
        }
    }
    fleetMu_.unlock();
    return freed != 0;
}

uint64_t
FleetManager::evictFromSession(kern::Kernel &k, Session &s, uint64_t want,
                               bool reclaim)
{
    if (s.dead || s.proc == nullptr || !s.proc->enclave)
        return 0;
    auto &res = s.proc->enclave->resident;
    uint64_t freed = 0;
    size_t steps = 2 * res.size() + 2;
    auto it = res.lower_bound(s.clockHand);
    while (freed < want && steps-- > 0 && !res.empty()) {
        if (it == res.end())
            it = res.begin();
        Gva va = it->first;
        bool referenced = it->second != 0;
        // EvictRace: the host scheduler beats the CLOCK hand and takes
        // a page the second chance would have spared; the session just
        // faults it back in (progress, never corruption).
        bool raced =
            referenced && chaosRoll(chaos::FaultSite::EvictRace);
        if (referenced && !raced) {
            it->second = 0; // second chance
            ++it;
            continue;
        }
        ++it; // step off the node enclaveFreePage is about to erase
        if (k.enclaveFreePage(*s.proc, va) == 0) {
            ++freed;
            if (raced)
                ++stats_.chaosEvictRaces;
            if (reclaim)
                ++stats_.reclaimEvictions;
            else
                ++stats_.evictions;
        }
    }
    s.clockHand = (res.empty() || it == res.end()) ? 0 : it->first;
    return freed;
}

bool
FleetManager::chaosRoll(chaos::FaultSite site)
{
    if (cfg_.chaos == nullptr)
        return false;
    std::lock_guard<base::Spinlock> g(chaosMu_);
    return cfg_.chaos->roll(site);
}

uint64_t
FleetManager::chaosPick(uint64_t bound)
{
    std::lock_guard<base::Spinlock> g(chaosMu_);
    return cfg_.chaos->pick(bound);
}

bool
FleetManager::chaosMaybeCloneFlip()
{
    if (cfg_.chaos == nullptr || templateProc_ == nullptr)
        return false;
    if (!chaosRoll(chaos::FaultSite::CloneRmpFlip))
        return false;
    uint64_t pages = (snap_.cfg.enclaveHi - snap_.cfg.enclaveLo) / kPageSize;
    if (pages == 0)
        return false;
    Gva va = snap_.cfg.enclaveLo + chaosPick(pages) * kPageSize;
    auto leaf = templateProc_->as->userLeaf(va);
    if (!leaf)
        return false;
    Gpa pa = *leaf & kPteAddrMask;
    Machine &m = vm_.machine();
    RmpTable &rmp = m.rmp();
    // RMPUPDATE rejects VMSA pages; re-flipping a shared page is a
    // no-op. The budgeted roll is spent either way (hv idiom).
    if (rmp.isVmsaPage(pa) || rmp.isShared(pa))
        return false;
    // The flip re-keys the page: what anyone sees now is ciphertext.
    // Scramble deterministically from the chaos stream; guests never
    // read it — their C-bit still says private, so the access faults.
    std::vector<uint8_t> junk(kPageSize);
    for (auto &b : junk)
        b = static_cast<uint8_t>(chaosPick(256));
    m.exclusive([&] {
        rmp.hvSetShared(pa, true);
        m.memory().write(pa, junk.data(), junk.size());
    });
    return true;
}

} // namespace veil::fleet
