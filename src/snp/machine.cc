#include "snp/machine.hh"

#include "base/log.hh"
#include "crypto/stats.hh"
#include "snp/fault.hh"
#include "snp/vcpu.hh"

namespace veil::snp {

namespace {

/** Forward crypto key-derivation work into the machine's trace rings.
 *  Bulk SHA-256 block counts stay counters-only (per-block instants
 *  would swamp the flight recorder with no analytical value). */
void
cryptoTraceThunk(void *ctx, crypto::CryptoEvent ev, uint64_t n)
{
    if (ev == crypto::CryptoEvent::Sha256Blocks)
        return;
    auto *machine = static_cast<Machine *>(ctx);
    machine->tracer().instant(trace::Category::CryptoKeySetup,
                              static_cast<uint64_t>(ev));
    (void)n;
}

/**
 * Multicore thread binding: which machine/VCPU the calling host thread
 * drives, and which VMSA is currently executing on it. Single-threaded
 * mode never touches this (Machine::currentVmsa_ plays that role).
 */
struct ThreadBind
{
    const void *machine = nullptr;
    uint32_t vcpu = 0;
    VmsaId cur = kInvalidVmsa;
};
thread_local ThreadBind t_bind;

/** Race-free shard read (owner writes via atomic_ref as well). */
uint64_t
loadShardTsc(const uint64_t &tsc)
{
    return std::atomic_ref<uint64_t>(const_cast<uint64_t &>(tsc))
        .load(std::memory_order_relaxed);
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config),
      memory_(config.memBytes),
      rmp_(config.memBytes / kPageSize),
      psp_(config.pspKey, config.tcbVersion)
{
    ensure(config.numVcpus >= 1, "Machine: need at least one VCPU");
    nextTimerTsc_ = costs().timerQuantum();

    multicore_ = config.hostThreads != 0;
    if (multicore_) {
        tscShards_.resize(config.numVcpus);
        for (auto &shard : tscShards_)
            shard.nextTimerTsc = costs().timerQuantum();
        excl_ = std::make_unique<ExclusiveCoordinator>();
        rmp_.setMulticore(true);
    }

    // Multicore: the fallback clock for unbound (setup-phase) threads
    // is shard 0, where host-context charges accumulate.
    tracer_.configure(config.trace, config.numVcpus,
                      multicore_ ? &tscShards_[0].tsc : &tsc_);
    if (multicore_)
        tracer_.setMulticore(true);
    if (tracer_.enabled())
        crypto::cryptoTraceHook() = {&cryptoTraceThunk, this};
}

void
Machine::bindThread(uint32_t vcpu)
{
    ensure(multicore_, "bindThread: machine not in multicore mode");
    ensure(vcpu < config_.numVcpus, "bindThread: bad vcpu");
    ensure(t_bind.machine == nullptr, "bindThread: thread already bound");
    t_bind = ThreadBind{this, vcpu, kInvalidVmsa};
    boundThreads_.fetch_add(1, std::memory_order_relaxed);
    // Note: callers must presize tracer guest contexts on one thread
    // (tracer().presizeGuest(vmsaCount())) before binding workers.
    excl_->registerThread();
    ExclusiveCoordinator::bindWorker(true);
    tracer_.bindThread(vcpu, &tscShards_[vcpu].tsc);
}

void
Machine::unbindThread()
{
    ensure(t_bind.machine == this, "unbindThread: thread not bound here");
    tracer_.unbindThread();
    ExclusiveCoordinator::bindWorker(false);
    excl_->deregisterThread();
    boundThreads_.fetch_sub(1, std::memory_order_relaxed);
    t_bind = ThreadBind{};
}

uint64_t
Machine::tscMt() const
{
    if (t_bind.machine == this)
        return loadShardTsc(tscShards_[t_bind.vcpu].tsc);
    uint64_t max = 0;
    for (const auto &shard : tscShards_) {
        uint64_t v = loadShardTsc(shard.tsc);
        if (v > max)
            max = v;
    }
    return max;
}

void
Machine::chargeMt(uint64_t cycles)
{
    if (t_bind.machine == this) [[likely]] {
        TscShard &shard = tscShards_[t_bind.vcpu];
        std::atomic_ref<uint64_t>(shard.tsc)
            .fetch_add(cycles, std::memory_order_relaxed);
        tracer_.onCharge(cycles);
        // Charge boundaries are the safe points of DESIGN.md §12.
        excl_->safepoint();
        return;
    }
    // Host-context charge (no bound VCPU): account on shard 0; host
    // threads do not participate in the safe-point protocol.
    std::atomic_ref<uint64_t>(tscShards_[0].tsc)
        .fetch_add(cycles, std::memory_order_relaxed);
    tracer_.onCharge(cycles);
}

VmsaId
Machine::currentVmsaId() const
{
    if (!multicore_) [[likely]]
        return currentVmsa_;
    return t_bind.machine == this ? t_bind.cur : kInvalidVmsa;
}

Machine::~Machine()
{
    shutdownFibers();
    if (crypto::cryptoTraceHook().ctx == this)
        crypto::cryptoTraceHook() = {};
}

void
Machine::shutdownFibers()
{
    // Multicore worker threads are joined by the hypervisor before the
    // machine dies; teardown resumes leftover fibers on this thread.
    shuttingDown_ = true;
    for (auto &slot : slots_) {
        if (slot.fiber && slot.fiber->started() && !slot.fiber->finished()) {
            try {
                currentVmsa_ = kInvalidVmsa;
                slot.fiber->resume();
            } catch (...) {
                // Teardown is best-effort; exceptions escaping a dying
                // fiber are dropped.
            }
        }
    }
}

VmsaId
Machine::addVmsa(Vmsa state)
{
    if (boundThreads_.load(std::memory_order_relaxed) == 0) {
        slots_.push_back(Slot{std::move(state), nullptr});
        return static_cast<VmsaId>(slots_.size() - 1);
    }
    // Multicore workers running (fleet clone creating a Dom-ENC VMSA):
    // grow the slot table inside an exclusive section so no worker
    // observes the deque's internal map mid-mutation. Slot *references*
    // held by parked fibers stay valid (deque push_back guarantee).
    // The tracer's per-guest contexts must grow under the same
    // rendezvous for the same reason.
    VmsaId id = kInvalidVmsa;
    exclusive([&] {
        slots_.push_back(Slot{std::move(state), nullptr});
        id = static_cast<VmsaId>(slots_.size() - 1);
        tracer_.presizeGuest(slots_.size());
    });
    return id;
}

Machine::Slot &
Machine::slotFor(VmsaId id)
{
    if (id >= slots_.size())
        panic(strfmt("Machine: bad VmsaId %u", id));
    return slots_[id];
}

Vmsa &
Machine::vmsaState(VmsaId id)
{
    return slotFor(id).state;
}

void
Machine::startFiber(VmsaId id)
{
    Slot &slot = slotFor(id);
    ensure(slot.state.entry != nullptr, "Machine: VMSA has no entry point");
    slot.fiber = std::make_unique<Fiber>([this, id] {
        Vcpu vcpu(*this, id);
        try {
            slotFor(id).state.entry(vcpu);
        } catch (const NpfFault &f) {
            recordHalt(std::string("unhandled #NPF: ") + f.what(), f.gpa,
                       f.vmpl);
        } catch (const GuestPageFault &f) {
            recordHalt(std::string("unhandled guest #PF: ") + f.what(), 0,
                       slotFor(id).state.vmpl);
        } catch (const CvmHaltFault &f) {
            recordHalt(f.what(), 0, slotFor(id).state.vmpl);
        }
    });
}

VmExit
Machine::enter(VmsaId id)
{
    if (halted())
        return VmExit{ExitReason::NpfHalt, id};
    Slot &slot = slotFor(id);
    if (multicore_) {
        // Fibers have strict VCPU affinity: created, entered, and torn
        // down on the VCPU's own worker thread.
        ensure(t_bind.machine == this &&
                   t_bind.vcpu == slot.state.vcpuId,
               "Machine::enter: thread not bound to this VMSA's VCPU");
    }
    if (!slot.fiber)
        startFiber(id);
    if (slot.fiber->finished())
        return VmExit{ExitReason::Halted, id};

    {
        // VMENTER state-restore cost attributed to its own category.
        trace::SpanScope restore(tracer_, trace::Category::VmEnter, id);
        charge(config_.snpMode ? costs().vmenterRestore
                               : costs().plainResume);
    }
    ++stats_.entries;

    const Vmsa &entering = slot.state;
    uint32_t run_vcpu = entering.vcpuId;
    uint8_t run_vmpl = static_cast<uint8_t>(vmplIndex(entering.vmpl));
    uint64_t run_start = tsc();
    tracer_.enterContext(id, run_vcpu, run_vmpl);

    if (multicore_)
        t_bind.cur = id;
    else
        currentVmsa_ = id;
    slot.fiber->resume();
    if (multicore_)
        t_bind.cur = kInvalidVmsa;
    else
        currentVmsa_ = kInvalidVmsa;

    tracer_.exitContext();
    // Residency span: this VMSA held the VCPU from VMENTER to its exit.
    tracer_.spanAt(run_vcpu, run_vmpl, trace::Category::GuestRun, run_start,
                   tsc(), id);

    if (slot.fiber->finished()) {
        if (halted())
            return VmExit{ExitReason::NpfHalt, id};
        return VmExit{ExitReason::Halted, id};
    }
    return slot.pendingExit;
}

void
Machine::guestExit(ExitReason reason)
{
    VmsaId cur = currentVmsaId();
    ensure(cur != kInvalidVmsa, "guestExit outside guest context");
    if (shuttingDown_)
        throw FiberShutdown{};

    {
        // VMGEXIT/automatic-exit state-save cost.
        trace::SpanScope save(tracer_, trace::Category::VmgExit,
                              static_cast<uint64_t>(reason));
        charge(config_.snpMode ? costs().vmgexitSave : costs().plainExit);
    }
    if (reason == ExitReason::NonAutomatic)
        ++stats_.nonAutomaticExits;
    else
        ++stats_.automaticExits;

    slotFor(cur).pendingExit = VmExit{reason, cur};
    Fiber::yieldToScheduler();

    if (shuttingDown_)
        throw FiberShutdown{};

    Slot &slot = slotFor(cur);
    while (slot.pendingVectors > 0) {
        // Decrement first: delivery may fault and unwind the fiber.
        --slot.pendingVectors;
        deliverVector();
    }
}

void
Machine::injectVector(VmsaId id)
{
    Slot &slot = slotFor(id);
    if (slot.pendingVectors > 0)
        ++stats_.vectorsQueued;
    ++slot.pendingVectors;
    ++stats_.vectorsInjected;
}

void
Machine::deliverVector()
{
    Vmsa &v = vmsaState(currentVmsaId());
    if (v.idtHandlerVa == 0)
        return; // no IDT installed yet (early boot)
    // The CPU vectors to the handler in ring 0: fetch is exec-checked
    // against the context's page tables and the RMP.
    Cpl saved = v.cpl;
    v.cpl = Cpl::Supervisor;
    trace::SpanScope deliver(tracer_, trace::Category::IntrDeliver,
                             v.idtHandlerVa);
    Vcpu cpu(*this, currentVmsaId());
    cpu.checkExec(v.idtHandlerVa); // may throw #PF / #NPF and halt the CVM
    charge(costs().irqHandle);
    v.cpl = saved;
    if (v.softTimerHook)
        v.softTimerHook();
}

void
Machine::pollTimer()
{
    if (!config_.interruptsEnabled || halted())
        return;
    VmsaId cur = currentVmsaId();
    if (cur == kInvalidVmsa)
        return;
    Slot &slot = slotFor(cur);
    if (multicore_) {
        pollTimerMt(slot);
        return;
    }
    if (slot.state.irqMasked) {
        // Latch a due tick instead of dropping it: the context gets its
        // interrupt on unmask even if another context fires the shared
        // deadline in between.
        if (tsc_ >= nextTimerTsc_ && !slot.timerLatched) {
            slot.timerLatched = true;
            ++stats_.timerTicksLatched;
        }
        return;
    }
    if (!slot.timerLatched && tsc_ < nextTimerTsc_)
        return;
    if (tsc_ >= nextTimerTsc_) {
        // Quanta that elapsed before delivery collapse into this one
        // interrupt; account for them rather than pretending they fired.
        stats_.timerTicksCoalesced +=
            (tsc_ - nextTimerTsc_) / costs().timerQuantum();
        nextTimerTsc_ = tsc_ + costs().timerQuantum();
    }
    slot.timerLatched = false;
    ++stats_.timerInterrupts;
    tracer_.instant(trace::Category::TimerIntr);
    guestExit(ExitReason::AutomaticIntr);
}

void
Machine::pollTimerMt(Slot &slot)
{
    // Per-core APIC-timer analogue: each VCPU shard carries its own
    // deadline against its own virtual clock. Owner-thread only.
    TscShard &shard = tscShards_[t_bind.vcpu];
    uint64_t now = loadShardTsc(shard.tsc);
    if (slot.state.irqMasked) {
        if (now >= shard.nextTimerTsc && !slot.timerLatched) {
            slot.timerLatched = true;
            ++stats_.timerTicksLatched;
        }
        return;
    }
    if (!slot.timerLatched && now < shard.nextTimerTsc)
        return;
    if (now >= shard.nextTimerTsc) {
        stats_.timerTicksCoalesced +=
            (now - shard.nextTimerTsc) / costs().timerQuantum();
        shard.nextTimerTsc = now + costs().timerQuantum();
    }
    slot.timerLatched = false;
    ++stats_.timerInterrupts;
    tracer_.instant(trace::Category::TimerIntr);
    guestExit(ExitReason::AutomaticIntr);
}

void
Machine::recordHalt(const std::string &reason, Gpa gpa, Vmpl vmpl)
{
    std::lock_guard<std::mutex> guard(haltMu_);
    if (halt_.halted)
        return; // first fault wins
    tracer_.instant(trace::Category::Npf, gpa);
    halt_.halted = true;
    halt_.reason = reason;
    halt_.gpa = gpa;
    halt_.vmpl = vmpl;
    halted_.store(true, std::memory_order_release);
    logMessage(LogLevel::Debug, "machine", "CVM halted: " + reason);
}

} // namespace veil::snp
