#include "hv/hypervisor.hh"

#include <thread>

#include "base/log.hh"
#include "snp/exclusive.hh"

namespace veil::hv {

using namespace snp;

Hypervisor::Hypervisor(Machine &machine) : machine_(machine), view_(machine)
{
    current_.assign(machine.config().numVcpus, kInvalidVmsa);
    doorbellLive_.assign(machine.config().numVcpus, 0);
}

void
Hypervisor::restrictGhcbToEnclaveSwitches(Gpa ghcb_page)
{
    std::unique_lock<std::shared_mutex> lock(registryMu_);
    enclaveOnlyGhcbs_.insert(pageAlignDown(ghcb_page));
}

bool
Hypervisor::ghcbEnclaveOnly(Gpa ghcb_gpa) const
{
    std::shared_lock<std::shared_mutex> lock(registryMu_);
    return enclaveOnlyGhcbs_.count(pageAlignDown(ghcb_gpa)) != 0;
}

void
Hypervisor::registerVmsa(uint32_t vcpu, Vmpl vmpl, VmsaId id)
{
    {
        std::unique_lock<std::shared_mutex> lock(registryMu_);
        registry_[{vcpu, vmplIndex(vmpl)}] = id;
    }
    ++stats_.vmsaRegistrations;
}

VmsaId
Hypervisor::lookupVmsa(uint32_t vcpu, Vmpl vmpl) const
{
    std::shared_lock<std::shared_mutex> lock(registryMu_);
    auto it = registry_.find({vcpu, vmplIndex(vmpl)});
    return it == registry_.end() ? kInvalidVmsa : it->second;
}

VmsaId
Hypervisor::curGet(uint32_t vcpu) const
{
    return std::atomic_ref<VmsaId>(const_cast<VmsaId &>(current_[vcpu]))
        .load(std::memory_order_acquire);
}

void
Hypervisor::curSet(uint32_t vcpu, VmsaId id)
{
    std::atomic_ref<VmsaId>(current_[vcpu])
        .store(id, std::memory_order_release);
}

bool
Hypervisor::allVcpusOffline() const
{
    for (uint32_t v = 0; v < current_.size(); ++v) {
        if (curGet(v) != kInvalidVmsa)
            return false;
    }
    return true;
}

// ---- VeilChaos (DESIGN.md §10) ----
//
// Every injection below is an action a real malicious hypervisor could
// take with its legitimate authority: scheduling, relay handling, the
// shared GHCB pages, and host-side RMPUPDATE. With chaos_ == nullptr
// none of these paths execute and the relay loop is byte-for-byte the
// well-behaved one (the default-path cycle pins depend on this).
//
// The injector owns one RNG stream; chaosMu_ serializes draws so
// multicore workers share it safely (the *order* of draws is then a
// race — chaos runs in multicore mode are stochastic by design, and
// deterministic replay of a seed is a single-threaded-mode property).

bool
Hypervisor::chaosRoll(chaos::FaultSite site, uint32_t vcpu)
{
    if (chaos_ == nullptr)
        return false;
    bool hit;
    {
        std::lock_guard<base::Spinlock> guard(chaosMu_);
        hit = chaos_->roll(site);
    }
    if (!hit)
        return false;
    ++stats_.chaosInjections;
    machine_.tracer().instantAt(vcpu, 0, trace::Category::FaultInject,
                                static_cast<uint64_t>(site));
    return true;
}

uint64_t
Hypervisor::chaosPick(uint64_t bound)
{
    std::lock_guard<base::Spinlock> guard(chaosMu_);
    return chaos_->pick(bound);
}

void
Hypervisor::chaosMaybeRmpFlip(uint32_t vcpu)
{
    if (chaos_ == nullptr)
        return;
    const chaos::FaultPlan &plan = chaos_->plan();
    if (plan.rmpFlipHi <= plan.rmpFlipLo)
        return;
    if (!chaosRoll(chaos::FaultSite::RmpFlip, vcpu))
        return;
    uint64_t pages = (plan.rmpFlipHi - plan.rmpFlipLo) / kPageSize;
    Gpa page = plan.rmpFlipLo + chaosPick(pages) * kPageSize;
    RmpTable &rmp = machine_.rmp();
    // RMPUPDATE on a VMSA page is architecturally rejected, and flipping
    // an already-shared page is a no-op; the budget is spent regardless.
    if (rmp.isVmsaPage(page) || rmp.isShared(page))
        return;
    // What the host now sees of a once-private page is ciphertext: the
    // flip re-keys the page. Model that by scrambling the backing bytes
    // (deterministically, from the chaos stream). The guest never reads
    // them either — its C-bit still says private, so its next access
    // faults (snp/rmp.cc). The flip and the scramble run under the
    // machine's exclusive section so no VCPU thread is mid-access while
    // the page changes identity (the real RMPUPDATE completion
    // protocol).
    std::vector<uint8_t> junk(kPageSize);
    for (auto &b : junk)
        b = static_cast<uint8_t>(chaosPick(256));
    machine_.exclusive([&] {
        rmp.hvSetShared(page, true);
        machine_.memory().write(page, junk.data(), junk.size());
    });
}

VmsaId
Hypervisor::chaosPickMisroute(uint32_t vcpu, VmsaId intended)
{
    // Misroute only to the protected-service loops (VMPL-0/1): those
    // re-check their IDCBs on every entry and switch straight back when
    // nothing is pending, so the fault models the hypervisor scheduling
    // the wrong replica rather than corrupting an unrelated protocol.
    VmsaId candidates[2];
    size_t n = 0;
    {
        std::shared_lock<std::shared_mutex> lock(registryMu_);
        for (int vmpl = 0; vmpl <= 1; ++vmpl) {
            auto it = registry_.find({vcpu, vmpl});
            if (it != registry_.end() && it->second != intended)
                candidates[n++] = it->second;
        }
    }
    if (n == 0)
        return kInvalidVmsa;
    return candidates[chaosPick(n)];
}

/**
 * The NonAutomatic (VMGEXIT) relay decision point, shared by both run
 * loops: chaos may delay, drop, or duplicate the relay around the real
 * GHCB handling, then roll an RMP flip.
 */
void
Hypervisor::relayNonAutomatic(uint32_t vcpu, VmsaId exiting)
{
    if (chaos_ == nullptr) {
        handleGhcbExit(vcpu, exiting);
        return;
    }
    if (chaosRoll(chaos::FaultSite::RelayDelay, vcpu))
        machine_.charge(chaos_->delayCycles());
    if (chaosRoll(chaos::FaultSite::RelayDrop, vcpu)) {
        // Swallowed: the context is re-entered with its armed
        // kGhcbNoResult sentinel intact and re-issues.
    } else {
        handleGhcbExit(vcpu, exiting);
        if (chaosRoll(chaos::FaultSite::RelayDuplicate, vcpu)) {
            // Handle the same GHCB request twice; every request
            // is idempotent at the hypervisor (same routing,
            // same registry writes, same page-state).
            handleGhcbExit(vcpu, exiting);
        }
    }
    chaosMaybeRmpFlip(vcpu);
}

Hypervisor::RunResult
Hypervisor::run(VmsaId boot_vmsa)
{
    if (machine_.multicore())
        return runMulticore(boot_vmsa);

    const Vmsa &boot = machine_.vmsaState(boot_vmsa);
    registerVmsa(boot.vcpuId, boot.vmpl, boot_vmsa);
    current_.assign(machine_.config().numVcpus, kInvalidVmsa);
    current_[boot.vcpuId] = boot_vmsa;
    terminated_.store(false, std::memory_order_relaxed);

    uint32_t n = static_cast<uint32_t>(current_.size());
    uint32_t rr = 0;
    while (!terminated_.load(std::memory_order_relaxed) &&
           !machine_.halted()) {
        // Round-robin over online VCPUs.
        uint32_t vcpu = n;
        for (uint32_t i = 0; i < n; ++i) {
            uint32_t cand = (rr + i) % n;
            if (current_[cand] != kInvalidVmsa) {
                vcpu = cand;
                break;
            }
        }
        if (vcpu == n)
            break; // all VCPUs offline
        rr = (vcpu + 1) % n;

        if (exitCap_ != 0 && stats_.exits >= exitCap_) {
            // Livelock detector for chaos soaks: a correct guest either
            // makes progress or halts with an attributed reason long
            // before any sane cap.
            return RunResult{false, 0, false, true};
        }

        // A hostile scheduler may deschedule the VCPU thread at any
        // charge boundary. Single-threaded, the preemption is a
        // deterministic simulated stall drawn from the chaos stream.
        if (chaos_ != nullptr &&
            chaosRoll(chaos::FaultSite::ThreadPreempt, vcpu)) {
            machine_.charge(chaos_->delayCycles());
        }

        // A hostile scheduler may deliver unsolicited vectors to
        // whichever context it is about to resume.
        if (chaos_ != nullptr &&
            chaosRoll(chaos::FaultSite::SpuriousIntr, vcpu)) {
            machine_.injectVector(current_[vcpu]);
        }

        VmExit e = machine_.enter(current_[vcpu]);
        machine_.charge(machine_.costs().hvDispatch);
        ++stats_.exits;

        switch (e.reason) {
          case ExitReason::Halted:
            current_[vcpu] = kInvalidVmsa;
            break;
          case ExitReason::NpfHalt:
            return RunResult{false, 0, true};
          case ExitReason::AutomaticIntr:
            handleIntrExit(vcpu, e.vmsa);
            break;
          case ExitReason::NonAutomatic:
            relayNonAutomatic(vcpu, e.vmsa);
            break;
        }
    }
    return RunResult{terminated_.load(std::memory_order_relaxed),
                     status_.load(std::memory_order_relaxed),
                     machine_.halted()};
}

Hypervisor::RunResult
Hypervisor::runMulticore(VmsaId boot_vmsa)
{
    const Vmsa &boot = machine_.vmsaState(boot_vmsa);
    registerVmsa(boot.vcpuId, boot.vmpl, boot_vmsa);
    current_.assign(machine_.config().numVcpus, kInvalidVmsa);
    current_[boot.vcpuId] = boot_vmsa;
    terminated_.store(false, std::memory_order_relaxed);
    exitCapHit_.store(false, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);

    // Guest trace contexts must exist before any worker can touch them:
    // the tracer's per-VMSA contexts are indexed without locks on the
    // assumption that the vector never reallocates under a worker.
    machine_.tracer().presizeGuest(machine_.vmsaCount());

    uint32_t n = machine_.config().numVcpus;
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (uint32_t v = 0; v < n; ++v)
        workers.emplace_back([this, v] { workerLoop(v); });
    for (std::thread &t : workers)
        t.join();

    return RunResult{terminated_.load(std::memory_order_acquire),
                     status_.load(std::memory_order_relaxed),
                     machine_.halted(),
                     exitCapHit_.load(std::memory_order_relaxed)};
}

void
Hypervisor::requestStop()
{
    // Lock-then-notify so a worker between its predicate check and its
    // cv wait cannot miss the stop. Never call this from inside an
    // exclusive section: a quiescent worker waking from startCv_ must
    // be able to finish endQuiescent() without us holding startMu_.
    {
        std::lock_guard<std::mutex> guard(startMu_);
        stop_.store(true, std::memory_order_release);
    }
    startCv_.notify_all();
}

/**
 * One VCPU's relay loop on its own host thread: the multicore analogue
 * of the round-robin body in run(). The worker binds to its VCPU's TSC
 * shard (so charge() is thread-local and hits safe-points), relays
 * exits for whatever context is current on this VCPU, and parks on
 * startCv_ while the VCPU is offline — leaving the safe-point running
 * set first, so exclusive sections never wait on a parked worker.
 */
void
Hypervisor::workerLoop(uint32_t vcpu)
{
    machine_.bindThread(vcpu);
    ExclusiveCoordinator *excl = machine_.exclusiveCoordinator();

    while (!stop_.load(std::memory_order_acquire)) {
        VmsaId id = curGet(vcpu);
        if (id == kInvalidVmsa) {
            std::unique_lock<std::mutex> lk(startMu_);
            if (stop_.load(std::memory_order_acquire) ||
                curGet(vcpu) != kInvalidVmsa) {
                continue;
            }
            excl->beginQuiescent();
            startCv_.wait(lk, [&] {
                return stop_.load(std::memory_order_acquire) ||
                       curGet(vcpu) != kInvalidVmsa;
            });
            // Drop startMu_ before rejoining the running set:
            // endQuiescent blocks on any in-flight exclusive section,
            // and other workers need startMu_ to stop/start VCPUs in
            // the meantime.
            lk.unlock();
            excl->endQuiescent();
            continue;
        }

        if (exitCap_ != 0 && stats_.exits >= exitCap_) {
            exitCapHit_.store(true, std::memory_order_relaxed);
            requestStop();
            break;
        }

        // Multicore ThreadPreempt is a *real* preemption: yield the
        // host thread at the charge boundary and let the OS scheduler
        // pick the interleaving (stochastic, unlike the single-threaded
        // deterministic stall).
        if (chaos_ != nullptr &&
            chaosRoll(chaos::FaultSite::ThreadPreempt, vcpu)) {
            std::this_thread::yield();
        }
        if (chaos_ != nullptr &&
            chaosRoll(chaos::FaultSite::SpuriousIntr, vcpu)) {
            machine_.injectVector(id);
        }

        VmExit e = machine_.enter(id);
        machine_.charge(machine_.costs().hvDispatch);
        ++stats_.exits;

        switch (e.reason) {
          case ExitReason::Halted:
            curSet(vcpu, kInvalidVmsa);
            if (allVcpusOffline())
                requestStop();
            break;
          case ExitReason::NpfHalt:
            requestStop();
            break;
          case ExitReason::AutomaticIntr:
            handleIntrExit(vcpu, e.vmsa);
            break;
          case ExitReason::NonAutomatic:
            relayNonAutomatic(vcpu, e.vmsa);
            break;
        }

        if (terminated_.load(std::memory_order_acquire) ||
            machine_.halted()) {
            requestStop();
        }
    }

    machine_.unbindThread();
}

void
Hypervisor::handleIntrExit(uint32_t vcpu, VmsaId exiting)
{
    const Vmsa &st = machine_.vmsaState(exiting);
    VmsaId target = exiting;

    if (st.vmpl == Vmpl::Vmpl2) {
        // Veil instructs the hypervisor to relay enclave interrupts to
        // DomUNT (§6.2). A malicious host that refuses re-enters the
        // enclave context, where the OS interrupt handler is
        // inaccessible — the CVM halts (Table 2).
        if (relayIntr_) {
            VmsaId unt = lookupVmsa(vcpu, Vmpl::Vmpl3);
            if (unt != kInvalidVmsa) {
                target = unt;
                ++stats_.intrRedirects;
                const Vmsa &unt_state = machine_.vmsaState(unt);
                if (unt_state.ghcbGpa != kNoGhcb) {
                    Ghcb g = view_.readGhcb(unt_state.ghcbGpa);
                    g.result = static_cast<uint64_t>(HvResult::IntrRedirect);
                    view_.writeGhcb(unt_state.ghcbGpa, g);
                }
            }
        }
    }

    machine_.injectVector(target);
    curSet(vcpu, target);
}

void
Hypervisor::handleGhcbExit(uint32_t vcpu, VmsaId exiting)
{
    const Vmsa &st = machine_.vmsaState(exiting);
    if (st.ghcbGpa == kNoGhcb)
        panic("hypervisor: non-automatic exit without a GHCB");

    Ghcb g = view_.readGhcb(st.ghcbGpa);
    auto code = static_cast<GhcbExit>(g.exitCode);
    g.result = static_cast<uint64_t>(HvResult::Ok);

    switch (code) {
      case GhcbExit::DomainSwitch: {
          uint32_t target_vcpu = static_cast<uint32_t>(g.info[0]);
          Vmpl target_vmpl = static_cast<Vmpl>(g.info[1] & 3);
          bool allowed = true;
          if (ghcbEnclaveOnly(st.ghcbGpa) &&
              target_vmpl != Vmpl::Vmpl2 && target_vmpl != Vmpl::Vmpl3) {
              allowed = false; // §6.2 errant-hypercall defense
          }
          if (target_vcpu != st.vcpuId)
              allowed = false; // switches replicate the *same* VCPU
          if (allowed && chaos_ != nullptr &&
              chaosRoll(chaos::FaultSite::SwitchDeny, vcpu)) {
              allowed = false; // hostile denial of a legitimate switch
          }
          bool doorbell = g.info[2] == kGhcbSwitchHintDoorbell;
          if (allowed && doorbell && chaos_ != nullptr &&
              chaosRoll(chaos::FaultSite::DoorbellDrop, vcpu)) {
              // Lost doorbell: the hint is advisory, so the hypervisor
              // may "miss" it. The guest's switch retry/backoff — or
              // Dom-SRV's opportunistic drain — recovers the batch.
              allowed = false;
          }
          VmsaId target = allowed ? lookupVmsa(target_vcpu, target_vmpl)
                                  : kInvalidVmsa;
          if (target != kInvalidVmsa && chaos_ != nullptr &&
              st.vmpl == Vmpl::Vmpl3 && !ghcbEnclaveOnly(st.ghcbGpa) &&
              chaosRoll(chaos::FaultSite::SwitchMisroute, vcpu)) {
              VmsaId alt = chaosPickMisroute(vcpu, target);
              if (alt != kInvalidVmsa)
                  target = alt;
          }
          if (target != kInvalidVmsa && st.vmpl == Vmpl::Vmpl1 &&
              doorbellLive_[vcpu]) {
              // Dom-SRV is returning from a doorbell-hinted entry. A
              // hostile scheduler may replay the doorbell: bounce the
              // return switch straight back into Dom-SRV, which must
              // treat the duplicate as an idempotent (empty) drain.
              doorbellLive_[vcpu] = 0;
              if (chaos_ != nullptr &&
                  chaosRoll(chaos::FaultSite::DoorbellDuplicate, vcpu)) {
                  target = lookupVmsa(vcpu, Vmpl::Vmpl1);
              }
          }
          if (target != kInvalidVmsa && doorbell &&
              target_vmpl == Vmpl::Vmpl1) {
              doorbellLive_[vcpu] = 1;
          }
          if (target == kInvalidVmsa) {
              g.result = static_cast<uint64_t>(HvResult::Denied);
              ++stats_.deniedSwitches;
              machine_.tracer().instantAt(
                  st.vcpuId, vmplIndex(st.vmpl),
                  trace::Category::DeniedSwitch,
                  static_cast<uint64_t>(target_vmpl));
          } else {
              curSet(vcpu, target);
              ++stats_.domainSwitches;
              machine_.tracer().instantAt(
                  st.vcpuId, vmplIndex(st.vmpl),
                  trace::Category::DomainSwitch,
                  static_cast<uint64_t>(target_vmpl));
          }
          break;
      }
      case GhcbExit::RegisterVmsa: {
          uint32_t target_vcpu = static_cast<uint32_t>(g.info[1]);
          Vmpl vmpl = static_cast<Vmpl>(g.info[2] & 3);
          VmsaId id = static_cast<VmsaId>(g.info[3]);
          registerVmsa(target_vcpu, vmpl, id);
          break;
      }
      case GhcbExit::StartVcpu: {
          uint32_t target_vcpu = static_cast<uint32_t>(g.info[0]);
          Vmpl vmpl = static_cast<Vmpl>(g.info[1] & 3);
          VmsaId id = lookupVmsa(target_vcpu, vmpl);
          if (id == kInvalidVmsa || target_vcpu >= current_.size()) {
              g.result = static_cast<uint64_t>(HvResult::Denied);
          } else {
              curSet(target_vcpu, id);
              ++stats_.vcpuStarts;
              if (machine_.multicore()) {
                  // Wake the target VCPU's worker if it is parked
                  // offline. Lock-then-notify pairs with the worker's
                  // predicate re-check under startMu_.
                  { std::lock_guard<std::mutex> guard(startMu_); }
                  startCv_.notify_all();
              }
          }
          break;
      }
      case GhcbExit::PageStateChange: {
          bool to_shared = g.info[1] != 0;
          // info[2] entries (0 reads as 1) of info[3]-selected size
          // (ghcb.hh). The guest chose them: a request past the PSC
          // buffer or guest memory is refused before any RMPUPDATE.
          uint64_t count = g.info[2] > 1 ? g.info[2] : 1;
          bool size2m = g.info[3] != 0;
          Gpa step = size2m ? kPageSize2m : kPageSize;
          Gpa base = size2m ? pageAlignDown2m(g.info[0])
                            : pageAlignDown(g.info[0]);
          if (count > kPscMaxEntries ||
              !machine_.memory().contains(base, count * step)) {
              g.result = static_cast<uint64_t>(HvResult::Denied);
              break;
          }
          // Host-side RMPUPDATE needs the completion protocol: run it
          // as exclusive work so every VCPU thread is parked at a safe
          // point (and sees the new entry on resume) before it changes.
          machine_.exclusive([&] {
              RmpTable &rmp = machine_.rmp();
              for (uint64_t i = 0; i < count; ++i) {
                  Gpa a = base + i * step;
                  if (size2m) {
                      if (!to_shared) {
                          // Acceptance of unaccepted memory: the assign
                          // IS the to-private transition (fresh entries
                          // are already unshared). An assigned-but-
                          // shared region demotes to per-page updates.
                          if (!rmp.isAssigned(a)) {
                              rmp.hvAssign2m(a);
                          } else if (rmp.isShared(a)) {
                              for (size_t j = 0; j < kPagesPer2m; ++j)
                                  rmp.hvSetShared(a + j * kPageSize,
                                                  false);
                          }
                      } else {
                          for (size_t j = 0; j < kPagesPer2m; ++j)
                              rmp.hvSetShared(a + j * kPageSize, true);
                      }
                  } else if (!to_shared && !rmp.isAssigned(a)) {
                      rmp.hvAssign(a);
                  } else {
                      rmp.hvSetShared(a, to_shared);
                  }
              }
          });
          if (count > 1) {
              // Extra entries ride the one exit: charge the per-entry
              // parse/RMPUPDATE cost (a single entry costs none, keeping
              // default cycles untouched).
              machine_.charge(machine_.costs().pscPerEntry * (count - 1));
              ++machine_.stats().pscBatches;
              machine_.stats().pscBatchedPages +=
                  count * (size2m ? kPagesPer2m : 1);
          }
          ++stats_.pageStateChanges;
          break;
      }
      case GhcbExit::ConsoleWrite: {
          Gpa buf = g.info[0];
          size_t len = static_cast<size_t>(g.info[1]);
          if (len > kPageSize || !view_.isShared(buf, len)) {
              g.result = static_cast<uint64_t>(HvResult::Denied);
              break;
          }
          std::string text(len, '\0');
          view_.read(buf, text.data(), len);
          {
              std::lock_guard<std::mutex> guard(consoleMu_);
              console_ += text;
          }
          ++stats_.consoleWrites;
          break;
      }
      case GhcbExit::Terminate:
        status_.store(g.info[0], std::memory_order_relaxed);
        terminated_.store(true, std::memory_order_release);
        break;
      case GhcbExit::RestrictGhcb:
        restrictGhcbToEnclaveSwitches(g.info[0]);
        break;
      case GhcbExit::None:
        break;
    }

    if (chaos_ != nullptr && chaosRoll(chaos::FaultSite::GhcbTamper, vcpu)) {
        // The GHCB is shared memory the host may scribble at will. The
        // result word is the guest's only completion signal, so tamper
        // with exactly the values that exercise its decision points:
        // a fake denial, a fake redirect, a fake "never handled"
        // sentinel, or arbitrary garbage.
        switch (chaosPick(4)) {
          case 0:
            g.result = static_cast<uint64_t>(HvResult::Denied);
            break;
          case 1:
            g.result = static_cast<uint64_t>(HvResult::IntrRedirect);
            break;
          case 2:
            g.result = kGhcbNoResult;
            break;
          default:
            g.result = chaosPick(~uint64_t(0));
            break;
        }
    }

    view_.writeGhcb(st.ghcbGpa, g);
}

} // namespace veil::hv
