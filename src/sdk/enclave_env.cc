#include "sdk/enclave_env.hh"

#include <cstring>

#include "base/log.hh"
#include "snp/fault.hh"
#include "veil/proto.hh"

namespace veil::sdk {

using namespace snp;
using namespace kern;

namespace {
constexpr uint64_t kOcallDispatchCycles = 500;
/// Spin-wait handoff cost in exitless mode (shared-memory polling).
constexpr uint64_t kExitlessPollCycles = 900;
/// Fenced re-exit budget for spurious resumes (DESIGN.md §10). Larger
/// than any chaos fault budget, so a hostile host that keeps resuming
/// the enclave early still converges to a Killed verdict, not a spin.
constexpr int kSpuriousResumeBudget = 24;
/// Marshal + ring-publish cost of one async submission (§11): no
/// VMGEXIT, no state save/restore, small payload copy.
constexpr uint64_t kAsyncSubmitCycles = 250;
} // namespace

EnclaveEnv::EnclaveEnv(Vcpu &cpu, const EnclaveConfig &cfg,
                       const ExitlessWorker *worker)
    : cpu_(cpu), cfg_(cfg), heap_(cfg.heapLo, cfg.heapHi), worker_(worker)
{
}

bool
EnclaveEnv::insideEnclave(Gva va) const
{
    return va >= cfg_.enclaveLo && va < cfg_.enclaveHi;
}

void
EnclaveEnv::raiseFault(Gva va)
{
    ++stats_.faults;
    // Write the fault request into the ocall block and exit to the
    // untrusted world; the OS restores/syncs the page via VeilS-ENC.
    OcallHeader hdr;
    hdr.state = static_cast<uint32_t>(OcallState::FaultReq);
    hdr.faultVa = va;
    cpu_.write(cfg_.ocallGva, &hdr, kHeaderBytes);
    exitToApp();
    uint32_t state;
    cpu_.read(cfg_.ocallGva, &state, sizeof(state));
    // Fenced spurious-resume recovery: a state word still holding our
    // own FaultReq proves the OS never observed the request (a stale or
    // tampered switch result resumed us early), so re-presenting it is
    // idempotent. Any other unexpected state is a protocol violation.
    for (int resume = 0;
         state == static_cast<uint32_t>(OcallState::FaultReq) &&
         resume < kSpuriousResumeBudget;
         ++resume) {
        ++stats_.spuriousResumes;
        exitToApp();
        cpu_.read(cfg_.ocallGva, &state, sizeof(state));
    }
    int64_t ret;
    cpu_.read(cfg_.ocallGva + offsetof(OcallHeader, ret), &ret, sizeof(ret));
    if (state != static_cast<uint32_t>(OcallState::FaultDone) || ret != 0)
        throw EnclaveKilled("unresolvable page fault");
}

void
EnclaveEnv::guardedRead(Gva va, void *out, size_t len)
{
    for (int attempt = 0; attempt < 8; ++attempt) {
        try {
            cpu_.read(va, out, len);
            return;
        } catch (const GuestPageFault &f) {
            raiseFault(pageAlignDown(f.gva));
        }
    }
    throw EnclaveKilled("persistent page fault");
}

void
EnclaveEnv::guardedWrite(Gva va, const void *data, size_t len)
{
    for (int attempt = 0; attempt < 8; ++attempt) {
        try {
            cpu_.write(va, data, len);
            return;
        } catch (const GuestPageFault &f) {
            raiseFault(pageAlignDown(f.gva));
        }
    }
    throw EnclaveKilled("persistent page fault");
}

Gva
EnclaveEnv::alloc(size_t len)
{
    Gva p = heap_.malloc(len);
    if (p == 0)
        throw EnclaveKilled("enclave heap exhausted");
    // Zero-fill like mmap'd memory (chunks may be recycled).
    static const uint8_t zeros[4096] = {};
    size_t off = 0;
    size_t total = heap_.sizeOf(p);
    while (off < total) {
        size_t take = std::min(total - off, sizeof(zeros));
        guardedWrite(p + off, zeros, take);
        off += take;
    }
    return p;
}

void
EnclaveEnv::release(Gva p, size_t len)
{
    heap_.free(p);
}

void
EnclaveEnv::copyIn(Gva dst, const void *src, size_t len)
{
    guardedWrite(dst, src, len);
}

void
EnclaveEnv::copyOut(Gva src, void *dst, size_t len)
{
    guardedRead(src, dst, len);
}

uint32_t
EnclaveEnv::readState()
{
    uint32_t state;
    cpu_.read(cfg_.ocallGva, &state, sizeof(state));
    return state;
}

void
EnclaveEnv::writeState(OcallState s)
{
    uint32_t v = static_cast<uint32_t>(s);
    cpu_.write(cfg_.ocallGva, &v, sizeof(v));
}

void
EnclaveEnv::writeDoneResult(int64_t ret)
{
    cpu_.write(cfg_.ocallGva + offsetof(OcallHeader, ret), &ret, sizeof(ret));
    // Report SDK statistics for the benchmark harness.
    uint64_t stats[4] = {stats_.ocalls, stats_.marshalCycles,
                         stats_.switchCycles, stats_.exitlessCalls};
    cpu_.write(cfg_.ocallGva + offsetof(OcallHeader, statOcalls), stats,
               sizeof(stats));
    if (cfg_.asyncOcalls != 0) {
        cpu_.write(cfg_.ocallGva + offsetof(OcallBlock, statAsync),
                   &stats_.asyncCalls, sizeof(stats_.asyncCalls));
    }
    writeState(OcallState::EnclaveDone);
}

void
EnclaveEnv::exitToApp()
{
    uint64_t t0 = cpu_.rdtsc();
    core::domainSwitch(cpu_, Vmpl::Vmpl3);
    stats_.switchCycles += cpu_.rdtsc() - t0;
}

int64_t
EnclaveEnv::sysRaw(uint32_t no, const uint64_t in_args[6])
{
    const SyscallSpec *spec = findSpec(no);
    if (!spec || !spec->supported) {
        // The prototype kills the enclave on unsupported calls (§7).
        throw EnclaveKilled("unsupported syscall");
    }

    // Large-buffer I/O is transparently split into ocall-sized pieces
    // (like musl-SGX shims); applies to the single-buffer data calls.
    constexpr size_t kChunkCap = kOcallDataMax - 512;
    bool chunkable = no == kSysRead || no == kSysWrite || no == kSysPread64 ||
                     no == kSysPwrite64 || no == kSysSendto ||
                     no == kSysRecvfrom;
    if (chunkable && in_args[2] > kChunkCap) {
        bool positioned = no == kSysPread64 || no == kSysPwrite64;
        uint64_t done = 0;
        uint64_t total = in_args[2];
        while (done < total) {
            uint64_t take = std::min<uint64_t>(kChunkCap, total - done);
            uint64_t args[6];
            std::memcpy(args, in_args, sizeof(args));
            args[1] = in_args[1] + done;
            args[2] = take;
            if (positioned)
                args[3] = in_args[3] + done;
            int64_t r = sysOnce(no, spec, args);
            if (r < 0)
                return done > 0 ? int64_t(done) : r;
            done += uint64_t(r);
            if (uint64_t(r) < take)
                break; // short read/write
        }
        return int64_t(done);
    }
    return sysOnce(no, spec, in_args);
}

int64_t
EnclaveEnv::sysOnce(uint32_t no, const SyscallSpec *spec,
                    const uint64_t in_args[6])
{
    cpu_.burn(kOcallDispatchCycles);

    uint64_t t0 = cpu_.rdtsc();
    uint64_t args[6];
    std::memcpy(args, in_args, sizeof(args));
    uint64_t wire[6];
    std::memcpy(wire, args, sizeof(wire));

    // ---- marshal: deep-copy enclave-side data into the ocall area ----
    uint8_t data[kOcallDataMax];
    size_t off = 0;
    struct OutCopy
    {
        Gva dst;
        size_t offset;
        size_t len;
        bool bounded_by_ret;
    };
    OutCopy outs[6];
    size_t n_outs = 0;

    auto reserve = [&](size_t len) -> size_t {
        if (off + len > kOcallDataMax)
            throw EnclaveKilled("ocall payload too large");
        size_t at = off;
        off += len;
        return at;
    };

    for (unsigned i = 0; i < spec->nargs; ++i) {
        const ArgSpec &a = spec->args[i];
        switch (a.kind) {
          case ArgKind::None:
          case ArgKind::Value:
            break;
          case ArgKind::CStr: {
              // Bounded string copy out of the enclave.
              char tmp[512];
              size_t n = 0;
              for (; n < sizeof(tmp) - 1; ++n) {
                  guardedRead(args[i] + n, &tmp[n], 1);
                  if (tmp[n] == '\0')
                      break;
              }
              tmp[n] = '\0';
              size_t at = reserve(n + 1);
              std::memcpy(data + at, tmp, n + 1);
              wire[i] = at;
              break;
          }
          case ArgKind::InBuf: {
              size_t len = static_cast<size_t>(args[a.lenArg]);
              size_t at = reserve(len);
              guardedRead(args[i], data + at, len);
              wire[i] = at;
              break;
          }
          case ArgKind::OutBuf: {
              size_t len = static_cast<size_t>(args[a.lenArg]);
              size_t at = reserve(len);
              wire[i] = at;
              outs[n_outs++] = OutCopy{args[i], at, len, true};
              break;
          }
          case ArgKind::InStruct: {
              size_t at = reserve(a.fixedLen);
              guardedRead(args[i], data + at, a.fixedLen);
              wire[i] = at;
              break;
          }
          case ArgKind::OutStruct: {
              size_t at = reserve(a.fixedLen);
              wire[i] = at;
              outs[n_outs++] = OutCopy{args[i], at, a.fixedLen, false};
              break;
          }
        }
    }

    // Write the request (header + used data prefix only).
    OcallHeader hdr;
    hdr.state = static_cast<uint32_t>(OcallState::SyscallReq);
    hdr.sysno = no;
    std::memcpy(hdr.args, wire, sizeof(wire));
    hdr.dataLen = static_cast<uint32_t>(off);
    cpu_.write(cfg_.ocallGva, &hdr, kHeaderBytes);
    if (off > 0)
        cpu_.write(cfg_.ocallGva + offsetof(OcallBlock, data), data, off);
    stats_.marshalCycles += cpu_.rdtsc() - t0;

    // Exitless handling only covers data-plane calls: anything that can
    // itself require a domain switch inside the kernel (memory-map
    // changes synchronized into the clone tables) keeps the exit path.
    bool exitless_ok = no == kSysRead || no == kSysWrite ||
                       no == kSysPread64 || no == kSysPwrite64 ||
                       no == kSysLseek || no == kSysFsync ||
                       no == kSysSendto || no == kSysRecvfrom ||
                       no == kSysPoll || no == kSysGetpid ||
                       no == kSysStat || no == kSysFstat ||
                       no == kSysClockGettime;
    if (cfg_.exitless && exitless_ok && worker_ && *worker_) {
        // Exitless handling (§10): the request sits in shared memory; a
        // worker thread on another VCPU services it while the enclave
        // spins — no VMGEXIT, no state save/restore.
        cpu_.burn(kExitlessPollCycles);
        int64_t r = (*worker_)();
        OcallHeader done;
        done.state = static_cast<uint32_t>(OcallState::SyscallDone);
        done.ret = r;
        cpu_.write(cfg_.ocallGva, &done, kHeaderBytes);
        ++stats_.exitlessCalls;
    } else {
        exitToApp();
    }

    // ---- unmarshal ----
    OcallHeader resp;
    cpu_.read(cfg_.ocallGva, &resp, kHeaderBytes);
    // Fenced spurious-resume recovery (DESIGN.md §10): the state word
    // still holding our own SyscallReq proves the untrusted world never
    // observed the request — a stale or tampered switch result resumed
    // us early — so re-presenting the untouched request is idempotent.
    // Any other unexpected state means the block was corrupted, and the
    // enclave must die rather than trust it.
    for (int resume = 0;
         resp.state == static_cast<uint32_t>(OcallState::SyscallReq) &&
         resume < kSpuriousResumeBudget;
         ++resume) {
        ++stats_.spuriousResumes;
        exitToApp();
        cpu_.read(cfg_.ocallGva, &resp, kHeaderBytes);
    }
    if (resp.state != static_cast<uint32_t>(OcallState::SyscallDone))
        throw EnclaveKilled("ocall protocol violation");
    uint64_t t1 = cpu_.rdtsc();
    int64_t ret = resp.ret;

    for (size_t i = 0; i < n_outs; ++i) {
        size_t len = outs[i].len;
        if (outs[i].bounded_by_ret) {
            if (ret <= 0)
                continue;
            len = std::min<size_t>(len, static_cast<size_t>(ret));
        }
        // The request's payload is dead: stage the reply in place.
        uint8_t *staged = data + outs[i].offset;
        cpu_.read(cfg_.ocallGva + offsetof(OcallBlock, data) + outs[i].offset,
                  staged, len);
        guardedWrite(outs[i].dst, staged, len);
    }

    // ---- IAGO sanitization (§6.2): returned pointers must lie
    // outside the enclave ----
    if (spec->ret == RetKind::Pointer && ret > 0 &&
        insideEnclave(static_cast<Gva>(ret))) {
        throw EnclaveKilled("IAGO: OS returned an enclave pointer");
    }

    ++stats_.ocalls;
    stats_.marshalCycles += cpu_.rdtsc() - t1;
    // Natural harvest boundary: the app drained the async ring before
    // servicing this sync request, so completions are waiting.
    asyncHarvest();
    return ret;
}

int64_t
EnclaveEnv::sysAsyncRaw(uint32_t no, const uint64_t in_args[6])
{
    // Async submission is only legal for fire-and-forget data-plane
    // calls: bounded input payload, no out-params, result unused by the
    // caller. Everything else silently degrades to the sync path, so
    // call sites never need to know which mode is active.
    bool eligible = cfg_.asyncOcalls != 0 &&
                    (no == kSysWrite || no == kSysPwrite64 ||
                     no == kSysSendto || no == kSysFsync);
    const SyscallSpec *spec = findSpec(no);
    if (!eligible || !spec || !spec->supported)
        return sysRaw(no, in_args);

    // Backpressure: with all slots in flight the enclave cannot wait
    // (only an exit lets the app run), so fall back to a sync call —
    // the app drains the ring first, preserving submission order.
    uint64_t tail;
    cpu_.read(cfg_.ocallGva + offsetof(OcallBlock, asyncTail), &tail,
              sizeof(tail));
    if (asyncHead_ - tail >= kAsyncSlots)
        return sysRaw(no, in_args);

    // Marshal into the slot: Value args pass through, input payloads
    // deep-copy into the slot's data area as wire offsets. Anything
    // that doesn't fit the slot goes sync.
    AsyncOcallSlot slot;
    slot.sysno = no;
    size_t off = 0;
    int64_t optimistic = 0;
    for (unsigned i = 0; i < spec->nargs; ++i) {
        const ArgSpec &a = spec->args[i];
        switch (a.kind) {
          case ArgKind::None:
          case ArgKind::Value:
            slot.args[i] = in_args[i];
            break;
          case ArgKind::InBuf: {
              size_t len = static_cast<size_t>(in_args[a.lenArg]);
              if (off + len > kAsyncDataMax)
                  return sysRaw(no, in_args);
              guardedRead(in_args[i], slot.data + off, len);
              slot.args[i] = off;
              off += len;
              optimistic = static_cast<int64_t>(len);
              break;
          }
          default:
            return sysRaw(no, in_args); // out-params can't be deferred
        }
    }
    slot.dataLen = static_cast<uint32_t>(off);

    Gva slot_gva = cfg_.ocallGva + offsetof(OcallBlock, asyncSlots) +
                   (asyncHead_ % kAsyncSlots) * sizeof(AsyncOcallSlot);
    cpu_.write(slot_gva, &slot,
               offsetof(AsyncOcallSlot, data) + slot.dataLen);
    ++asyncHead_;
    cpu_.write(cfg_.ocallGva + offsetof(OcallBlock, asyncHead), &asyncHead_,
               sizeof(asyncHead_));
    cpu_.burn(kAsyncSubmitCycles);
    ++stats_.asyncCalls;
    return optimistic;
}

uint64_t
EnclaveEnv::asyncHarvest()
{
    if (cfg_.asyncOcalls == 0)
        return 0;
    uint64_t tail;
    cpu_.read(cfg_.ocallGva + offsetof(OcallBlock, asyncTail), &tail,
              sizeof(tail));
    uint64_t n = 0;
    while (asyncHarvested_ < tail) {
        AsyncOcallCpl cpl;
        cpu_.read(cfg_.ocallGva + offsetof(OcallBlock, asyncCpl) +
                      (asyncHarvested_ % kAsyncSlots) * sizeof(cpl),
                  &cpl, sizeof(cpl));
        if (cpl.ret < 0)
            ++stats_.asyncErrors; // fire-and-forget: count, don't raise
        ++asyncHarvested_;
        ++n;
    }
    return n;
}

void
enclaveRuntimeMain(Vcpu &cpu, const EnclaveProgram &program,
                   const ExitlessWorker *worker)
{
    EnclaveConfig cfg = cpu.readObj<EnclaveConfig>(kEnclaveBase);
    ensure(cfg.magic == EnclaveConfig{}.magic,
           "enclave runtime: bad config page");
    EnclaveEnv env(cpu, cfg, worker);

    bool killed = false;
    for (;;) {
        uint32_t state = env.readState();
        if (state == static_cast<uint32_t>(OcallState::CallReq) && !killed) {
            int64_t ret = -1;
            try {
                ret = program(env);
                env.writeDoneResult(ret);
            } catch (const EnclaveKilled &) {
                killed = true;
                env.writeState(OcallState::Killed);
            }
        } else if (killed) {
            env.writeState(OcallState::Killed);
        }
        env.exitToApp();
    }
}

} // namespace veil::sdk
