#include "sdk/enclave_api.hh"

#include <cstring>

#include "base/log.hh"
#include "base/rng.hh"
#include "veil/proto.hh"
#include "veil/services/enc.hh"

namespace veil::sdk {

using namespace snp;
using namespace kern;
using core::IdcbMessage;
using core::VeilOp;
using core::VeilStatus;

namespace {
constexpr Gva kGhcbUserVa = 0x3ff0000;
} // namespace

uint64_t
ProgramRegistry::add(EnclaveProgram program)
{
    uint64_t id = next_++;
    programs_[id] = std::move(program);
    return id;
}

const EnclaveProgram *
ProgramRegistry::find(uint64_t id) const
{
    auto it = programs_.find(id);
    return it == programs_.end() ? nullptr : &it->second;
}

void
ProgramRegistry::setWorker(uint64_t id, ExitlessWorker worker)
{
    workers_[id] = std::move(worker);
}

const ExitlessWorker *
ProgramRegistry::worker(uint64_t id) const
{
    auto it = workers_.find(id);
    return it == workers_.end() ? nullptr : &it->second;
}

EnclaveHost::EnclaveHost(NativeEnv &app_env, ProgramRegistry &registry)
    : env_(app_env),
      registry_(registry),
      kernel_(app_env.kernel()),
      proc_(app_env.process())
{
}

void
EnclaveHost::computeExpectedMeasurement(const Bytes &config_page,
                                        const Bytes &code_bytes,
                                        const Params &params)
{
    // Replays VeilS-ENC's measurement over the launch inputs: every
    // enclave page in ascending VA order, with the user-PTE permissions
    // create() leaves it (config R, code R+X, heap and stack RW).
    constexpr uint64_t kReadOnly = PteUser | PteNx;
    constexpr uint64_t kExec = PteUser;
    constexpr uint64_t kReadWrite = PteUser | PteWrite | PteNx;
    crypto::Sha256 meas;
    Bytes zero_page(kPageSize, 0);
    Gva va = cfg_.enclaveLo;
    core::measureEnclavePage(meas, va, kReadOnly, config_page.data());
    va += kPageSize;
    for (size_t i = 0; i < params.codePages; ++i, va += kPageSize)
        core::measureEnclavePage(meas, va, kExec,
                                 code_bytes.data() + i * kPageSize);
    for (size_t i = 0; i < params.heapPages + params.stackPages;
         ++i, va += kPageSize)
        core::measureEnclavePage(meas, va, kReadWrite, zero_page.data());
    expected_ = meas.finish();
}

bool
EnclaveHost::create(EnclaveProgram program, const Params &params)
{
    ensure(!alive_, "EnclaveHost: already created");
    uint64_t program_id = registry_.add(std::move(program));

    size_t code_pages = params.codePages;
    size_t total_pages =
        1 + code_pages + params.heapPages + params.stackPages;

    cfg_ = EnclaveConfig{};
    cfg_.enclaveLo = kEnclaveBase;
    cfg_.enclaveHi = kEnclaveBase + total_pages * kPageSize;
    cfg_.heapLo = kEnclaveBase + (1 + code_pages) * kPageSize;
    cfg_.heapHi = cfg_.heapLo + params.heapPages * kPageSize;
    cfg_.stackLo = cfg_.heapHi;
    cfg_.stackHi = cfg_.stackLo + params.stackPages * kPageSize;
    cfg_.programId = program_id;
    cfg_.ghcbGva = kGhcbUserVa;
    cfg_.exitless = params.exitless ? 1 : 0;
    cfg_.asyncOcalls = params.asyncOcalls ? 1 : 0;
    if (params.exitless) {
        // The spinning worker services syscalls synchronously; it must
        // never need a nested domain switch, so VeilS-LOG auditing (an
        // IDCB round trip per in-session record) is incompatible.
        auto audit = kernel_.audit().backend();
        ensure(audit != kern::AuditBackend::VeilLog &&
                   audit != kern::AuditBackend::VeilLogBatched,
               "EnclaveHost: exitless mode is incompatible with VeilS-LOG "
               "auditing");
        // The worker runs in untrusted app context on another VCPU,
        // draining posted requests from the shared ocall block.
        registry_.setWorker(program_id, [this]() -> int64_t {
            drainAsyncOcalls();
            return runOcall(readHeader());
        });
    }

    // Shared ocall block (outside the enclave).
    ocallGva_ = env_.alloc(kOcallPages * kPageSize);
    cfg_.ocallGva = ocallGva_;

    // Lay out the enclave image: config+code (later R / R+X), then
    // heap and stack (RW). Installed by the OS, measured by VeilS-ENC.
    int64_t r = env_.sys(kSysMmap, cfg_.enclaveLo, (1 + code_pages) * kPageSize,
                         kPROT_READ | kPROT_WRITE,
                         kMAP_ANONYMOUS | kMAP_PRIVATE | kMAP_FIXED,
                         uint64_t(-1), 0);
    if (r < 0)
        return false;
    r = env_.sys(kSysMmap, cfg_.heapLo,
                 (params.heapPages + params.stackPages) * kPageSize,
                 kPROT_READ | kPROT_WRITE,
                 kMAP_ANONYMOUS | kMAP_PRIVATE | kMAP_FIXED, uint64_t(-1), 0);
    if (r < 0)
        return false;

    Bytes config_page(kPageSize, 0);
    std::memcpy(config_page.data(), &cfg_, sizeof(cfg_));
    env_.copyIn(cfg_.enclaveLo, config_page.data(), config_page.size());

    Rng code_rng(0xc0de0000ULL + program_id);
    Bytes code = code_rng.bytes(code_pages * kPageSize);
    env_.copyIn(cfg_.enclaveLo + kPageSize, code.data(), code.size());

    // Final page permissions (captured by the measurement).
    env_.sys(kSysMprotect, cfg_.enclaveLo, kPageSize, kPROT_READ);
    env_.sys(kSysMprotect, cfg_.enclaveLo + kPageSize,
             code_pages * kPageSize, kPROT_READ | kPROT_EXEC);

    computeExpectedMeasurement(config_page, code, params);

    // Install via the driver ioctl (§7 kernel module).
    VeilEnclaveCreateArgs args;
    args.vaLo = cfg_.enclaveLo;
    args.vaHi = cfg_.enclaveHi;
    args.programId = program_id;
    args.ocallGva = ocallGva_;
    args.ghcbGva = cfg_.ghcbGva;
    Gva staged = env_.stageBytes(&args, sizeof(args));
    int64_t ret = env_.sys(kSysIoctl, 0, kVeilIocEnclaveCreate, staged);
    if (ret != 0)
        return false;
    env_.copyOut(staged, &args, sizeof(args));
    enclaveId_ = args.enclaveId;
    alive_ = true;
    return true;
}

bool
EnclaveHost::snapshot(EnclaveSnapshot &out)
{
    ensure(alive_, "EnclaveHost: snapshot before create");
    VeilSnapshotArgs args;
    Gva staged = env_.stageBytes(&args, sizeof(args));
    int64_t ret = env_.sys(kSysIoctl, 0, kVeilIocEnclaveSnapshot, staged);
    if (ret != 0)
        return false;
    env_.copyOut(staged, &args, sizeof(args));
    out.snapshotId = args.snapshotId;
    out.pages = args.pages;
    out.cfg = cfg_;
    out.expectedMeasurement = expected_;
    return true;
}

bool
EnclaveHost::createFromSnapshot(const EnclaveSnapshot &snap)
{
    ensure(!alive_, "EnclaveHost: already created");
    cfg_ = snap.cfg;
    expected_ = snap.expectedMeasurement;

    // The measured config page points the enclave at the template's
    // ocall GVA and GHCB GVA; the clone process must present the same
    // user addresses (fresh frames — only the enclave image is shared).
    ocallGva_ = snap.cfg.ocallGva;
    int64_t r = env_.sys(kSysMmap, ocallGva_, kOcallPages * kPageSize,
                         kPROT_READ | kPROT_WRITE,
                         kMAP_ANONYMOUS | kMAP_PRIVATE | kMAP_FIXED,
                         uint64_t(-1), 0);
    if (r < 0)
        return false;

    VeilCloneArgs args;
    args.snapshotId = snap.snapshotId;
    args.ghcbGva = cfg_.ghcbGva;
    Gva staged = env_.stageBytes(&args, sizeof(args));
    int64_t ret = env_.sys(kSysIoctl, 0, kVeilIocEnclaveClone, staged);
    if (ret != 0)
        return false;
    env_.copyOut(staged, &args, sizeof(args));
    ensure(args.vaLo == cfg_.enclaveLo && args.vaHi == cfg_.enclaveHi,
           "EnclaveHost: clone window disagrees with the template config");
    enclaveId_ = args.enclaveId;
    alive_ = true;
    return true;
}

int64_t
EnclaveHost::releaseSnapshot(uint64_t snapshot_id)
{
    Gva staged = env_.stageBytes(&snapshot_id, sizeof(snapshot_id));
    return env_.sys(kSysIoctl, 0, kVeilIocSnapshotRelease, staged);
}

void
EnclaveHost::writeHeader(const OcallHeader &hdr)
{
    env_.copyIn(ocallGva_, &hdr, kHeaderBytes);
}

OcallHeader
EnclaveHost::readHeader()
{
    OcallHeader hdr;
    env_.copyOut(ocallGva_, &hdr, kHeaderBytes);
    return hdr;
}

int64_t
EnclaveHost::runOcall(const OcallHeader &hdr)
{
    const SyscallSpec *spec = findSpec(hdr.sysno);
    if (!spec || !spec->supported)
        return -kENOSYS;
    // Rewrite wire offsets into real pointers inside the ocall data
    // area; the kernel then reads/writes app memory directly.
    uint64_t args[6];
    std::memcpy(args, hdr.args, sizeof(args));
    Gva data_base = ocallGva_ + offsetof(OcallBlock, data);
    for (unsigned i = 0; i < spec->nargs; ++i) {
        switch (spec->args[i].kind) {
          case ArgKind::CStr:
          case ArgKind::InBuf:
          case ArgKind::OutBuf:
          case ArgKind::InStruct:
          case ArgKind::OutStruct:
            args[i] = data_base + args[i];
            break;
          default:
            break;
        }
    }
    ++ocallsServed_;
    return kernel_.syscall(proc_, hdr.sysno, args);
}

void
EnclaveHost::drainAsyncOcalls()
{
    if (cfg_.asyncOcalls == 0)
        return;
    uint64_t idx[2]; // {asyncHead, asyncTail} — adjacent in the block
    env_.copyOut(ocallGva_ + offsetof(OcallBlock, asyncHead), idx,
                 sizeof(idx));
    uint64_t head = idx[0], tail = idx[1];
    if (head == tail)
        return;
    ensure(head - tail <= kAsyncSlots, "async ocall ring corrupted");
    while (tail < head) {
        Gva slot_gva = ocallGva_ + offsetof(OcallBlock, asyncSlots) +
                       (tail % kAsyncSlots) * sizeof(AsyncOcallSlot);
        AsyncOcallSlot slot;
        env_.copyOut(slot_gva, &slot, sizeof(slot));

        int64_t ret;
        const SyscallSpec *spec = findSpec(slot.sysno);
        if (spec && spec->supported) {
            // Rewrite wire offsets into pointers at the slot's data
            // area, mirroring runOcall's sync-path marshalling.
            uint64_t args[6];
            std::memcpy(args, slot.args, sizeof(args));
            Gva data_base = slot_gva + offsetof(AsyncOcallSlot, data);
            for (unsigned i = 0; i < spec->nargs; ++i) {
                switch (spec->args[i].kind) {
                  case ArgKind::CStr:
                  case ArgKind::InBuf:
                  case ArgKind::InStruct:
                    args[i] = data_base + args[i];
                    break;
                  default:
                    break;
                }
            }
            ret = kernel_.syscall(proc_, slot.sysno, args);
        } else {
            ret = -kENOSYS;
        }

        AsyncOcallCpl cpl;
        cpl.seq = static_cast<uint32_t>(tail);
        cpl.ret = ret;
        env_.copyIn(ocallGva_ + offsetof(OcallBlock, asyncCpl) +
                        (tail % kAsyncSlots) * sizeof(cpl),
                    &cpl, sizeof(cpl));
        ++tail;
        env_.copyIn(ocallGva_ + offsetof(OcallBlock, asyncTail), &tail,
                    sizeof(tail));
        ++asyncServed_;
    }
}

int64_t
EnclaveHost::call()
{
    ensure(alive_, "EnclaveHost: call before create");
    kernel_.prepEnclaveRun(proc_);

    OcallHeader hdr;
    hdr.state = static_cast<uint32_t>(OcallState::CallReq);
    writeHeader(hdr);

    int64_t result = -1;
    for (;;) {
        core::domainSwitch(kernel_.cpu(), Vmpl::Vmpl2);
        // Drain queued async ocalls BEFORE looking at the sync state:
        // they were submitted earlier in program order, so servicing
        // them first keeps submission order == service order.
        drainAsyncOcalls();
        OcallHeader resp = readHeader();
        auto state = static_cast<OcallState>(resp.state);
        if (state == OcallState::SyscallReq) {
            int64_t r = runOcall(resp);
            if (ocallHook_)
                ocallHook_();
            OcallHeader done = resp;
            done.ret = r;
            done.state = static_cast<uint32_t>(OcallState::SyscallDone);
            writeHeader(done);
            continue;
        }
        if (state == OcallState::FaultReq) {
            ++faultsServed_;
            int64_t r = kernel_.enclaveHandleFault(proc_, resp.faultVa);
            OcallHeader done = resp;
            done.ret = r;
            done.state = static_cast<uint32_t>(OcallState::FaultDone);
            writeHeader(done);
            continue;
        }
        if (state == OcallState::EnclaveDone) {
            result = resp.ret;
            lastStats_.ocalls = resp.statOcalls;
            lastStats_.marshalCycles = resp.statMarshalCycles;
            lastStats_.switchCycles = resp.statSwitchCycles;
            lastStats_.exitlessCalls = resp.statExitless;
            if (cfg_.asyncOcalls != 0) {
                env_.copyOut(ocallGva_ + offsetof(OcallBlock, statAsync),
                             &lastStats_.asyncCalls,
                             sizeof(lastStats_.asyncCalls));
            }
            break;
        }
        if (state == OcallState::Killed) {
            killed_ = true;
            result = -kEPERM;
            break;
        }
        // Spurious resume; re-enter.
    }

    kernel_.finishEnclaveRun(proc_);
    return result;
}

int64_t
EnclaveHost::destroy()
{
    if (!alive_)
        return -kENOENT;
    int64_t r = env_.sys(kSysIoctl, 0, kVeilIocEnclaveDestroy, 0);
    if (r == 0)
        alive_ = false;
    return r;
}

crypto::Digest
EnclaveHost::fetchMeasurement()
{
    IdcbMessage m;
    m.op = static_cast<uint32_t>(VeilOp::EncGetMeasurement);
    m.args[0] = enclaveId_;
    kernel_.callService(m);
    ensure(m.status == static_cast<uint64_t>(VeilStatus::Ok) &&
               m.retPayloadLen >= 32,
           "EnclaveHost: measurement fetch failed");
    crypto::Digest d;
    std::memcpy(d.data(), m.retPayload, d.size());
    return d;
}

} // namespace veil::sdk
