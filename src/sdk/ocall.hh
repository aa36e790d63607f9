/**
 * @file
 * The ocall block: shared application memory through which the enclave
 * redirects system calls to the untrusted application (§6.2, the
 * OCALL analogue). Lives OUTSIDE the enclave range so both sides can
 * access it; all enclave-side pointers are rewritten to offsets into
 * its data area by the spec-driven marshaller.
 */
#ifndef VEIL_SDK_OCALL_HH_
#define VEIL_SDK_OCALL_HH_

#include <cstddef>
#include <cstdint>

#include "snp/types.hh"

namespace veil::sdk {

/** Ocall protocol states. */
enum class OcallState : uint32_t {
    Idle = 0,
    CallReq = 1,     ///< app asks the enclave to run its entry
    SyscallReq = 2,  ///< enclave asks the app to run a syscall
    SyscallDone = 3, ///< app completed the syscall
    FaultReq = 4,    ///< enclave page fault needs OS service (§6.2)
    FaultDone = 5,
    EnclaveDone = 6, ///< enclave entry returned
    Killed = 7,      ///< enclave killed (unsupported syscall etc.)
};

constexpr size_t kOcallDataMax = 12 * 1024;
constexpr size_t kOcallPages = 4;

// ---- Async ocall ring (§11 async mode) ----

constexpr size_t kAsyncSlots = 8;     ///< SPSC ring capacity
constexpr size_t kAsyncDataMax = 256; ///< per-slot marshalled payload cap

/** One queued fire-and-forget syscall (enclave → app). */
struct AsyncOcallSlot
{
    uint32_t sysno = 0;
    uint32_t dataLen = 0;
    uint64_t args[6] = {};
    uint8_t data[kAsyncDataMax] = {};
};

/** Completion for one async slot (app → enclave). */
struct AsyncOcallCpl
{
    uint32_t seq = 0;
    uint32_t pad = 0;
    int64_t ret = 0;
};

/**
 * The part of the ocall block both sides exchange on every request and
 * reply (kHeaderBytes). Only this header crosses per round trip; the
 * marshalled payload moves separately, dataLen bytes of OcallBlock::data.
 */
struct OcallHeader
{
    uint32_t state = 0;
    uint32_t sysno = 0;
    uint64_t args[6] = {};
    int64_t ret = 0;
    uint64_t faultVa = 0;
    /// SDK statistics reported at EnclaveDone (Fig. 5 cost split).
    uint64_t statOcalls = 0;
    uint64_t statMarshalCycles = 0;
    uint64_t statSwitchCycles = 0;
    uint64_t statExitless = 0;
    uint32_t dataLen = 0;
    uint32_t pad = 0;
};

constexpr size_t kHeaderBytes = sizeof(OcallHeader);

/** POD block at a fixed app VA; fits in kOcallPages pages. */
struct OcallBlock
{
    OcallHeader hdr;
    uint8_t data[kOcallDataMax] = {};

    // Async ring, appended so every pre-existing field offset (and the
    // kHeaderBytes prefix both sides exchange) is unchanged. The
    // enclave produces slots and advances asyncHead; the app consumes
    // them at its next natural boundary — any sync ocall, fault, or
    // session exit — posts completions, and advances asyncTail.
    uint64_t asyncHead = 0;  ///< enclave-side producer index
    uint64_t asyncTail = 0;  ///< app-side consumer index
    uint64_t statAsync = 0;  ///< async submissions (reported at done)
    AsyncOcallSlot asyncSlots[kAsyncSlots] = {};
    AsyncOcallCpl asyncCpl[kAsyncSlots] = {};
};

static_assert(offsetof(OcallBlock, data) == 112 &&
                  kHeaderBytes == offsetof(OcallBlock, data),
              "the ocall header layout is part of the app/enclave ABI");
static_assert(sizeof(OcallBlock) <= kOcallPages * snp::kPageSize,
              "OcallBlock must fit its reservation");

/** Fixed enclave window base used by the SDK image builder. */
constexpr snp::Gva kEnclaveBase = 0x2000000;

/** Enclave image configuration page, placed at kEnclaveBase and
 *  covered by the measurement. */
struct EnclaveConfig
{
    uint64_t magic = 0x56454e43; // "VENC"
    uint64_t enclaveLo = 0;
    uint64_t enclaveHi = 0;
    uint64_t heapLo = 0;
    uint64_t heapHi = 0;
    uint64_t stackLo = 0;
    uint64_t stackHi = 0;
    uint64_t ocallGva = 0;
    uint64_t ghcbGva = 0;
    uint64_t programId = 0;
    /// Exitless syscall handling (§10 / FlexSC-style): post requests to
    /// shared memory and spin; an untrusted worker thread services them
    /// without a domain switch.
    uint64_t exitless = 0;
    /// Async ocalls (§11): fire-and-forget syscalls queue in the ocall
    /// block's async ring and the enclave continues without exiting;
    /// completions are harvested at the next natural boundary.
    uint64_t asyncOcalls = 0;
};

} // namespace veil::sdk

#endif // VEIL_SDK_OCALL_HH_
