/**
 * @file
 * Application-side enclave API (the untrusted half of the SDK, §6.2):
 * builds the enclave image in the process address space, asks the
 * kernel driver to install and finalize it, drives enclave entry/exit
 * sessions, services redirected syscalls and page faults, and verifies
 * the VeilS-ENC measurement against the locally computed expectation.
 */
#ifndef VEIL_SDK_ENCLAVE_API_HH_
#define VEIL_SDK_ENCLAVE_API_HH_

#include <map>

#include "crypto/sha256.hh"
#include "sdk/enclave_env.hh"
#include "sdk/native_env.hh"

namespace veil::sdk {

/** Host-side registry mapping program ids to enclave entry functions
 *  (the behavioural half of the measured enclave binary). */
class ProgramRegistry
{
  public:
    uint64_t add(EnclaveProgram program);
    const EnclaveProgram *find(uint64_t id) const;

    /** Attach an exitless worker serving this program's syscalls. */
    void setWorker(uint64_t id, ExitlessWorker worker);
    const ExitlessWorker *worker(uint64_t id) const;

  private:
    std::map<uint64_t, EnclaveProgram> programs_;
    std::map<uint64_t, ExitlessWorker> workers_;
    uint64_t next_ = 1;
};

/**
 * Host-side handle to a sealed enclave template (§13): everything a
 * later process needs to instantiate and verify a CoW clone without
 * re-measuring — the template's config (VA window, ocall GVA, program
 * id) plus the expected attestation measurement, which every clone
 * shares with its template.
 */
struct EnclaveSnapshot
{
    uint64_t snapshotId = 0;
    uint64_t pages = 0;
    EnclaveConfig cfg;
    crypto::Digest expectedMeasurement{};
};

/** Drives one enclave from the untrusted application. */
class EnclaveHost
{
  public:
    struct Params
    {
        Params() {}
        size_t codePages = 16;
        size_t heapPages = 512;
        size_t stackPages = 16;
        /// Service syscalls via a spinning worker thread instead of
        /// domain switches (§10 exitless handling).
        bool exitless = false;
        /// Fire-and-forget syscalls queue in the ocall block's async
        /// ring; the enclave continues without exiting (§11 async mode).
        bool asyncOcalls = false;
    };

    EnclaveHost(NativeEnv &app_env, ProgramRegistry &registry);

    /** Install + finalize the enclave; false on rejection. */
    bool create(EnclaveProgram program, const Params &params = {});

    /** Seal this (finalized, fully resident) enclave as a CoW template. */
    bool snapshot(EnclaveSnapshot &out);

    /**
     * Instantiate this host's enclave as a copy-on-write clone of
     * @p snap: no image build, no measurement pass — shared frames are
     * mapped read-only and privatized on first write (§13). The ocall
     * block is mapped at the template's GVA (the measured config page
     * points the enclave at it).
     */
    bool createFromSnapshot(const EnclaveSnapshot &snap);

    /** Drop the kernel's handle reference on a sealed template. */
    int64_t releaseSnapshot(uint64_t snapshot_id);

    /** Enter the enclave and run its entry to completion. */
    int64_t call();

    /** Tear the enclave down (ioctl to the driver). */
    int64_t destroy();

    bool alive() const { return alive_; }
    bool killed() const { return killed_; }
    uint64_t enclaveId() const { return enclaveId_; }
    const EnclaveConfig &config() const { return cfg_; }

    /** Measurement the remote user would expect for this image. */
    const crypto::Digest &expectedMeasurement() const { return expected_; }

    /** Fetch VeilS-ENC's measurement of the installed enclave. */
    crypto::Digest fetchMeasurement();

    /**
     * Hook run in app context after each serviced ocall — the analogue
     * of other processes (e.g. a benchmark client) getting scheduled
     * while the enclave waits for a syscall.
     */
    void setOcallHook(std::function<void()> hook) { ocallHook_ = std::move(hook); }

    // Session accounting (Fig. 5 cost attribution).
    uint64_t ocallsServed() const { return ocallsServed_; }
    uint64_t faultsServed() const { return faultsServed_; }
    /// Async-ring submissions serviced (no dedicated switch each).
    uint64_t asyncOcallsServed() const { return asyncServed_; }

    /** SDK-side statistics reported by the enclave at its last exit. */
    const EnclaveEnvStats &lastRunStats() const { return lastStats_; }

  private:
    int64_t runOcall(const OcallHeader &hdr);
    void drainAsyncOcalls();
    void writeHeader(const OcallHeader &hdr);
    OcallHeader readHeader();
    void computeExpectedMeasurement(const Bytes &config_page,
                                    const Bytes &code_bytes,
                                    const Params &params);

    NativeEnv &env_;
    ProgramRegistry &registry_;
    kern::Kernel &kernel_;
    kern::Process &proc_;
    EnclaveConfig cfg_;
    snp::Gva ocallGva_ = 0;
    uint64_t enclaveId_ = 0;
    bool alive_ = false;
    bool killed_ = false;
    crypto::Digest expected_{};
    uint64_t ocallsServed_ = 0;
    uint64_t faultsServed_ = 0;
    uint64_t asyncServed_ = 0;
    EnclaveEnvStats lastStats_;
    std::function<void()> ocallHook_;
};

} // namespace veil::sdk

#endif // VEIL_SDK_ENCLAVE_API_HH_
