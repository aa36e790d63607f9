/**
 * @file
 * VeilS-ENC: shielded program execution (§6.2).
 *
 * Implements the paper's in-process enclave model on VMPL:
 *  - initialization: scans the process page tables, enforces the two
 *    §6.2 invariants (one-to-one virtual->physical mapping; physical
 *    pages disjoint across enclaves), clones the user page tables into
 *    protected Dom-SRV memory, revokes Dom-UNT access to enclave
 *    pages, and measures contents + metadata (SHA-256);
 *  - secure collaborative memory management: page eviction with
 *    AES-128-CTR encryption and a fresh integrity tag, fault-driven
 *    restore with tag verification, permission-change mediation, and
 *    synchronization of non-enclave mappings into the cloned tables;
 *  - measurement reporting over the VeilMon secure channel.
 */
#ifndef VEIL_VEIL_SERVICES_ENC_HH_
#define VEIL_VEIL_SERVICES_ENC_HH_

#include <map>
#include <optional>
#include <set>

#include "base/spinlock.hh"
#include "crypto/aes.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "snp/paging.hh"
#include "veil/monitor.hh"

namespace veil::core {

/** User virtual-address window of mini-kernel processes. */
constexpr snp::Gva kUserVaLo = 0x0000000000400000ULL;
constexpr snp::Gva kUserVaHi = 0x0000000010000000ULL;

/**
 * Fold one enclave page into a launch measurement (§6.2): its VA, its
 * permission bits (@p pte & (PteWrite | PteNx | PteUser)) and its 4 KiB
 * of @p contents. VeilS-ENC measures every enclave page this way in
 * ascending VA order; the SDK replays the same rule from the launch
 * inputs to compute the digest a remote user expects.
 */
void measureEnclavePage(crypto::Sha256 &meas, snp::Gva va, uint64_t pte,
                        const uint8_t *contents);

/** Per-enclave protected metadata (conceptually in Dom-SRV memory). */
struct EnclaveInfo
{
    uint64_t id = 0;
    snp::Gpa processCr3 = 0;
    snp::Gpa cloneCr3 = 0;
    snp::Gva lo = 0, hi = 0; ///< enclave virtual range
    uint32_t vcpu = 0;
    snp::VmsaId vmsa = snp::kInvalidVmsa;
    snp::Gpa vmsaPage = 0;
    snp::Gpa ghcb = 0;
    uint64_t programId = 0;
    snp::Gva idtHandler = 0;
    /** Nonzero when this enclave shares frames with a snapshot (as the
     *  sealed source or as a CoW clone, §13). */
    uint64_t snapshotOf = 0;
    crypto::Digest measurement{};
    /**
     * Cached paging-key contexts, built once at enclave creation: the
     * expanded AES schedule and the HMAC ipad/opad midstates. Steady-state
     * page-out/page-in does no key expansion (DESIGN.md §7).
     */
    std::optional<crypto::Aes128> pagingAes;
    crypto::HmacKey pagingMac;
    uint64_t freshCounter = 1;

    struct Evicted
    {
        crypto::Digest tag{};
        uint64_t ctr = 0;
        uint64_t pteFlags = 0;
    };
    std::map<snp::Gva, Evicted> evicted;
    std::set<snp::Gpa> frames; ///< physical pages currently owned
    bool alive = true;
};

/**
 * A sealed copy-on-write enclave template (§13). The snapshot owns the
 * frames of the source enclave's image: every sharer (the sealed
 * source plus each clone) maps them read-only from its protected clone
 * tables; a write raises a #PF that the kernel resolves with
 * EncCloneFault into a per-clone private copy. Frames are scrubbed and
 * returned to Dom-UNT only when the last reference drops.
 */
struct SnapshotInfo
{
    uint64_t id = 0;
    snp::Gva lo = 0, hi = 0;
    uint64_t programId = 0;
    snp::Gva idtHandler = 0;
    crypto::Digest measurement{};

    struct Page
    {
        snp::Gpa frame = 0;
        uint64_t pteFlags = 0; ///< original PteWrite|PteNx|PteUser bits
    };
    std::map<snp::Gva, Page> pages;
    /** Sealed source + live clones + the kernel's snapshot handle. */
    uint64_t refs = 0;
    bool alive = true;
};

/** The shielded-execution protected service. */
class EncService
{
  public:
    EncService(snp::Machine &machine, const CvmLayout &layout,
               VeilMon &monitor);

    /** Dispatch an ENC IDCB request (runs on the Dom-SRV VCPU). */
    void handle(snp::Vcpu &cpu, IdcbMessage &msg);

    /** Introspection for tests. */
    const EnclaveInfo *info(uint64_t id) const;
    size_t liveEnclaves() const;
    const SnapshotInfo *snapshot(uint64_t id) const;

  private:
    void opCreate(snp::Vcpu &cpu, IdcbMessage &msg);
    void opDestroy(snp::Vcpu &cpu, IdcbMessage &msg);
    void opFreePage(snp::Vcpu &cpu, IdcbMessage &msg);
    void opRestorePage(snp::Vcpu &cpu, IdcbMessage &msg);
    void opMprotect(snp::Vcpu &cpu, IdcbMessage &msg);
    void opSyncPerms(snp::Vcpu &cpu, IdcbMessage &msg);
    void opGetMeasurement(snp::Vcpu &cpu, IdcbMessage &msg);
    void opSnapshot(snp::Vcpu &cpu, IdcbMessage &msg);
    void opClone(snp::Vcpu &cpu, IdcbMessage &msg);
    void opCloneFault(snp::Vcpu &cpu, IdcbMessage &msg);
    void opSnapshotRelease(snp::Vcpu &cpu, IdcbMessage &msg);

    void derivePagingKeys(EnclaveInfo &e);
    void snapshotDecref(snp::Vcpu &cpu, uint64_t snap_id);

    /**
     * §6.2 admission, the one check for a leaf the OS wrote before it
     * enters an enclave's protected tables: @p pte must be a user leaf
     * whose frame is OS memory (kernelBase up to the end of guest
     * memory: never VeilMon's or the services', never past the end) and
     * is neither a live enclave or sealed template frame
     * (allEnclaveFrames_) nor one of @p own, the request's own enclave
     * frames.
     */
    bool admitOsLeaf(uint64_t pte,
                     const std::set<snp::Gpa> *own = nullptr) const;
    /** Hand @p pa to @p e: VMPL-2 @p vmpl2, VMPL-3 none, tracked. */
    void grantFrame(snp::Vcpu &cpu, EnclaveInfo &e, snp::Gpa pa,
                    snp::PermMask vmpl2);
    /** Hand @p pa back to the OS: VMPL-2 none, VMPL-3 RW, untracked
     *  (the caller drops it from its owner's own frame set). */
    void returnFrame(snp::Vcpu &cpu, snp::Gpa pa);
    crypto::Digest pageTag(const EnclaveInfo &e, snp::Gva va, uint64_t ctr,
                           const uint8_t *plain) const;
    bool frameUsable(snp::Gpa pa) const;

    snp::Gpa allocSrvFrame();
    void freeSrvFrame(snp::Gpa p);

    snp::Machine &machine_;
    CvmLayout layout_;
    VeilMon &monitor_;
    snp::PageTableEditor srvEditor_;
    snp::Gpa nextSrvFrame_;
    std::vector<snp::Gpa> freeSrvFrames_;

    std::map<uint64_t, EnclaveInfo> enclaves_;
    std::map<uint64_t, SnapshotInfo> snapshots_;
    std::set<snp::Gpa> allEnclaveFrames_;
    std::set<snp::Gpa> snapFrames_; ///< frames owned by live snapshots
    uint64_t nextId_ = 1;
    uint64_t nextSnapId_ = 1;

    /**
     * Multicore dispatch lock (§13): in MT fleet mode several Dom-SRV
     * VCPUs dispatch ENC ops concurrently from their own host threads.
     * Waiters spin with cpu.burn(0) so they keep hitting safe-points
     * and cannot starve an exclusive section the holder is waiting on.
     * No-op in single-threaded mode (default paths stay bit-identical).
     */
    void lockMt(snp::Vcpu &cpu);
    void unlockMt();
    base::Spinlock mtMu_;
};

} // namespace veil::core

#endif // VEIL_VEIL_SERVICES_ENC_HH_
