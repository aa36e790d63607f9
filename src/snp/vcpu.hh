/**
 * @file
 * The guest-side view of a VCPU instance. Every memory access made by
 * simulated guest software goes through this handle, which performs the
 * page-table walk (CPL semantics) followed by the RMP check (VMPL
 * semantics) — the two-layer "dual-factor" enforcement Veil builds its
 * privilege domains on (§5.1).
 */
#ifndef VEIL_SNP_VCPU_HH_
#define VEIL_SNP_VCPU_HH_

#include <string>

#include "snp/machine.hh"
#include "snp/paging.hh"

namespace veil::snp {

/** Guest execution handle bound to one VMSA. */
class Vcpu
{
  public:
    // The VMSA reference is resolved once: slots live in a deque, so
    // the address is stable for the machine's lifetime, and caching it
    // keeps the per-access path free of a bounds-checked slot lookup.
    Vcpu(Machine &machine, VmsaId id)
        : machine_(machine), id_(id), vmsa_(&machine.vmsaState(id))
    {}

    Machine &machine() const { return machine_; }
    VmsaId id() const { return id_; }
    Vmsa &vmsa() const { return *vmsa_; }
    uint32_t vcpuId() const { return vmsa().vcpuId; }
    Vmpl vmpl() const { return vmsa().vmpl; }
    Cpl cpl() const { return vmsa().cpl; }
    const CostModel &costs() const { return machine_.costs(); }

    // ---- Checked virtual-address access ----

    /** Read through the page tables + RMP; throws #PF / #NPF. */
    void read(Gva va, void *out, size_t len);

    /** Write through the page tables + RMP; throws #PF / #NPF. */
    void write(Gva va, const void *data, size_t len);

    template <typename T>
    T
    readObj(Gva va)
    {
        T v;
        read(va, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeObj(Gva va, const T &v)
    {
        write(va, &v, sizeof(T));
    }

    /** Read a NUL-terminated string (bounded). */
    std::string readCStr(Gva va, size_t max_len = 4096);

    /** Instruction-fetch check at @p va (NX + RMP exec permission). */
    void checkExec(Gva va);

    // ---- Checked physical access (CPL-0 software managing frames) ----

    void readPhys(Gpa pa, void *out, size_t len);
    void writePhys(Gpa pa, const void *data, size_t len);
    void zeroPhys(Gpa page);
    /** The RMP check of a physical access alone (no charge, no data):
     *  throws #NPF on a violation. */
    void checkRmp(Gpa pa, size_t len, Access access);

    // ---- Privileged instructions ----

    /**
     * RMPADJUST (charges the per-page cost incl. page touch). Pass
     * @p warm when the page was just touched by a previous adjust so
     * only the instruction cost is charged.
     */
    void rmpadjust(Gpa page, Vmpl target, PermMask perms, bool warm = false);

    /** PVALIDATE (VMPL-0 only; see RmpTable). */
    void pvalidate(Gpa page, bool validate);

    /** PVALIDATE with the 2 MiB size bit (one region, one charge). */
    void pvalidate2m(Gpa base, bool validate);

    /** RMPADJUST against a 2 MiB RMP entry (whole region). */
    void rmpadjust2m(Gpa base, Vmpl target, PermMask perms,
                     bool warm = false);

    /**
     * Create a VMSA for a VCPU replica (RMPADJUST with the VMSA
     * attribute + slot registration). VMPL-0 only. The caller must
     * still register the VMSA with the hypervisor via GHCB.
     */
    VmsaId createVmsa(Gpa page, uint32_t vcpu_id, Vmpl vmpl, bool irq_masked,
                      GuestEntry entry);

    /** VMGEXIT: non-automatic exit; the GHCB must be populated. */
    void vmgexit();

    /** Convenience: write GHCB, VMGEXIT, return GHCB.result. */
    uint64_t hypercall(const Ghcb &request);

    // ---- Timing ----

    uint64_t rdtsc() const { return machine_.tsc(); }

    /** Consume computation cycles; may deliver a timer interrupt. */
    void burn(uint64_t cycles);

    // ---- GHCB MSR and contents ----

    void wrmsrGhcb(Gpa gpa);
    Gpa ghcbGpa() const { return vmsa().ghcbGpa; }
    Ghcb readGhcb();
    void writeGhcb(const Ghcb &g);

    // ---- Ring / address-space control (SYSRET/IRET analogue) ----

    void setCpl(Cpl cpl) { vmsa().cpl = cpl; }

    /** mov cr3: switches the address space; the next access walks it. */
    void setCr3(Gpa cr3) { vmsa().cr3 = cr3; }

    // ---- Attestation (SNP guest request to the PSP) ----

    AttestationReport attest(const ReportData &report_data);

  private:
    void accessVirtual(Gva va, void *buf, size_t len, Access access);

    /**
     * Combined walk + RMP check: the one translation primitive behind
     * read/write/checkExec. Throws #PF on a paging violation and #NPF
     * on an RMP violation, of the page or of a table page the walk
     * reads.
     */
    Gpa translateChecked(Gva va, Access access) const;

    void checkPhysPrivilege(Gpa pa, size_t len);

    Machine &machine_;
    VmsaId id_;
    Vmsa *vmsa_;
};

} // namespace veil::snp

#endif // VEIL_SNP_VCPU_HH_
