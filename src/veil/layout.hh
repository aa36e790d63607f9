/**
 * @file
 * Guest-physical memory layout of a Veil CVM.
 *
 * Regions (low to high):
 *   page 0          reserved (never mapped; cr3==0 sentinel safety)
 *   image           VeilMon + protected services boot image (measured)
 *   mon region      DomMON working memory: VMSA pool, monitor state
 *   boot GHCB       pre-shared GHCB for the boot VCPU (VeilMon)
 *   srv region      DomSRV working memory: log store, enclave page-table
 *                   frames, staging buffers, SRV<->MON IDCBs
 *   OS GHCBs        one shared page per VCPU (OS <-> hypervisor)
 *   OS IDCBs        per-VCPU OS<->Mon and OS<->Srv IDCBs — allocated in
 *                   the *less privileged* side's memory (§5.2), i.e.
 *                   reserved kernel memory
 *   kernel region   everything else: kernel text/data/heap, page
 *                   tables, user memory
 *   op rings        per-VCPU VeilOp submission + completion rings at
 *                   the top of memory (reserved kernel memory, §11)
 */
#ifndef VEIL_VEIL_LAYOUT_HH_
#define VEIL_VEIL_LAYOUT_HH_

#include <vector>

#include "snp/types.hh"

namespace veil::core {

/** Computed region map for one CVM. */
struct CvmLayout
{
    snp::Gpa imageBase = 0;
    snp::Gpa imageEnd = 0;

    snp::Gpa monBase = 0;    ///< DomMON working region (incl. VMSA pool)
    snp::Gpa monEnd = 0;
    snp::Gpa vmsaPool = 0;   ///< first VMSA page inside the mon region
    snp::Gpa vmsaPoolEnd = 0;

    snp::Gpa monGhcbBase = 0; ///< per-VCPU DomMON GHCBs (pre-shared)
    snp::Gpa srvGhcbBase = 0; ///< per-VCPU DomSRV GHCBs (pre-shared)
    snp::Gpa bootGhcb = 0;    ///< == monGhcb(0)

    snp::Gpa srvBase = 0;    ///< DomSRV working region
    snp::Gpa srvEnd = 0;
    snp::Gpa logStore = 0;   ///< VeilS-LOG reserved storage (inside srv)
    snp::Gpa logStoreEnd = 0;
    snp::Gpa srvIdcbBase = 0;///< per-VCPU SRV<->MON IDCBs (inside srv)
    snp::Gpa srvHeap = 0;    ///< staging + enclave PT frames (inside srv)

    snp::Gpa osGhcbBase = 0; ///< per-VCPU OS GHCB pages (shared)
    snp::Gpa osMonIdcbBase = 0; ///< per-VCPU OS<->Mon IDCBs
    snp::Gpa osSrvIdcbBase = 0; ///< per-VCPU OS<->Srv IDCBs

    snp::Gpa kernelBase = 0; ///< start of DomUNT memory
    snp::Gpa memEnd = 0;

    snp::Gpa opRingBase = 0; ///< per-VCPU VeilOp submission+completion
                             ///< rings (top of memory, kernel-owned per
                             ///< the §5.2 less-privileged rule; §11)
    snp::Gpa opRingEnd = 0;  ///< == memEnd

    uint32_t numVcpus = 0;

    snp::Gpa osGhcb(uint32_t vcpu) const;
    snp::Gpa monGhcb(uint32_t vcpu) const;
    snp::Gpa srvGhcb(uint32_t vcpu) const;
    snp::Gpa osMonIdcb(uint32_t vcpu) const;
    snp::Gpa osSrvIdcb(uint32_t vcpu) const;
    snp::Gpa srvMonIdcb(uint32_t vcpu) const;
    snp::Gpa opSubRing(uint32_t vcpu) const; ///< VeilOp submission ring
    snp::Gpa opCplRing(uint32_t vcpu) const; ///< VeilOp completion ring

    /** All pages that must be hypervisor-shared at launch. */
    std::vector<snp::Gpa> launchSharedPages() const;

    bool inMonRegion(snp::Gpa p) const;
    bool inSrvRegion(snp::Gpa p) const;
    /** Any region the OS must never control (mon, srv, image). */
    bool inProtectedRegion(snp::Gpa p) const;

    /**
     * Compute the layout.
     * @param mem_bytes   guest-physical memory size
     * @param vcpus       number of VCPUs
     * @param image_bytes boot image size
     * @param log_bytes   VeilS-LOG reserved storage size
     */
    static CvmLayout compute(size_t mem_bytes, uint32_t vcpus,
                             size_t image_bytes, size_t log_bytes);
};

} // namespace veil::core

#endif // VEIL_VEIL_LAYOUT_HH_
